#pragma once

#include <cstdint>

#include "mig/mig.hpp"

namespace plim::mig {

/// Knobs for the PLiM-oriented rewriting (Algorithm 1 of the DAC'16
/// paper).
struct RewriteOptions {
  /// Maximum number of iterations of the full rewriting cycle (the
  /// paper's `effort`; the experiments use 4). The loop stops earlier at
  /// a fixed point: once a cycle returns its input unchanged, further
  /// cycles could not change it either.
  unsigned effort = 4;
};

/// Before/after metrics of one rewriting run.
struct RewriteStats {
  std::uint32_t gates_before = 0;
  std::uint32_t gates_after = 0;
  std::uint32_t depth_before = 0;
  std::uint32_t depth_after = 0;
  std::uint32_t multi_complement_before = 0;
  std::uint32_t multi_complement_after = 0;
  /// Rewriting cycles run: at most `effort`, and one past the last cycle
  /// that changed the network.
  std::uint32_t cycles = 0;
  /// Passes that rebuilt the network: of the five passes each cycle runs,
  /// those not proven unchanged by `pass_may_change`.
  std::uint32_t passes_rebuilt = 0;
};

/// Algorithm 1: for (cycles < effort) { Ω.M; Ω.D_R→L; Ω.A; Ω.C; Ω.M;
/// Ω.D_R→L; Ω.I_R→L(1–3); Ω.I_R→L; }, stopping early at a fixed point —
/// when a cycle returns a structurally identical network (same nodes,
/// fanins, PI order and POs). Every pass is deterministic, so the result
/// equals running all `effort` cycles. Returns a functionally equivalent
/// network optimized for PLiM compilation (small, few multi-complement
/// gates).
///
/// A pass costs a rebuild only when it changes the network: each pass is
/// first checked with `pass_may_change`, and a pass proven unchanged
/// leaves the network as it is, without a copy. A cycle of five unchanged
/// passes is the fixed point. The dangling-gate cleanup before the first
/// cycle is skipped the same way when it would reproduce its input.
[[nodiscard]] Mig rewrite_for_plim(const Mig& mig,
                                   const RewriteOptions& opts = {},
                                   RewriteStats* stats = nullptr);

/// The rewriting passes of an Algorithm 1 cycle, which runs size,
/// reshape, size, inverters_conditional, inverters_final.
enum class Pass : std::uint8_t {
  size,                   ///< pass_size
  reshape,                ///< pass_reshape
  inverters_conditional,  ///< pass_inverters(mig, true)
  inverters_final,        ///< pass_inverters(mig, false)
};

/// Whether `pass` may change `mig`. False is a proof that the pass
/// rebuilds `mig` node for node, which holds when all of these do: the
/// PIs are nodes 1..num_pis in order; every gate reaches a PO; for the
/// size and reshape passes, no gate's rule fires or would add a node when
/// run against the nodes of `mig` below that gate (the prefix a rebuild
/// holds when it reaches the gate, so a structural-hash hit counts only
/// below it); and for the inverter passes, no gate is flipped.
[[nodiscard]] bool pass_may_change(const Mig& mig, Pass pass);

/// One size pass: Ω.M folding (inside create_maj) plus Ω.D right-to-left
/// node merging. Output is cleaned of dangling gates.
[[nodiscard]] Mig pass_size(const Mig& mig);

/// One reshape pass: Ω.A associativity swaps (with Ω.C normalization via
/// structural hashing) adopted only when they hit existing structure.
[[nodiscard]] Mig pass_reshape(const Mig& mig);

/// One inverter-propagation pass.
///
/// `conditional == true` implements Ω.I_R→L(1–3): gates with ≥2
/// complemented non-constant fanins are flipped (all fanin complements
/// toggled, output complemented) when a profitability estimate over the
/// gate itself, its fanout gates and its PO references says the total
/// number of explicit negations decreases.
///
/// `conditional == false` implements the final Ω.I_R→L sweep: the most
/// costly case — all three non-constant fanins complemented — is always
/// eliminated.
[[nodiscard]] Mig pass_inverters(const Mig& mig, bool conditional);

/// Number of gates with ≥2 complemented non-constant fanins (the
/// expensive gates for RM3 translation).
[[nodiscard]] std::uint32_t count_multi_complement(const Mig& mig);

}  // namespace plim::mig
