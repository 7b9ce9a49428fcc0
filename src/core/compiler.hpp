#pragma once

#include <cstdint>
#include <optional>

#include "arch/program.hpp"
#include "core/allocator.hpp"
#include "mig/mig.hpp"
#include "sched/cost_model.hpp"

namespace plim::core {

/// Graceful degradation under a tight `rram_cap` (the CONTRA-style
/// area-constrained mapping of the ROADMAP): instead of aborting when a
/// fresh cell would exceed the cap, the compiler evicts a live
/// intermediate whose MIG node can be recomputed from still-live values
/// or primary inputs, and replays its computation on the next use —
/// trading instructions (latency) for cells (area).
struct DegradationOptions {
  /// Master switch; off preserves the hard-failure behavior.
  bool enabled = false;
  /// Level-2 escalation of the driver's retry ladder: also evict values
  /// whose replay needs a recompute *cascade* (dead operands recomputed
  /// recursively from primary inputs). Off, only values whose operands
  /// are all still live (single-step replay) are eviction victims.
  bool aggressive = false;
};

/// Options of the MIG → PLiM compilation (Algorithm 2 of the paper).
struct CompileOptions {
  /// §4.2.1 candidate selection: pick the translatable node with the most
  /// releasing children (ties: lowest maximum fanout level, then lowest
  /// index). When false, nodes are translated in index order — this is
  /// exactly the paper's Table-1 "naïve" configuration ("only the
  /// candidate selection scheme is disabled").
  bool smart_candidates = true;

  /// §4.2.3 free-list discipline; the paper uses FIFO for endurance.
  AllocationPolicy allocation = AllocationPolicy::fifo;

  /// Remember complemented copies of node values for later reuse (cases
  /// (f)/(g)/(h) of operand-B selection and case (c)/(d) of operand-A
  /// selection keep an inverted value "for future use").
  bool cache_complements = true;

  /// §3 exposition mode: fixed slot assignment A←child1, B←child2,
  /// Z←child3 ("in order of their children from left to right") instead
  /// of the §4.2.2 case analysis. Used to reproduce Fig. 3(b)'s 19- vs
  /// 15-instruction comparison; prefer translate_naive_textbook().
  bool textbook_slots = false;

  /// Future-work extension: hard upper bound on distinct RRAM cells.
  /// Compilation throws RramCapExceeded when it cannot stay within it —
  /// unless `degradation.enabled` turns the cliff into recompute-on-evict.
  std::optional<std::uint32_t> rram_cap = std::nullopt;

  /// Recompute-on-evict compilation under capacity pressure (only read
  /// when `rram_cap` is set). With degradation enabled, a cap below the
  /// honest live-set lower bound (see live_set_lower_bound()) fails fast
  /// with that bound attached to the RramCapExceeded.
  DegradationOptions degradation;

  /// Ignored by compile(); kept until perfbench/ stops assigning it.
  sched::CostModel cost;
};

/// Outcome metrics (#I and #R are the paper's quality measures).
struct CompileStats {
  std::uint32_t num_instructions = 0;  ///< #I
  std::uint32_t num_rrams = 0;         ///< #R (distinct work cells)
  std::uint32_t num_gates = 0;         ///< reachable MIG gates translated
  std::uint32_t peak_live_rrams = 0;   ///< high-water mark of live cells
  /// Explicit complement materializations (2-instruction inversions) —
  /// the quantity MIG rewriting attacks.
  std::uint32_t complement_materializations = 0;
  /// The `rram_cap` the compilation ran under (0 = unbounded) — echoed
  /// so reports are self-describing.
  std::uint32_t rram_cap = 0;
  /// Honest lower bound on simultaneously live cells for this network —
  /// no compilation strategy, however clever, fits below it (RM3 operand
  /// residency per gate, plus the distinct output values that must all
  /// reside in cells at program end).
  std::uint32_t live_lower_bound = 0;
  // ---- degradation (all 0 when no eviction happened) ----------------------
  std::uint32_t cells_evicted = 0;   ///< live values spilled under pressure
  std::uint32_t ops_recomputed = 0;  ///< gate replays emitted on next use
  std::uint32_t replay_max_depth = 0;  ///< deepest recompute cascade
};

struct CompileResult {
  arch::Program program;
  CompileStats stats;
};

/// Compiles an MIG into a PLiM program (Algorithm 2): candidates are
/// selected per CompileOptions, each node is translated with the operand
/// B / destination Z / operand A case analysis of §4.2.2, and RRAM cells
/// are managed by the §4.2.3 allocator. Unreachable gates are skipped.
/// Named outputs are materialized into RRAM cells (complemented / PI /
/// constant outputs get the needed copy or inversion instructions).
[[nodiscard]] CompileResult compile(const mig::Mig& mig,
                                    const CompileOptions& opts = {});

/// The fully naïve translation used for exposition in §3: nodes in index
/// order, RM3 slots assigned from the children left to right, no
/// complement caching. Destination cells of single-fanout gate children
/// are still reused (as in the paper's 19-instruction example program).
[[nodiscard]] CompileResult translate_naive_textbook(const mig::Mig& mig);

/// Honest lower bound on simultaneously live RRAM cells for compiling
/// `mig` under ANY strategy: each gate's distinct gate-operand values
/// must be resident at its RM3 (at least one cell for the result), and
/// each distinct output signal occupies its own cell at program end. A
/// cap below this bound is genuinely infeasible — with degradation
/// enabled, compile() fails fast and reports the bound in the
/// RramCapExceeded instead of attempting eviction.
[[nodiscard]] std::uint32_t live_set_lower_bound(const mig::Mig& mig);

}  // namespace plim::core
