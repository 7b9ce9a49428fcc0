#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sched/depgraph.hpp"
#include "sched/refine.hpp"

namespace plim::sched {

/// Incremental (delta) evaluator for refinement trial moves.
///
/// The exact evaluator re-expands and re-list-schedules the *entire*
/// program per trial (O(program)). This class instead keeps the cost
/// state of the last exactly-evaluated assignment — per-bank effective
/// loads (segment instructions plus the transfer-copy instructions each
/// bank executes), the expanded program's chain bound, and the transfer
/// count — and prices a candidate move as a *delta*: only the moved
/// segments' windows (their sizes plus the read defs they read and
/// produce, from the dependence graph's read graph) are re-costed, so
/// one trial is O(window) instead of O(program).
///
/// The estimate is a screen, not a truth: `steps` is modelled as the
/// anchored schedule's packing overhead on top of max(chain bound, peak
/// effective load), which prices load/transfer-bound moves well but
/// cannot see chain-length changes. Refinement therefore confirms every
/// accepted move with the exact evaluator and re-anchors here, so the
/// anchored state is always exact. The makespan objective screens on
/// the same estimate: a pipelined-span model of the makespan would
/// still rank a move by max(chain bound, peak effective load) against
/// the anchor's, so it would decide exactly as `steps` does.
class IncrementalEval {
 public:
  /// One priced trial: the estimated schedule cost of the whole
  /// assignment after the move (same units as RefineEval).
  struct Estimate {
    std::uint32_t steps = 0;
    std::uint32_t transfers = 0;
  };

  /// A segment relocation the estimate prices: `seg` moved away from
  /// `from_bank` (its new bank is read from the trial assignment).
  using MovedSeg = std::pair<std::uint32_t, std::uint32_t>;

  /// `graph` must outlive the evaluator.
  IncrementalEval(const DependenceGraph& graph, std::uint32_t banks);

  /// Anchors on `seg_bank`, whose exact evaluation is `exact`:
  /// recomputes per-bank effective loads from scratch and adopts the
  /// exact (steps, transfers, chain). O(program), but called only when
  /// refinement keeps a move — not per trial.
  void anchor(const std::vector<std::uint32_t>& seg_bank,
              const RefineEval& exact);

  /// Prices `trial`, which differs from the anchored assignment exactly
  /// in the `moved` segments. O(window): touches only the moved
  /// segments' read-graph rows. Does not change the evaluator's state.
  [[nodiscard]] Estimate estimate(const std::vector<std::uint32_t>& trial,
                                  const std::vector<MovedSeg>& moved) const;

  /// Per-bank effective load (instructions + transfer-copy instructions)
  /// of the anchored assignment — the throughput-bound view candidate
  /// generators rank banks by.
  [[nodiscard]] const std::vector<std::uint64_t>& effective_loads()
      const noexcept {
    return bank_eff_;
  }

 private:
  const DependenceGraph& graph_;
  std::uint32_t banks_ = 0;

  // Anchored state.
  std::vector<std::uint64_t> bank_eff_;   ///< effective load per bank
  std::uint32_t transfers_ = 0;  ///< anchor transfers
  std::uint32_t chain_ = 0;      ///< expanded-program chain bound (anchor)
  std::uint32_t overhead_ = 0;   ///< anchor steps − max(chain, peak load)

  // Scratch for the delta walk (mutable: estimate() is logically const).
  mutable std::vector<std::pair<std::uint32_t, std::int64_t>> bank_delta_;
  mutable std::vector<std::uint32_t> def_mark_;   ///< per-def visit stamp
  mutable std::vector<std::uint32_t> old_bank_;   ///< moved-seg overlay
  mutable std::vector<std::uint32_t> seg_mark_;   ///< overlay stamp
  mutable std::uint32_t stamp_ = 0;
  mutable std::vector<std::uint32_t> banks_before_;
  mutable std::vector<std::uint32_t> banks_after_;
};

}  // namespace plim::sched
