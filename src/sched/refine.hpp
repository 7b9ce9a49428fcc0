#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sched/depgraph.hpp"

namespace plim::sched {

/// Exact quality of one candidate bank assignment, measured by actually
/// re-scheduling it (the scheduler provides the evaluator): makespan in
/// steps, cross-bank transfers, and the cross-bank RAW edges that sit on
/// the schedule's critical chain — zero-slack producer→consumer segment
/// pairs whose transfer latency directly stretches the makespan. Those
/// edges seed the next round of move candidates.
struct RefineEval {
  std::uint32_t steps = 0;
  std::uint32_t transfers = 0;
  /// Virtual critical path of the expanded program — the chain bound the
  /// incremental evaluator anchors its step model on.
  std::uint32_t chain = 0;
  /// (producer segment, consumer segment) of critical cross-bank reads.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> critical_cross_edges;
  /// (producer segment, reader segment) of zero-slack *same-bank* reads
  /// of a chain value: each such reader occupies the chain's bank for a
  /// step between two chain writes, serializing the critical chain.
  /// Spreading readers across banks turns them into transfer copies that
  /// execute in parallel — a makespan move the transfer surrogate cannot
  /// see.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> critical_local_edges;
  /// Projected decoupled makespan (cycles) of the packed schedule — the
  /// event-driven objective when RefineOptions::makespan_objective is
  /// set. 0 when the evaluator does not model it (steps objective).
  std::uint64_t makespan = 0;
};

/// Evaluates `seg_bank` exactly. With an `incumbent`, the evaluator may
/// stop as soon as the assignment provably cannot beat it under the
/// keep rule (see refine()) and return any evaluation that does not,
/// and it may leave the critical edges of a non-improving evaluation
/// empty: refinement reads neither.
using RefineEvaluator = std::function<RefineEval(
    const std::vector<std::uint32_t>& seg_bank, const RefineEval* incumbent)>;

/// Refinement budget and objective (see refine()).
struct RefineOptions {
  /// Maximum refinement passes; a pass that tries nothing new ends the
  /// loop early.
  std::uint32_t passes = 20;
  /// Optimize the decoupled event-driven makespan first (lexicographic
  /// (makespan, steps, transfers)) instead of the lockstep step count
  /// ((steps, transfers)). Requires the evaluator to fill
  /// RefineEval::makespan (the scheduler's evaluator does under
  /// decoupled execution).
  bool makespan_objective = false;
};

/// Work refine() spends. Each call adds to the caller's tally, so
/// several refinement legs can share one.
struct RefineWork {
  std::uint32_t passes_run = 0;
  std::uint32_t moves_tried = 0;  ///< trial moves priced (screened + exact)
  /// Of moves_tried: rejected by the incremental estimate alone, without
  /// spending an exact re-schedule.
  std::uint32_t moves_screened = 0;
  std::uint32_t full_evals = 0;  ///< exact re-schedules beyond baseline
};

/// What one refine() call achieved.
struct RefineStats {
  std::uint32_t moves_kept = 0;  ///< moves/swaps that survived
  std::uint32_t steps_before = 0;
  std::uint32_t steps_after = 0;
  std::uint32_t transfers_before = 0;
  std::uint32_t transfers_after = 0;
  /// Projected makespan of the final assignment (0 unless the run used
  /// the makespan objective) — lets the caller compare refined legs by
  /// the same objective the passes optimized.
  std::uint64_t makespan_after = 0;
};

/// Kernighan–Lin-style iterative improvement over the cluster→bank
/// assignment. Each pass:
///
///  1. prices every cluster's best relocation with the cost-model
///     surrogate — transfer delta from the segment-level read graph plus
///     the change in peak bank load (the throughput bound) — and ranks
///     candidates in FM-style gain buckets;
///  2. prepends moves suggested by the previous evaluation's critical
///     cross-bank edges (pull a critical consumer into its producer's
///     bank or vice versa) — the surrogate cannot see makespan, these
///     target it directly;
///  3. prices each candidate. Load/transfer-visible streams (gain
///     buckets, peak relief, fine-grained peak-bank spills, swaps) are
///     first screened with an O(window) IncrementalEval delta estimate,
///     and only estimates that beat the current assignment earn an exact
///     re-schedule; critical-edge and batched-spread streams go straight
///     to exact evaluation (their step effect is chain-shaped — invisible
///     to the load model). A move is kept only when its *exact*
///     evaluation improves the lexicographic objective (fewer steps, or
///     equal steps and fewer transfers) — steps never increase, and
///     transfers only rise when steps strictly fall; a rejected move may
///     retry once as a swap with the closest-sized cluster of the target
///     bank (covers pure load exchanges the one-way move cannot
///     express).
///
/// Exact re-schedules are bounded at 6 + banks per pass (most of them
/// confirm screen-approved moves), screened estimates at 48× that, and a
/// pass that tries nothing new ends the loop early — so refinement never
/// increases steps or transfers, every kept move is exact-confirmed, and
/// its cost is strictly bounded.
///
/// `cluster_of` maps every segment to a cluster root (see
/// cluster_segments()); `seg_bank` is updated in place with the refined
/// assignment. The work spent is added to `work`.
/// `incumbent`, when given, holds the already-computed evaluation of
/// the incoming `seg_bank` (e.g. from the scheduler's dual-start trial),
/// so refinement does not re-schedule the starting point; on return it
/// holds the evaluation of the refined assignment, critical edges
/// included, so a follow-up call can start from it. Every trial is
/// evaluated against the current best assignment's evaluation.
RefineStats refine(const DependenceGraph& graph,
                   std::vector<std::uint32_t>& seg_bank,
                   const std::vector<std::uint32_t>& cluster_of,
                   std::uint32_t banks, const RefineOptions& options,
                   const RefineEvaluator& evaluate, RefineWork& work,
                   RefineEval* incumbent = nullptr);

}  // namespace plim::sched
