#pragma once

#include <cstdint>

#include "sched/parallel_program.hpp"

namespace plim::sched {

/// Outcome of one stream-reorder attempt (see reorder_streams).
struct StreamOrderResult {
  bool applied = false;  ///< the reordered program replaced the input
  std::uint64_t makespan_before = 0;  ///< decoupled makespan going in
  std::uint64_t makespan_after = 0;   ///< decoupled makespan of the result
  /// makespan_before − makespan_after when applied, else 0.
  std::uint64_t saved_cycles = 0;
};

/// Decoupled-native stream ordering: re-sequences each bank's serial
/// instruction stream for the event-driven makespan instead of
/// inheriting the lockstep step order. Bank assignment and cell
/// allocation stay fixed; only the order ops issue within their bank
/// changes. The pass list-schedules on the op-level hazard graph over
/// physical cells (sched::for_each_hazard: RAW/WAR/WAW per cell,
/// phase-accurate latencies) on the decoupled IssueClock of the
/// program's declared bus, prioritising by critical-path height, then
/// repacks the new streams into lockstep steps (so the program stays a
/// valid ParallelProgram — the lockstep view is the canonical storage)
/// and re-derives sync tokens. The list scheduling costs O(n log n) in
/// the program's n ops.
///
/// The reordered program is adopted only when its decoupled makespan is
/// strictly smaller and its lockstep step count did not grow — a guard
/// that keeps the pass a pure improvement under both execution models.
/// Returns what happened either way; `program` is unchanged when
/// `applied` is false. Expects a validated program.
StreamOrderResult reorder_streams(ParallelProgram& program);

}  // namespace plim::sched
