#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/compiler.hpp"
#include "mig/rewriting.hpp"
#include "sched/parallel_program.hpp"

namespace plim::util {
class JsonWriter;
}  // namespace plim::util

namespace plim {

/// The one machine-readable quality report of a compilation — the JSON
/// schema that `plimc --json`, `plimc --batch`, `bench/sched_speedup`
/// and `tools/diff_bench.py` all share. Producers compose it from the
/// driver outcome; there is exactly one serializer (`write_json_fields`),
/// so the schema cannot drift between tools.
struct StatsReport {
  /// Request label (benchmark name / BLIF path / caller-given tag).
  std::string benchmark;
  /// Gates of the input network before any rewriting.
  std::uint32_t initial_gates = 0;
  /// Gates of the network that was compiled (#N after rewriting, or
  /// after dangling-gate cleanup when rewriting is off).
  std::uint32_t gates = 0;
  /// Rewriting metrics: gates, depth and multi-complement gates before
  /// and after, the cycles run and the passes rebuilt (both 0 when
  /// rewriting is off).
  mig::RewriteStats rewrite;
  /// Serial compilation metrics (#I, #R, peak live cells, …).
  core::CompileStats compile;
  /// Multi-bank schedule metrics; engaged only when the driver ran with
  /// Options::banks > 0.
  std::optional<sched::ScheduleStats> schedule;
  /// Whether the outcome passed the driver's end-to-end verification
  /// (false when verification was disabled).
  bool verified = false;

  /// Observability summary of the run: where the pipeline spent its
  /// wall-clock, phase by phase, plus the scheduler/refinement counters
  /// tuning loops feed on. The wall-clock fields are measured on every
  /// run (two clock reads per phase, tracing not required) and are the
  /// exact extents of the trace spans the driver emits under
  /// Options::trace.
  struct Metrics {
    double total_ms = 0.0;    ///< whole request, load through verify
    double load_ms = 0.0;     ///< parse BLIF / build benchmark network
    double rewrite_ms = 0.0;  ///< MIG rewriting (Algorithm 1)
    double compile_ms = 0.0;  ///< MIG → RM3 translation (Algorithm 2)
    double verify_ms = 0.0;   ///< serial program vs network simulation
    double schedule_ms = 0.0;  ///< multi-bank scheduling, refinement incl.
    double schedule_verify_ms = 0.0;  ///< schedule vs serial equivalence
    std::uint32_t refine_moves_tried = 0;  ///< KL trial moves priced
    std::uint32_t refine_moves_kept = 0;   ///< of which kept
    /// Of refine_moves_tried: rejected by the incremental estimate alone
    /// (no exact re-schedule spent).
    std::uint32_t refine_moves_screened = 0;
    std::uint32_t bus_stalls = 0;  ///< bank-steps idled waiting on the bus
    std::uint64_t bank_idle_cycles = 0;  ///< sum over banks
  } metrics;

  /// Zeroes *every* wall-clock field (metrics.*_ms plus the schedule's
  /// schedule_ms and its sub-phases) so reports are byte-stable
  /// across runs and thread counts — batch determinism diffs and
  /// golden-file tests depend on this.
  void normalize_timing();

  /// Emits the report as fields of the currently open JSON object:
  /// benchmark, initial_gates, gates, instructions, rrams,
  /// peak_live_rrams, verified, a nested "rewrite" object, a nested
  /// "metrics" object (per-phase timings + scheduler/refine counters),
  /// and — when a schedule ran — a nested "schedule" object (the
  /// sched::write_json_fields schema).
  void write_json_fields(util::JsonWriter& json) const;

  /// The report as one standalone JSON document (no trailing newline).
  [[nodiscard]] std::string to_json() const;
};

}  // namespace plim
