#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/allocator.hpp"
#include "driver/diagnostic.hpp"
#include "mig/rewriting.hpp"
#include "sched/cost_model.hpp"
#include "sched/parallel_program.hpp"

namespace plim {

/// The single options surface of the plim::Driver facade: one option
/// set per compile, checked for contradictions by `validate()`.
struct Options {
  /// PLiM banks the program is scheduled onto. 0 compiles the serial
  /// program only (no scheduling stage); 1 degenerates to the serial
  /// program modulo cell renaming. The scheduler assigns every value its
  /// bank after compilation (heavy-edge clustering + cost-model bank
  /// assignment). Hard API bound: 1024.
  std::uint32_t banks = 0;

  /// MIG rewriting stage (Algorithm 1). `rewrite.effort` == 0 disables
  /// rewriting entirely — the network is only cleaned of dangling gates
  /// before compilation.
  mig::RewriteOptions rewrite;

  /// MIG → RM3 compilation stage (Algorithm 2).
  struct Compile {
    /// §4.2.1 priority candidate selection; false translates in index
    /// order (Table 1's "naïve" column).
    bool smart_candidates = true;
    /// Remember complemented copies of node values for reuse.
    bool cache_complements = true;
    /// §3 exposition mode: RM3 slots assigned from the children left to
    /// right instead of the §4.2.2 case analysis. Contradicts
    /// `smart_candidates` (validate() rejects the combination).
    bool textbook_slots = false;
    /// §4.2.3 free-list discipline (the paper uses FIFO for endurance).
    core::AllocationPolicy allocation = core::AllocationPolicy::fifo;
    /// Hard upper bound on distinct RRAM cells; infeasible compilations
    /// fail with an "rram-cap-exceeded" diagnostic — unless degradation
    /// is enabled, which turns the cliff into a retry ladder.
    std::optional<std::uint32_t> rram_cap = std::nullopt;
    /// Graceful degradation under capacity pressure (plimc --degrade):
    /// when a compile hits `rram_cap`, the driver climbs a bounded retry
    /// ladder instead of failing —
    ///   level 1: recompute-on-evict (spill a live intermediate, replay
    ///            its RM3 on next use);
    ///   level 2: aggressive eviction (victims whose replay cascades
    ///            through dead operands are admitted too).
    /// Every retry is recorded as an "rram-cap-retry" warning and a
    /// metrics-registry counter; a degraded success carries an
    /// "rram-cap-degraded" warning. A cap below the honest live-set
    /// lower bound (core::live_set_lower_bound) is genuinely infeasible:
    /// level 1 proves it, the ladder stops there, and the final
    /// "rram-cap-exceeded" error reports that bound.
    struct Degradation {
      bool enabled = false;
    } degradation;
  } compile;

  /// Multi-bank scheduling stage (engaged when `banks` > 0).
  struct Schedule {
    /// The inter-bank bus: `cost.bus_width` > 0 bounds cross-bank copies
    /// per step. Transfer and duplication prices are fixed (see
    /// sched/cost_model.hpp).
    sched::CostModel cost;
    /// Heavy-edge clustering before bank assignment.
    bool cluster = true;
    /// KL refinement passes over the cluster→bank assignment (0
    /// disables; the compile-time budget knob).
    std::uint32_t refine_passes = 20;
    /// Ignored by the Driver; kept until perfbench/ stops reading it.
    bool refine_incremental = true;
    /// Ignored by the Driver; kept until perfbench/ stops reading it.
    std::uint32_t refine_resync = 1;
    /// Ignored by the Driver; kept until perfbench/ stops reading it.
    bool lookahead = true;
    /// Execution model the headline cycle figures are reported for, and
    /// what the scheduler optimizes: decoupled schedules their
    /// event-driven makespan, lockstep ones their step count. The
    /// emitted program always carries both views (steps + sync tokens).
    sched::ExecutionModel execution = sched::ExecutionModel::lockstep;
    /// Ignored by the Driver; kept until perfbench/ stops reading it.
    sched::Objective objective = sched::Objective::automatic;
  } schedule;

  /// End-to-end verification the driver runs on every outcome: the
  /// serial program against bit-parallel MIG simulation, the schedule
  /// against the serial program (lockstep, plus decoupled when
  /// `schedule.execution` is decoupled). Failures surface as
  /// "verify-failed" / "schedule-diverges" diagnostics.
  struct Verify {
    bool enabled = true;
    unsigned rounds = 8;  ///< ×64 random vectors per check
    std::uint64_t seed = 1;
  } verify;

  /// Observability: when enabled, the driver switches on the process-wide
  /// tracer + metrics registry (util::Tracer / util::MetricsRegistry) and
  /// emits one span per pipeline phase per request — under run_batch the
  /// trace shows per-thread worklist occupancy — plus cycle-accurate
  /// per-bank execution timelines for decoupled schedules. The per-phase
  /// wall-clock metrics in StatsReport are measured regardless of this
  /// switch; only trace-event collection is gated. Export via
  /// util::Tracer::global().write_chrome_trace() (plimc --trace does
  /// both).
  struct Trace {
    bool enabled = false;
  } trace;

  /// The §3 textbook-naïve translation preset (index order, left-to-right
  /// slots, no complement caching, fresh cells only, no rewriting) — the
  /// baseline of Fig. 3(b).
  [[nodiscard]] static Options textbook_naive();

  /// Checks the option set for contradictions. Errors (has_errors())
  /// mean Driver::run would refuse the configuration; warnings flag
  /// settings that are silently inert (e.g. a bus width without banks).
  [[nodiscard]] std::vector<Diagnostic> validate() const;
};

}  // namespace plim
