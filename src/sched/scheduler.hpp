#pragma once

#include <cstdint>
#include <string>

#include "arch/program.hpp"
#include "sched/cost_model.hpp"
#include "sched/depgraph.hpp"
#include "sched/parallel_program.hpp"

namespace plim::sched {

struct ScheduleOptions {
  /// Number of PLiM banks executing in lockstep. One bank degenerates to
  /// the serial program (modulo cell renaming).
  std::uint32_t banks = 4;

  /// The inter-bank bus: `cost.bus_width` > 0 bounds how many cross-bank
  /// copies any step may issue. Transfer and duplication prices are
  /// fixed (see sched/cost_model.hpp).
  CostModel cost;

  /// Agglomerate segments along their heaviest producer→consumer edges
  /// (majority subtrees, RAW chains) before bank assignment, so whole
  /// subtrees land in one bank and only cluster boundaries cross the
  /// bus.
  bool cluster = true;

  /// Kernighan–Lin-style refinement passes over the cluster→bank
  /// assignment (see sched/refine.hpp): candidate moves and swaps are
  /// kept only when their exact re-schedule shows neither steps nor
  /// transfers regress, so refinement is monotone — it can only improve
  /// the schedule. 0 disables; each pass is bounded by O(banks) exact
  /// re-schedules, so this is the compile-time budget knob
  /// (`plimc --refine-passes`).
  std::uint32_t refine_passes = 20;

  /// Ignored by schedule(); kept until perfbench/ stops assigning it.
  bool refine_incremental = true;
  /// Ignored by schedule(); kept until perfbench/ stops assigning it.
  std::uint32_t refine_resync = 1;
  /// Ignored by schedule(); kept until perfbench/ stops assigning it.
  bool lookahead = true;

  /// Execution model the schedule's headline cycle figures (see
  /// ScheduleStats::makespan_cycles / bank_idle_cycles) are reported
  /// for, and what the scheduler optimizes: a lockstep schedule the
  /// lexicographic (steps, transfers), a decoupled one its projected
  /// event-driven makespan first — seed selection and the refinement
  /// keep rule compare projected makespans. The emitted program carries
  /// both views either way: the lockstep step structure plus the sync
  /// tokens decoupled execution needs, so `plimc --execution` and
  /// Machine::run_decoupled work on any schedule.
  ExecutionModel execution = ExecutionModel::lockstep;

  /// Ignored by schedule(); kept until perfbench/ stops assigning it.
  Objective objective = Objective::automatic;

  /// Label for this schedule's trace artifacts (the name of the
  /// per-bank cycle timeline process, rendered for decoupled schedules
  /// while tracing is enabled) — the driver passes the benchmark name.
  /// Empty uses "schedule".
  std::string trace_label;
};

struct ScheduleResult {
  ParallelProgram program;
  ScheduleStats stats;
};

/// Compiles a serial PLiM program into a multi-bank parallel schedule:
///
///  1. builds the register-level dependence graph and splits the program
///     into value-lifetime segments (see sched/depgraph.hpp);
///  2. assigns each segment to a bank: segments are first agglomerated
///     into clusters along their heaviest producer→consumer edges
///     (majority subtrees, RAW chains), then each cluster goes to the
///     bank minimizing the cost model's transfer + load-imbalance cost;
///  3. renames segments onto bank-local cells — renaming eliminates the
///     WAR/WAW hazards that serial cell reuse created, so only true (RAW)
///     dependences constrain the schedule — and resolves every cross-bank
///     operand either as an explicit 2-instruction transfer copy
///     (reset + RM3 copy) in the consuming bank, or, when the producing
///     chain reads only inputs/constants and is no longer than that copy,
///     as a local *recomputation*;
///     both are cached per produced value so repeated remote reads pay
///     once per bank;
///  4. list-schedules the result into steps of at most one instruction
///     per bank by ASAP/ALAP *slack* — zero-slack (critical-chain)
///     instructions preempt height ties, and banks whose best candidate
///     is most critical claim bounded bus slots first — issuing at most
///     `cost.bus_width` cross-bank copies per step when the bus is
///     bounded (deferred copies are counted as bus stalls); when
///     `opts.refine_passes` > 0, the cluster→bank assignment is then
///     iteratively refined (KL-style moves/swaps re-scheduled under the
///     cost model, keeping only changes that reduce steps or transfers);
///  5. sinks every dependency-free init (segment inits, transfer resets,
///     duplicate-chain resets) into the latest idle slot of its bank
///     before the step of its earliest successor, dropping steps left
///     empty — the list scheduler issues inits into early idle slots,
///     where they hold a cell for thousands of steps; refinement never
///     sees this pass, so steps, transfers and instructions stay the
///     same — then maps the renamed cells onto a disjoint contiguous cell
///     range per bank, recycling dead cells FIFO (the paper's
///     endurance-minded policy) once their last scheduled use has
///     passed. The resulting cell count is ScheduleStats::parallel_rrams,
///     which plim::Driver checks against `Options::compile.rram_cap`
///     (a `schedule-cap-exceeded` error when over it). The emitted
///     program finally gets its minimal sync-token set (sched::
///     derive_sync — coalesced signal/wait pairs at every cross-bank
///     transfer edge) so it can also run decoupled, and the stats report
///     cycle figures for both execution models.
///
/// Throws std::invalid_argument when the program reads memory it never
/// wrote (its behaviour would depend on pre-existing RRAM content, which
/// a bank-remapped program cannot reproduce), when an output cell is
/// never written, and when `opts.banks` is 0.
[[nodiscard]] ScheduleResult schedule(const arch::Program& serial,
                                      const ScheduleOptions& opts = {});

}  // namespace plim::sched
