#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/isa.hpp"

namespace plim::util {
class JsonWriter;
}  // namespace plim::util

namespace plim::sched {

/// One instruction slot of a parallel step: which bank executes it and
/// whether it is (half of) a cross-bank value transfer. Transfer slots are
/// the only instructions allowed to read RRAM cells outside their own
/// bank's range — they model the inter-bank copy bus.
struct Slot {
  std::uint32_t bank = 0;
  arch::Instruction instr;
  bool is_transfer = false;

  friend bool operator==(const Slot&, const Slot&) noexcept = default;
};

/// One explicit cross-bank synchronization token (a signal/wait pair)
/// with *phase-level* resolution: the token is signaled by `from_bank`
/// when phase `from_phase` of its `from_pos`-th stream instruction
/// completes, and waited on by `to_bank` before phase `to_phase` of its
/// `to_pos`-th stream instruction begins. Positions index a bank's
/// serial instruction stream — its slots in step order, 0-based (the
/// per-bank projection of the lockstep step view, see
/// sched::StreamView). Tokens point forward: the wait sits in a strictly
/// later step than the signal. Phases index the RM3 instruction cycle,
/// 0-based: 0 fetch, 1 read A, 2 read B, 3 write
/// (arch::Machine::phases_per_instruction). The timing contract is
///
///   to_start + to_phase  >=  from_start + from_phase + 1
///
/// i.e. the waiting phase begins no earlier than the cycle after the
/// signaled phase completes. The defaults — signal at write-phase
/// completion (`from_phase` 3), wait before fetch (`to_phase` 0) — are
/// the conservative full-instruction handshake; sched::derive_sync
/// tightens the wait to the consumer's actual read phase (a RAW
/// consumer only needs the remote value when its operand phase reads
/// it) and the signal to the producer's read phase on WAR tokens (the
/// overwriter only needs the remote *read* to have happened), shaving
/// 1–2 cycles off every cross-bank hop. Decoupled execution relies on
/// these tokens for every cross-bank ordering; the lockstep model needs
/// none, because the global step barrier over-synchronizes instead.
struct SyncEdge {
  std::uint32_t from_bank = 0;
  std::uint32_t from_pos = 0;
  std::uint32_t to_bank = 0;
  std::uint32_t to_pos = 0;
  std::uint32_t from_phase = 3;  ///< signal when this producer phase ends
  std::uint32_t to_phase = 0;    ///< stall only this consumer phase

  friend bool operator==(const SyncEdge&, const SyncEdge&) noexcept = default;
  friend auto operator<=>(const SyncEdge&, const SyncEdge&) noexcept = default;
};

/// How a multi-bank program executes and is priced:
///  - lockstep: one global controller steps every bank together; a step
///    costs phases_per_instruction cycles whether or not a bank is busy,
///    so cycles = steps × phases.
///  - decoupled: every bank's controller runs its own serial stream and
///    blocks only on explicit sync tokens and the shared inter-bank bus;
///    makespan = max over banks of its own cycle count.
enum class ExecutionModel { lockstep, decoupled };

/// Ignored: the scheduler's objective follows the ExecutionModel.
/// Kept, with the ignored `objective` option fields, until perfbench/
/// stops assigning them.
enum class Objective { automatic, steps, makespan };

/// The most banks a program may have: the hard bound plim::Options and
/// the parallel listing parser enforce.
inline constexpr std::uint32_t kMaxBanks = 1024;

/// A multi-bank PLiM program: a sequence of *steps*, each holding at most
/// one RM3 instruction per bank, executed in lockstep (all reads see the
/// pre-step state, all writes commit together). Every bank owns a
/// contiguous, disjoint range of the global RRAM address space; compute
/// instructions only touch cells of their own bank, so each bank's
/// controller stays as simple as the paper's single-bank design.
class ParallelProgram {
 public:
  ParallelProgram() = default;

  // ---- construction ------------------------------------------------------

  explicit ParallelProgram(std::uint32_t num_banks) : num_banks_(num_banks) {}

  std::uint32_t add_input(std::string name);
  void add_output(std::string name, std::uint32_t cell);

  /// Declares that bank `bank` owns global cells [begin, end).
  void set_bank_range(std::uint32_t bank, std::uint32_t begin,
                      std::uint32_t end);

  /// Declares the inter-bank bus bandwidth this program was scheduled
  /// for: at most `width` cross-bank copies per step (0 = unbounded).
  /// Checked by validate() and enforced by Machine::run_parallel.
  void set_bus_width(std::uint32_t width) noexcept { bus_width_ = width; }

  /// Opens a new (initially empty) step and returns its index.
  std::uint32_t begin_step();

  /// Appends a slot to the last opened step.
  void add_slot(Slot slot);

  /// Appends an explicit sync token (see SyncEdge). Schedulers call
  /// sched::derive_sync to materialize a minimal set from the step
  /// structure instead of adding edges by hand.
  void add_sync(SyncEdge edge) { sync_.push_back(edge); }
  void clear_sync() noexcept { sync_.clear(); }

  // ---- queries -----------------------------------------------------------

  [[nodiscard]] std::uint32_t num_banks() const noexcept { return num_banks_; }
  [[nodiscard]] std::uint32_t num_steps() const noexcept {
    return static_cast<std::uint32_t>(steps_.size());
  }
  [[nodiscard]] const std::vector<Slot>& step(std::uint32_t s) const {
    return steps_[s];
  }

  /// Global RRAM cells across all banks.
  [[nodiscard]] std::uint32_t num_rrams() const noexcept;
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> bank_range(
      std::uint32_t bank) const {
    return bank_ranges_[bank];
  }
  /// Bank owning `cell` (num_banks() when outside every range).
  [[nodiscard]] std::uint32_t bank_of_cell(std::uint32_t cell) const noexcept;

  /// Declared inter-bank bus bandwidth (0 = unbounded).
  [[nodiscard]] std::uint32_t bus_width() const noexcept { return bus_width_; }

  /// Whether `slot` reads an RRAM cell outside its own bank's range: a
  /// cross-bank copy, which occupies the inter-bank bus.
  [[nodiscard]] bool reads_remote(const Slot& slot) const noexcept;

  /// Cross-bank copies a step issues (the bus traffic of the step).
  [[nodiscard]] std::uint32_t step_bus_ops(std::uint32_t s) const;

  /// Explicit cross-bank sync tokens (empty on a purely lockstep
  /// program; see SyncEdge and sched/decoupled.hpp).
  [[nodiscard]] const std::vector<SyncEdge>& sync_edges() const noexcept {
    return sync_;
  }
  [[nodiscard]] bool has_sync() const noexcept { return !sync_.empty(); }

  [[nodiscard]] std::uint32_t num_instructions() const noexcept;
  [[nodiscard]] std::uint32_t num_transfer_instructions() const noexcept;

  [[nodiscard]] std::uint32_t num_inputs() const noexcept {
    return static_cast<std::uint32_t>(input_names_.size());
  }
  [[nodiscard]] const std::string& input_name(std::uint32_t i) const {
    return input_names_[i];
  }
  [[nodiscard]] const std::vector<std::string>& input_names() const noexcept {
    return input_names_;
  }
  [[nodiscard]] std::uint32_t num_outputs() const noexcept {
    return static_cast<std::uint32_t>(outputs_.size());
  }
  [[nodiscard]] const std::string& output_name(std::uint32_t i) const {
    return outputs_[i].first;
  }
  [[nodiscard]] std::uint32_t output_cell(std::uint32_t i) const {
    return outputs_[i].second;
  }
  /// (name, cell) per output, in declaration order.
  [[nodiscard]] const std::vector<std::pair<std::string, std::uint32_t>>&
  outputs() const noexcept {
    return outputs_;
  }

  /// Structural sanity: bank ranges are disjoint and in bank order; every
  /// step has at most one slot per bank, in ascending bank order; every
  /// destination lies in the executing bank's range; non-transfer slots
  /// read only local cells, inputs and constants; no slot reads a cell
  /// another slot of the same step writes; no step issues more cross-bank
  /// copies than the declared bus width; outputs and operands are in
  /// bounds. When sync tokens are present, they must additionally connect
  /// two distinct existing banks at in-range stream positions, point
  /// forward (each wait in a strictly later step than its signal, which
  /// rules out deadlock), and *cover* every cross-bank hazard — each
  /// remote read must be ordered after the producing write and before the
  /// cell's next overwrite (see sched::check_sync). Returns an empty
  /// string when valid, otherwise a description of the first violation.
  [[nodiscard]] std::string validate() const;

 private:
  std::uint32_t num_banks_ = 0;
  std::uint32_t bus_width_ = 0;  ///< 0 = unbounded inter-bank bus
  std::vector<std::pair<std::uint32_t, std::uint32_t>> bank_ranges_;
  std::vector<std::vector<Slot>> steps_;
  std::vector<SyncEdge> sync_;
  std::vector<std::string> input_names_;
  std::vector<std::pair<std::string, std::uint32_t>> outputs_;
};

/// Quality metrics of a multi-bank schedule, relative to the serial
/// program it was derived from.
struct ScheduleStats {
  std::uint32_t banks = 0;
  std::uint32_t serial_instructions = 0;
  /// Includes transfer copies and duplicated (recomputed) chains.
  std::uint32_t parallel_instructions = 0;
  std::uint32_t transfers = 0;  ///< cross-bank value transfers (bus copies)
  std::uint32_t duplicates = 0;  ///< remote values recomputed locally
  std::uint32_t duplicated_instructions = 0;  ///< instructions they cost
  std::uint32_t steps = 0;
  std::uint32_t critical_path = 0;  ///< RAW chain lower bound (serial)
  /// Dependence-graph lower bound on steps for this assignment: the
  /// chain bound — min(renamed critical path, virtual_critical_path),
  /// since duplication can detach a remote reader from the renamed
  /// chain — or the throughput bound ⌈parallel_instructions / banks⌉,
  /// whichever binds. steps ≥ step_lower_bound always holds; the slack
  /// scheduler + refinement converge toward it.
  std::uint32_t step_lower_bound = 0;
  /// Longest chain of the expanded (renamed + transfers materialized)
  /// program — the exact chain bound for the chosen assignment. steps −
  /// virtual_critical_path measures list-scheduler packing loss;
  /// virtual_critical_path − step_lower_bound measures assignment loss.
  std::uint32_t virtual_critical_path = 0;
  std::uint32_t serial_rrams = 0;
  std::uint32_t parallel_rrams = 0;  ///< sum over banks after remapping
  std::uint32_t bus_width = 0;   ///< bounded bus the schedule honours (0 = ∞)
  std::uint32_t bus_stalls = 0;  ///< bank-steps idled waiting for the bus
  /// Execution model the headline cycle figures below were chosen for.
  ExecutionModel execution = ExecutionModel::lockstep;
  std::uint32_t sync_tokens = 0;  ///< signal/wait pairs materialized
  /// Cycles under `execution` — the honest figure of merit. Equals
  /// lockstep_cycles or decoupled_cycles depending on the model.
  std::uint64_t makespan_cycles = 0;
  std::uint64_t lockstep_cycles = 0;  ///< steps × phases_per_instruction
  /// Event-driven makespan with independent bank controllers: per-bank
  /// streams pipeline back-to-back ops at phases − 1 cycles (the
  /// lockstep barrier forbids that prefetch), block on explicit sync
  /// tokens, and share the bus through an in-order arbiter. Never
  /// exceeds lockstep_cycles for schedules that honour their declared
  /// bus width (the step barrier only ever over-synchronizes).
  std::uint64_t decoupled_cycles = 0;
  std::uint64_t decoupled_bus_stall_cycles = 0;  ///< arbiter wait cycles
  double decoupled_speedup = 0.0;  ///< lockstep_cycles / decoupled_cycles
  /// Honest lower bound on the decoupled makespan: the timing sweep with
  /// bus contention relaxed (stream pipelining + phase-level sync + the
  /// bounded bus's in-order grant chain) maxed with the aggregate
  /// bus-throughput floor ⌈bus ops × phases / width⌉.
  /// makespan_lower_bound ≤ decoupled_cycles always holds; the gap is
  /// what bus contention and stream ordering still cost.
  std::uint64_t makespan_lower_bound = 0;
  /// Always 0; kept until perfbench/ stops reading it.
  std::uint64_t stream_reorder_saved_cycles = 0;
  /// Per-bank idle cycles under `execution`: lockstep charges every bank
  /// each step, decoupled charges waits + tail idle until the makespan.
  std::vector<std::uint64_t> bank_idle_cycles;
  std::uint32_t refine_passes = 0;      ///< KL refinement passes run
  std::uint32_t refine_moves_tried = 0;  ///< trial moves priced
  std::uint32_t refine_moves_kept = 0;   ///< moves/swaps that survived
  /// Of refine_moves_tried: rejected by the incremental delta estimate
  /// alone, without spending an exact re-schedule.
  std::uint32_t refine_moves_screened = 0;
  std::uint32_t refine_full_evals = 0;  ///< exact re-schedules spent
  /// Of refine_full_evals: stopped by a bound once the trial provably
  /// could not be kept, before its schedule was complete.
  std::uint32_t refine_bounded = 0;
  std::uint32_t refine_steps_saved = 0;  ///< steps removed by refinement
  /// Transfers removed — negative when refinement traded extra copies
  /// for a shorter critical chain (its objective is lexicographic:
  /// steps, then transfers).
  std::int64_t refine_transfers_saved = 0;
  std::vector<std::uint32_t> bank_load;  ///< instructions per bank
  double utilization = 0.0;  ///< parallel_instructions / (steps × banks)
  double speedup = 0.0;      ///< serial_instructions / steps
  double schedule_ms = 0.0;  ///< scheduler wall-clock, refinement included
  /// Of which: dependence-graph build, clustering and the greedy seed
  /// trials.
  double assign_ms = 0.0;
  double refine_ms = 0.0;  ///< of which: KL refinement passes
  /// Of which: the final expansion + list scheduling (near 0 when the
  /// last exact evaluation already packed the final assignment).
  double pack_ms = 0.0;
  double alloc_ms = 0.0;  ///< of which: physical cell allocation + emission
  double sync_ms = 0.0;   ///< of which: sync derivation + decoupled timing
};

/// Emits the stats as fields of the currently open JSON object — the one
/// schema shared by `plimc --json` and the bench trajectory files.
void write_json_fields(const ScheduleStats& stats, util::JsonWriter& json);

}  // namespace plim::sched
