#pragma once

#include <cstdint>
#include <vector>

#include "arch/program.hpp"
#include "util/stats.hpp"

namespace plim::sched {
class ParallelProgram;
struct DecoupledTiming;
}  // namespace plim::sched

namespace plim::arch {

/// Functional + endurance model of the PLiM architecture (Fig. 2 of the
/// paper): an RRAM array wrapped by a controller that fetches RM3
/// instructions and applies them to the array.
///
/// The model is cycle-approximate: each instruction takes a fixed number
/// of controller phases (fetch, read A, read B, execute/write), and every
/// destination update increments a per-cell write counter — the endurance
/// proxy that the paper's FIFO allocation policy is designed to level.
class Machine {
 public:
  /// Controller phases per RM3 instruction (fetch, read A, read B, write).
  static constexpr std::uint64_t phases_per_instruction = 4;

  Machine() = default;

  /// Executes `program` on a single input vector. The RRAM array is
  /// (re)initialized to `initial` (cells beyond the vector start at 0).
  /// Returns the declared outputs. Write counters accumulate across runs.
  [[nodiscard]] std::vector<bool> run(
      const Program& program, const std::vector<bool>& inputs,
      const std::vector<bool>& initial = {});

  /// 64-lane bit-parallel execution: each bit position is an independent
  /// run. `initial` optionally seeds the array per lane.
  [[nodiscard]] std::vector<std::uint64_t> run_words(
      const Program& program, const std::vector<std::uint64_t>& inputs,
      const std::vector<std::uint64_t>& initial = {});

  /// Executes a multi-bank schedule step by step: within a step all banks
  /// read the pre-step array state and commit their writes together.
  /// Throws std::logic_error on intra-step conflicts (two slots writing
  /// one cell, or a slot reading a cell another slot writes). A step
  /// costs `phases_per_instruction` cycles regardless of how many banks
  /// are active — that is the point of scheduling.
  ///
  /// The program's declared bus (ParallelProgram::bus_width > 0) is
  /// *enforced*: a step issuing more cross-bank copies than the declared
  /// width throws std::logic_error.
  [[nodiscard]] std::vector<bool> run_parallel(
      const sched::ParallelProgram& program, const std::vector<bool>& inputs,
      const std::vector<bool>& initial = {});

  /// 64-lane bit-parallel form of `run_parallel`.
  [[nodiscard]] std::vector<std::uint64_t> run_parallel_words(
      const sched::ParallelProgram& program,
      const std::vector<std::uint64_t>& inputs,
      const std::vector<std::uint64_t>& initial = {});

  /// Executes a multi-bank schedule *decoupled*: every bank's controller
  /// advances through its own serial instruction stream and blocks only
  /// on the program's explicit sync tokens and on the shared inter-bank
  /// bus (the program's declared width, 0 = unbounded, arbitrated in
  /// program order). Cycles are sched::decoupled_timing's: makespan =
  /// max over banks of its own finish time, and
  /// bank_busy_cycles()/bank_idle_cycles() report per-bank utilization.
  /// Throws std::logic_error when the program has cross-bank reads but
  /// no sync tokens (run sched::derive_sync first) or when its tokens
  /// fail sched::check_sync (a token that does not point forward, a
  /// hazard left uncovered) — both are also reported by
  /// ParallelProgram::validate().
  [[nodiscard]] std::vector<bool> run_decoupled(
      const sched::ParallelProgram& program, const std::vector<bool>& inputs,
      const std::vector<bool>& initial = {});

  /// 64-lane bit-parallel form of `run_decoupled`. The static timing is
  /// input-independent; callers running the same program many times
  /// (equivalence verification) can compute sched::decoupled_timing
  /// once and pass it as `timing` to skip the per-run analysis.
  [[nodiscard]] std::vector<std::uint64_t> run_decoupled_words(
      const sched::ParallelProgram& program,
      const std::vector<std::uint64_t>& inputs,
      const std::vector<std::uint64_t>& initial = {},
      const sched::DecoupledTiming* timing = nullptr);

  /// Per-cell write counts accumulated over all runs (endurance proxy).
  [[nodiscard]] const std::vector<std::uint64_t>& write_counts()
      const noexcept {
    return write_counts_;
  }
  /// Summary of the write distribution (max = worst-cell wear).
  [[nodiscard]] util::Summary endurance() const {
    return util::summarize(write_counts_);
  }

  /// Total controller cycles spent (instructions × phases for serial
  /// runs; steps × phases for lockstep parallel runs; the event-driven
  /// makespan for decoupled runs).
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  [[nodiscard]] std::uint64_t instructions_executed() const noexcept {
    return instructions_;
  }

  /// Per-bank cycles spent executing instructions / idling, accumulated
  /// over all run_parallel/run_decoupled calls. Lockstep charges every
  /// bank to the end of the program (the global clock ticks idle banks
  /// too); a decoupled bank only burns its own waits and halts after its
  /// last op — the per-bank utilization win of independent controllers.
  [[nodiscard]] const std::vector<std::uint64_t>& bank_busy_cycles()
      const noexcept {
    return bank_busy_cycles_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& bank_idle_cycles()
      const noexcept {
    return bank_idle_cycles_;
  }

  /// Clears write counters and cycle statistics.
  void reset_counters();

 private:
  void account_bank_cycles(const std::vector<std::uint64_t>& busy,
                           const std::vector<std::uint64_t>& idle);

  std::vector<std::uint64_t> write_counts_;
  std::uint64_t cycles_ = 0;
  std::uint64_t instructions_ = 0;
  std::vector<std::uint64_t> bank_busy_cycles_;
  std::vector<std::uint64_t> bank_idle_cycles_;
};

}  // namespace plim::arch
