#include "arch/machine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sched/decoupled.hpp"
#include "sched/parallel_program.hpp"
#include "sched/timeline.hpp"

namespace plim::arch {

std::vector<std::uint64_t> Machine::run_words(
    const Program& program, const std::vector<std::uint64_t>& inputs,
    const std::vector<std::uint64_t>& initial) {
  if (inputs.size() != program.num_inputs()) {
    throw std::invalid_argument("Machine::run_words: wrong input count");
  }
  std::vector<std::uint64_t> cells(program.num_rrams(), 0);
  for (std::size_t i = 0; i < initial.size() && i < cells.size(); ++i) {
    cells[i] = initial[i];
  }
  if (write_counts_.size() < cells.size()) {
    write_counts_.resize(cells.size(), 0);
  }

  const auto read = [&](Operand op) -> std::uint64_t {
    switch (op.kind()) {
      case OperandKind::constant:
        return op.constant_value() ? ~std::uint64_t{0} : 0;
      case OperandKind::input:
        return inputs[op.address()];
      case OperandKind::rram:
        return cells[op.address()];
    }
    return 0;  // unreachable
  };

  for (const auto& ins : program.instructions()) {
    const std::uint64_t a = read(ins.a);
    const std::uint64_t b = read(ins.b);
    cells[ins.z] = rm3_words(a, b, cells[ins.z]);
    ++write_counts_[ins.z];
    ++instructions_;
    cycles_ += phases_per_instruction;
  }

  std::vector<std::uint64_t> out(program.num_outputs());
  for (std::uint32_t i = 0; i < program.num_outputs(); ++i) {
    out[i] = cells[program.output_cell(i)];
  }
  return out;
}

std::vector<bool> Machine::run(const Program& program,
                               const std::vector<bool>& inputs,
                               const std::vector<bool>& initial) {
  std::vector<std::uint64_t> in_words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    in_words[i] = inputs[i] ? ~std::uint64_t{0} : 0;
  }
  std::vector<std::uint64_t> init_words(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    init_words[i] = initial[i] ? ~std::uint64_t{0} : 0;
  }
  const auto out_words = run_words(program, in_words, init_words);
  std::vector<bool> out(out_words.size());
  for (std::size_t i = 0; i < out_words.size(); ++i) {
    out[i] = (out_words[i] & 1) != 0;
  }
  return out;
}

std::vector<std::uint64_t> Machine::run_parallel_words(
    const sched::ParallelProgram& program,
    const std::vector<std::uint64_t>& inputs,
    const std::vector<std::uint64_t>& initial) {
  if (inputs.size() != program.num_inputs()) {
    throw std::invalid_argument("Machine::run_parallel_words: wrong input count");
  }
  std::vector<std::uint64_t> cells(program.num_rrams(), 0);
  for (std::size_t i = 0; i < initial.size() && i < cells.size(); ++i) {
    cells[i] = initial[i];
  }
  if (write_counts_.size() < cells.size()) {
    write_counts_.resize(cells.size(), 0);
  }

  const auto read = [&](Operand op) -> std::uint64_t {
    switch (op.kind()) {
      case OperandKind::constant:
        return op.constant_value() ? ~std::uint64_t{0} : 0;
      case OperandKind::input:
        return inputs[op.address()];
      case OperandKind::rram:
        return cells[op.address()];
    }
    return 0;  // unreachable
  };

  // Scratch for the two-phase step execution: read everything against the
  // pre-step state, then commit all writes at once.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> writes;
  std::vector<std::uint32_t> step_written(cells.size(), 0);
  std::uint32_t step_stamp = 0;

  const auto declared_bus = program.bus_width();
  std::vector<std::uint64_t> bank_instrs(program.num_banks(), 0);
  const std::uint64_t run_cycles =
      std::uint64_t{program.num_steps()} * phases_per_instruction;

  for (std::uint32_t s = 0; s < program.num_steps(); ++s) {
    const auto& step = program.step(s);
    ++step_stamp;
    writes.clear();
    // Only count a step's copies on a bounded bus — counting them is a
    // full slot scan.
    if (declared_bus > 0) {
      const auto bus_ops = program.step_bus_ops(s);
      if (bus_ops > declared_bus) {
        throw std::logic_error(
            "Machine::run_parallel_words: step " + std::to_string(s + 1) +
            " issues " + std::to_string(bus_ops) +
            " cross-bank copies over the declared bus width " +
            std::to_string(declared_bus));
      }
    }
    for (const auto& slot : step) {
      if (step_written[slot.instr.z] == step_stamp) {
        throw std::logic_error("Machine::run_parallel_words: step " +
                               std::to_string(s + 1) +
                               " writes cell @X" +
                               std::to_string(slot.instr.z + 1) + " twice");
      }
      step_written[slot.instr.z] = step_stamp;
      const std::uint64_t a = read(slot.instr.a);
      const std::uint64_t b = read(slot.instr.b);
      writes.emplace_back(slot.instr.z,
                          rm3_words(a, b, cells[slot.instr.z]));
      if (slot.bank < program.num_banks()) {
        ++bank_instrs[slot.bank];
      }
    }
    // A slot must not read a cell another slot of this step writes; its
    // own destination is fine (RM3 reads the pre-step value of Z).
    for (const auto& slot : step) {
      for (const auto op : {slot.instr.a, slot.instr.b}) {
        if (op.is_rram() && op.address() != slot.instr.z &&
            step_written[op.address()] == step_stamp) {
          throw std::logic_error("Machine::run_parallel_words: step " +
                                 std::to_string(s + 1) + " reads cell @X" +
                                 std::to_string(op.address() + 1) +
                                 " written in the same step");
        }
      }
    }
    for (const auto& [cell, value] : writes) {
      cells[cell] = value;
      ++write_counts_[cell];
      ++instructions_;
    }
  }
  cycles_ += run_cycles;
  for (auto& count : bank_instrs) {
    count *= phases_per_instruction;  // instructions → busy cycles
  }
  std::vector<std::uint64_t> bank_idle(bank_instrs.size(), 0);
  for (std::size_t b = 0; b < bank_instrs.size(); ++b) {
    // The lockstep clock ticks every bank until the program ends.
    bank_idle[b] = run_cycles - std::min(bank_instrs[b], run_cycles);
  }
  account_bank_cycles(bank_instrs, bank_idle);

  std::vector<std::uint64_t> out(program.num_outputs());
  for (std::uint32_t i = 0; i < program.num_outputs(); ++i) {
    out[i] = cells[program.output_cell(i)];
  }
  return out;
}

std::vector<bool> Machine::run_parallel(const sched::ParallelProgram& program,
                                        const std::vector<bool>& inputs,
                                        const std::vector<bool>& initial) {
  std::vector<std::uint64_t> in_words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    in_words[i] = inputs[i] ? ~std::uint64_t{0} : 0;
  }
  std::vector<std::uint64_t> init_words(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    init_words[i] = initial[i] ? ~std::uint64_t{0} : 0;
  }
  const auto out_words = run_parallel_words(program, in_words, init_words);
  std::vector<bool> out(out_words.size());
  for (std::size_t i = 0; i < out_words.size(); ++i) {
    out[i] = (out_words[i] & 1) != 0;
  }
  return out;
}

std::vector<std::uint64_t> Machine::run_decoupled_words(
    const sched::ParallelProgram& program,
    const std::vector<std::uint64_t>& inputs,
    const std::vector<std::uint64_t>& initial,
    const sched::DecoupledTiming* precomputed) {
  if (inputs.size() != program.num_inputs()) {
    throw std::invalid_argument(
        "Machine::run_decoupled_words: wrong input count");
  }
  // Static timing first: every controller's op start time under the sync
  // tokens and the in-order bus arbiter. Throws on missing or unsound
  // sync tokens.
  sched::DecoupledTiming computed;
  if (precomputed == nullptr) {
    computed = sched::decoupled_timing(program);
    // Cycle-level per-bank timeline (no-op while tracing is disabled).
    // Only for timing computed here: callers passing a precomputed
    // timing (sched::verify re-runs the program once per round) already
    // had their one timeline emitted when that timing was derived.
    sched::trace_decoupled_timeline(program, computed, "machine run");
  }
  const auto& timing = precomputed != nullptr ? *precomputed : computed;

  std::vector<std::uint64_t> cells(program.num_rrams(), 0);
  for (std::size_t i = 0; i < initial.size() && i < cells.size(); ++i) {
    cells[i] = initial[i];
  }
  if (write_counts_.size() < cells.size()) {
    write_counts_.resize(cells.size(), 0);
  }

  const auto read = [&](Operand op) -> std::uint64_t {
    switch (op.kind()) {
      case OperandKind::constant:
        return op.constant_value() ? ~std::uint64_t{0} : 0;
      case OperandKind::input:
        return inputs[op.address()];
      case OperandKind::rram:
        return cells[op.address()];
    }
    return 0;  // unreachable
  };

  // Functional execution in start-time order: there is no step barrier —
  // every read sees the latest committed value, which the sync tokens
  // guarantee is exactly the value the lockstep schedule intended.
  // Phase-level tokens keep this sound: decoupled_timing clamps token
  // latencies at zero so a consumer never starts before its producer,
  // and its order breaks start-time ties producer-first (lockstep step,
  // then bank), so applying whole instructions in `timing.order` is
  // equivalent to the phase-interleaved hardware execution.
  const sched::StreamView view(program);
  for (const auto& [bank, pos] : timing.order) {
    const auto& ins = view.slot[view.id(bank, pos)].instr;
    const std::uint64_t a = read(ins.a);
    const std::uint64_t b = read(ins.b);
    cells[ins.z] = rm3_words(a, b, cells[ins.z]);
    ++write_counts_[ins.z];
    ++instructions_;
  }

  cycles_ += timing.makespan_cycles;
  account_bank_cycles(timing.bank_busy_cycles, timing.bank_idle_cycles);

  std::vector<std::uint64_t> out(program.num_outputs());
  for (std::uint32_t i = 0; i < program.num_outputs(); ++i) {
    out[i] = cells[program.output_cell(i)];
  }
  return out;
}

std::vector<bool> Machine::run_decoupled(const sched::ParallelProgram& program,
                                         const std::vector<bool>& inputs,
                                         const std::vector<bool>& initial) {
  std::vector<std::uint64_t> in_words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    in_words[i] = inputs[i] ? ~std::uint64_t{0} : 0;
  }
  std::vector<std::uint64_t> init_words(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    init_words[i] = initial[i] ? ~std::uint64_t{0} : 0;
  }
  const auto out_words = run_decoupled_words(program, in_words, init_words);
  std::vector<bool> out(out_words.size());
  for (std::size_t i = 0; i < out_words.size(); ++i) {
    out[i] = (out_words[i] & 1) != 0;
  }
  return out;
}

void Machine::account_bank_cycles(const std::vector<std::uint64_t>& busy,
                                  const std::vector<std::uint64_t>& idle) {
  if (bank_busy_cycles_.size() < busy.size()) {
    bank_busy_cycles_.resize(busy.size(), 0);
    bank_idle_cycles_.resize(busy.size(), 0);
  }
  for (std::size_t b = 0; b < busy.size(); ++b) {
    bank_busy_cycles_[b] += busy[b];
    bank_idle_cycles_[b] += idle[b];
  }
}

void Machine::reset_counters() {
  write_counts_.clear();
  cycles_ = 0;
  instructions_ = 0;
  bank_busy_cycles_.clear();
  bank_idle_cycles_.clear();
}

}  // namespace plim::arch
