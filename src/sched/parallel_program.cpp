#include "sched/parallel_program.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "sched/decoupled.hpp"
#include "util/stats.hpp"

namespace plim::sched {

void write_json_fields(const ScheduleStats& stats, util::JsonWriter& json) {
  json.field("banks", stats.banks);
  json.field("steps", stats.steps);
  json.field("instructions", stats.parallel_instructions);
  json.field("transfers", stats.transfers);
  json.field("duplicates", stats.duplicates);
  json.field("duplicated_instructions", stats.duplicated_instructions);
  json.field("rrams", stats.parallel_rrams);
  json.field("critical_path", stats.critical_path);
  json.field("step_lower_bound", stats.step_lower_bound);
  json.field("virtual_critical_path", stats.virtual_critical_path);
  json.field("bus_width", stats.bus_width);
  json.field("bus_stalls", stats.bus_stalls);
  json.field("execution", stats.execution == ExecutionModel::decoupled
                              ? "decoupled"
                              : "lockstep");
  json.field("sync_tokens", stats.sync_tokens);
  json.field("makespan_cycles", stats.makespan_cycles);
  json.field("lockstep_cycles", stats.lockstep_cycles);
  json.field("decoupled_cycles", stats.decoupled_cycles);
  json.field("decoupled_bus_stall_cycles", stats.decoupled_bus_stall_cycles);
  json.field("decoupled_speedup", stats.decoupled_speedup);
  json.field("makespan_lower_bound", stats.makespan_lower_bound);
  json.begin_array("bank_load");
  for (const auto load : stats.bank_load) {
    json.value(load);
  }
  json.end_array();
  json.begin_array("bank_idle_cycles");
  for (const auto idle : stats.bank_idle_cycles) {
    json.value(idle);
  }
  json.end_array();
  json.field("utilization", stats.utilization);
  json.field("speedup", stats.speedup);
  json.field("refine_passes", stats.refine_passes);
  json.field("refine_moves_tried", stats.refine_moves_tried);
  json.field("refine_moves_kept", stats.refine_moves_kept);
  json.field("refine_moves_screened", stats.refine_moves_screened);
  json.field("refine_full_evals", stats.refine_full_evals);
  json.field("refine_steps_saved", stats.refine_steps_saved);
  json.field("refine_transfers_saved",
             static_cast<double>(stats.refine_transfers_saved));
  json.field("schedule_ms", stats.schedule_ms);
  json.field("assign_ms", stats.assign_ms);
  json.field("refine_ms", stats.refine_ms);
  json.field("pack_ms", stats.pack_ms);
  json.field("alloc_ms", stats.alloc_ms);
  json.field("sync_ms", stats.sync_ms);
}

std::uint32_t ParallelProgram::add_input(std::string name) {
  input_names_.push_back(std::move(name));
  return static_cast<std::uint32_t>(input_names_.size() - 1);
}

void ParallelProgram::add_output(std::string name, std::uint32_t cell) {
  outputs_.emplace_back(std::move(name), cell);
}

void ParallelProgram::set_bank_range(std::uint32_t bank, std::uint32_t begin,
                                     std::uint32_t end) {
  if (bank_ranges_.size() <= bank) {
    bank_ranges_.resize(bank + 1, {0, 0});
  }
  bank_ranges_[bank] = {begin, end};
}

std::uint32_t ParallelProgram::begin_step() {
  steps_.emplace_back();
  return static_cast<std::uint32_t>(steps_.size() - 1);
}

void ParallelProgram::add_slot(Slot slot) {
  steps_.back().push_back(std::move(slot));
}

std::uint32_t ParallelProgram::num_rrams() const noexcept {
  std::uint32_t n = 0;
  for (const auto& [begin, end] : bank_ranges_) {
    n = std::max(n, end);
  }
  return n;
}

std::uint32_t ParallelProgram::bank_of_cell(std::uint32_t cell) const noexcept {
  for (std::uint32_t b = 0; b < bank_ranges_.size(); ++b) {
    if (cell >= bank_ranges_[b].first && cell < bank_ranges_[b].second) {
      return b;
    }
  }
  return num_banks_;
}

bool ParallelProgram::reads_remote(const Slot& slot) const noexcept {
  if (slot.bank >= bank_ranges_.size()) {
    return false;  // malformed slot; validate() reports it separately
  }
  const auto [begin, end] = bank_ranges_[slot.bank];
  for (const auto op : {slot.instr.a, slot.instr.b}) {
    if (op.is_rram() && (op.address() < begin || op.address() >= end)) {
      return true;
    }
  }
  return false;
}

std::uint32_t ParallelProgram::step_bus_ops(std::uint32_t s) const {
  return static_cast<std::uint32_t>(
      std::count_if(steps_[s].begin(), steps_[s].end(),
                    [this](const Slot& slot) { return reads_remote(slot); }));
}

std::uint32_t ParallelProgram::num_instructions() const noexcept {
  std::uint32_t n = 0;
  for (const auto& step : steps_) {
    n += static_cast<std::uint32_t>(step.size());
  }
  return n;
}

std::uint32_t ParallelProgram::num_transfer_instructions() const noexcept {
  std::uint32_t n = 0;
  for (const auto& step : steps_) {
    for (const auto& slot : step) {
      n += slot.is_transfer ? 1 : 0;
    }
  }
  return n;
}

std::string ParallelProgram::validate() const {
  if (num_banks_ == 0) {
    return "program has no banks";
  }
  if (bank_ranges_.size() != num_banks_) {
    return "missing bank range declarations";
  }
  std::uint32_t prev_end = 0;
  for (std::uint32_t b = 0; b < num_banks_; ++b) {
    const auto [begin, end] = bank_ranges_[b];
    if (begin > end) {
      return "bank " + std::to_string(b) + " has an inverted cell range";
    }
    if (begin < prev_end) {
      return "bank " + std::to_string(b) + " overlaps the previous bank";
    }
    prev_end = end;
  }
  const auto cells = num_rrams();

  for (std::uint32_t s = 0; s < steps_.size(); ++s) {
    const auto& step = steps_[s];
    const auto where = [&](const Slot& slot) {
      return "step " + std::to_string(s) + ", bank " +
             std::to_string(slot.bank);
    };
    std::set<std::uint32_t> written;
    for (std::size_t k = 0; k < step.size(); ++k) {
      const auto& slot = step[k];
      if (slot.bank >= num_banks_) {
        return where(slot) + ": no such bank";
      }
      if (k > 0 && step[k - 1].bank >= slot.bank) {
        return where(slot) + ": slots not in ascending bank order";
      }
      const auto [begin, end] = bank_ranges_[slot.bank];
      if (slot.instr.z < begin || slot.instr.z >= end) {
        return where(slot) + ": destination @X" +
               std::to_string(slot.instr.z + 1) + " outside the bank";
      }
      if (!written.insert(slot.instr.z).second) {
        return where(slot) + ": two slots write @X" +
               std::to_string(slot.instr.z + 1);
      }
      for (const auto op : {slot.instr.a, slot.instr.b}) {
        if (op.is_input() && op.address() >= num_inputs()) {
          return where(slot) + ": input operand out of range";
        }
        if (!op.is_rram()) {
          continue;
        }
        if (op.address() >= cells) {
          return where(slot) + ": operand cell out of range";
        }
        if (!slot.is_transfer &&
            (op.address() < begin || op.address() >= end)) {
          return where(slot) + ": non-transfer slot reads remote cell @X" +
                 std::to_string(op.address() + 1);
        }
      }
    }
    // No slot may read a cell another slot of the same step writes (its
    // own destination is fine: RM3 reads the pre-step value of Z).
    for (const auto& slot : step) {
      for (const auto op : {slot.instr.a, slot.instr.b}) {
        if (op.is_rram() && op.address() != slot.instr.z &&
            written.count(op.address()) != 0) {
          return where(slot) + ": reads cell @X" +
                 std::to_string(op.address() + 1) +
                 " written in the same step";
        }
      }
    }
    if (bus_width_ > 0) {
      const auto bus_ops = step_bus_ops(s);
      if (bus_ops > bus_width_) {
        return "step " + std::to_string(s) + " issues " +
               std::to_string(bus_ops) + " cross-bank copies over bus width " +
               std::to_string(bus_width_);
      }
    }
  }

  for (const auto& [name, cell] : outputs_) {
    if (cell >= cells) {
      return "output " + name + " refers to cell out of range";
    }
  }

  // Sync tokens (when present): structural sanity, forward step order
  // and hazard coverage — a token set that misses a cross-bank ordering
  // would make decoupled execution racy, a backward one could hang it.
  if (has_sync()) {
    if (const auto err = check_sync(*this); !err.empty()) {
      return err;
    }
  }
  return {};
}

}  // namespace plim::sched
