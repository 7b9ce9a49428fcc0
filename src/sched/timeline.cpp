#include "sched/timeline.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/trace.hpp"

namespace plim::sched {

std::uint32_t trace_decoupled_timeline(const ParallelProgram& program,
                                       const DecoupledTiming& timing,
                                       const std::string& label) {
  auto& tracer = util::Tracer::global();
  if (!tracer.enabled() || timing.order.empty() ||
      timing.start_cycles.size() != timing.order.size()) {
    return 0;
  }
  constexpr auto phases = IssueClock::kPhases;
  const auto banks = program.num_banks();
  const auto pid = tracer.reserve_pid();
  tracer.name_process(pid, "plim machine: " + label + " (cycles)");
  for (std::uint32_t b = 0; b < banks; ++b) {
    tracer.name_thread(pid, b, "bank " + std::to_string(b));
  }

  // Per-bank op list in issue order; ops of one bank never overlap, so
  // each busy slice is clamped to the next issue (back-to-back pipelined
  // ops issue every phases − 1 cycles while occupying phases).
  struct OpSlice {
    std::uint64_t start;
    std::uint64_t sync_wait;
    std::uint64_t bus_wait;
  };
  std::vector<std::vector<OpSlice>> per_bank(banks);
  // (bank, pos) → start cycle, for the sync-token flow arrows.
  std::vector<std::vector<std::uint64_t>> start_of(banks);
  for (const auto& [b, pos] : timing.order) {
    if (b < banks && start_of[b].size() <= pos) {
      start_of[b].resize(std::size_t{pos} + 1, 0);
    }
  }
  for (std::size_t i = 0; i < timing.order.size(); ++i) {
    const auto [b, pos] = timing.order[i];
    if (b >= banks) {
      continue;
    }
    per_bank[b].push_back({timing.start_cycles[i], timing.sync_wait_cycles[i],
                           timing.bus_wait_cycles[i]});
    start_of[b][pos] = timing.start_cycles[i];
  }

  for (std::uint32_t b = 0; b < banks; ++b) {
    auto& ops = per_bank[b];
    std::sort(ops.begin(), ops.end(),
              [](const OpSlice& x, const OpSlice& y) { return x.start < y.start; });
    std::uint64_t last_end = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto& op = ops[i];
      const auto wait_begin = op.start - op.sync_wait - op.bus_wait;
      if (op.sync_wait > 0) {
        tracer.complete("wait-sync", "wait", pid, b,
                        static_cast<double>(wait_begin),
                        static_cast<double>(op.sync_wait));
      }
      if (op.bus_wait > 0) {
        tracer.complete("wait-bus", "wait", pid, b,
                        static_cast<double>(wait_begin + op.sync_wait),
                        static_cast<double>(op.bus_wait));
      }
      auto busy_end = op.start + phases;
      if (i + 1 < ops.size()) {
        busy_end = std::min(busy_end, ops[i + 1].start);
      }
      tracer.complete("busy", "busy", pid, b, static_cast<double>(op.start),
                      static_cast<double>(busy_end - op.start));
      last_end = std::max(last_end, op.start + phases);
    }
    if (last_end < timing.makespan_cycles) {
      tracer.complete("idle", "idle", pid, b, static_cast<double>(last_end),
                      static_cast<double>(timing.makespan_cycles - last_end));
    }
  }

  // Sync tokens as flow arrows: from the completion of the producer
  // phase the token watches (start + from_phase + 1) to the start of
  // the consumer phase it gates (start + to_phase) — phase-level tokens
  // draw mid-instruction, full-instruction tokens from write commit to
  // fetch, the arrows that make cross-bank bus transfers legible.
  const auto& sync = program.sync_edges();
  for (std::size_t i = 0; i < sync.size(); ++i) {
    const auto& e = sync[i];
    if (e.from_bank >= banks || e.to_bank >= banks ||
        e.from_pos >= start_of[e.from_bank].size() ||
        e.to_pos >= start_of[e.to_bank].size()) {
      continue;
    }
    const auto id = (std::uint64_t{pid} << 32) | i;  // unique across timelines
    tracer.flow_start("sync", pid, e.from_bank,
                      static_cast<double>(start_of[e.from_bank][e.from_pos] +
                                          e.from_phase + 1),
                      id);
    tracer.flow_finish("sync", pid, e.to_bank,
                       static_cast<double>(start_of[e.to_bank][e.to_pos] +
                                           e.to_phase),
                       id);
  }
  return pid;
}

}  // namespace plim::sched
