#include "sched/stream_order.hpp"

#include <algorithm>
#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

#include "sched/decoupled.hpp"

namespace plim::sched {

StreamOrderResult reorder_streams(ParallelProgram& program) {
  StreamOrderResult result;
  const auto makespan_before = decoupled_timing(program).makespan_cycles;
  result.makespan_before = makespan_before;
  result.makespan_after = makespan_before;
  const StreamView view(program);
  const auto n = view.size();
  if (n == 0 || view.banks == 0) {
    return result;
  }

  // The hazard graph as successor CSR, each edge carrying its
  // start-to-start latency: one walk counts the edges, a second fills
  // them in, so the hazards are never stored twice.
  std::vector<std::uint32_t> indeg(n, 0);
  std::vector<std::uint32_t> succ_off(n + 1, 0);
  for_each_hazard(view, program.num_rrams(), [&](const Hazard& h) {
    ++succ_off[h.from + 1];
    ++indeg[h.to];
  });
  for (std::uint32_t i = 0; i < n; ++i) {
    succ_off[i + 1] += succ_off[i];
  }
  std::vector<std::pair<std::uint32_t, std::uint64_t>> succ(succ_off[n]);
  {
    auto cursor = succ_off;
    for_each_hazard(view, program.num_rrams(), [&](const Hazard& h) {
      succ[cursor[h.from]++] = {
          h.to, IssueClock::token_latency(h.from_phase, h.to_phase)};
    });
  }

  // Critical-path height (program order is a reverse-topological walk
  // when traversed backwards): the list scheduler's priority.
  constexpr auto kPhases = IssueClock::kPhases;
  std::vector<std::uint64_t> height(n, kPhases);
  for (std::uint32_t i = n; i-- > 0;) {
    for (auto k = succ_off[i]; k < succ_off[i + 1]; ++k) {
      height[i] = std::max(height[i],
                           kPhases + succ[k].second + height[succ[k].first]);
    }
  }

  // Event-driven greedy list scheduling per bank on the IssueClock
  // decoupled_timing charges, so minimizing start times here minimizes
  // the modelled makespan: hazards gate dep_ready, banks issue at their
  // pipelined cadence, copies pass the bounded bus's arbiter in issue
  // order. Among the ops a bank could issue at its earliest feasible
  // time, the one with the greatest critical-path height goes first
  // (ties to the lower op id); across banks, the globally earliest
  // feasible issue goes first (ties to the lower bank).
  //
  // Each bank keeps two heaps: `waiting` holds released ops keyed by
  // dep_ready, `startable` the ones whose dep_ready is at or below the
  // bank's issue time, keyed by (height desc, id asc). A bank's issue
  // times strictly grow (every issue pushes its next issue past it), so
  // an op that was startable stays startable and each op crosses over
  // once.
  const auto width = program.bus_width();
  IssueClock clock(view.banks, width);
  std::vector<std::uint64_t> dep_ready(n, 0);
  using Pending = std::pair<std::uint64_t, std::uint32_t>;  // (dep_ready, id)
  std::vector<std::priority_queue<Pending, std::vector<Pending>,
                                  std::greater<>>>
      waiting(view.banks);
  const auto shorter = [&](std::uint32_t x, std::uint32_t y) {
    return height[x] < height[y] || (height[x] == height[y] && x > y);
  };
  std::vector<std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                                  decltype(shorter)>>
      startable;
  startable.reserve(view.banks);
  for (std::uint32_t b = 0; b < view.banks; ++b) {
    startable.emplace_back(shorter);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) {
      waiting[view.slot[i].bank].push({0, i});
    }
  }
  std::vector<std::uint32_t> issue_order;
  issue_order.reserve(n);
  while (issue_order.size() < n) {
    // The bank that can issue earliest. A non-empty startable heap holds
    // ops released before the bank's last issue, so its time is the
    // bank's own next issue.
    std::uint32_t best_bank = view.banks;
    std::uint64_t best_time = 0;
    for (std::uint32_t b = 0; b < view.banks; ++b) {
      auto t = clock.bank_ready(b);
      if (startable[b].empty()) {
        if (waiting[b].empty()) {
          continue;
        }
        t = std::max(t, waiting[b].top().first);
      }
      if (best_bank == view.banks || t < best_time) {
        best_bank = b;
        best_time = t;
      }
    }
    if (best_bank == view.banks) {
      // Hazard graph had a cycle — cannot happen for a program built
      // from a valid serialization; bail out rather than loop forever.
      return result;
    }
    // Tallest candidate among this bank's ops startable at best_time.
    auto& ready = startable[best_bank];
    auto& heap = waiting[best_bank];
    while (!heap.empty() && heap.top().first <= best_time) {
      ready.push(heap.top().second);
      heap.pop();
    }
    const auto pick = ready.top();
    ready.pop();
    const auto start = clock.issue(best_bank, best_time, view.remote[pick]);
    issue_order.push_back(pick);
    for (auto k = succ_off[pick]; k < succ_off[pick + 1]; ++k) {
      const auto [j, latency] = succ[k];
      dep_ready[j] = std::max(dep_ready[j], start + latency);
      if (--indeg[j] == 0) {
        waiting[view.slot[j].bank].push({dep_ready[j], j});
      }
    }
  }

  // Repack the issue order into lockstep steps — the canonical storage.
  // The issue order is topological over the hazard graph, so pushing
  // step constraints forward along hazard edges keeps every read/write
  // pair in distinct steps (what validate() demands); bus ops
  // additionally bump past steps whose declared bus width is full.
  std::vector<std::uint32_t> min_step(n, 0);
  std::vector<std::uint32_t> step_of(n, 0);
  std::vector<std::uint32_t> bank_last(view.banks, 0);
  std::vector<bool> bank_issued(view.banks, false);
  std::vector<std::uint32_t> step_bus;  // bus ops packed per step
  for (const auto i : issue_order) {
    const auto b = view.slot[i].bank;
    auto st = min_step[i];
    if (bank_issued[b]) {
      st = std::max(st, bank_last[b] + 1);
    }
    if (view.remote[i] && width > 0) {
      while (st < step_bus.size() && step_bus[st] >= width) {
        ++st;
      }
    }
    if (step_bus.size() <= st) {
      step_bus.resize(std::size_t{st} + 1, 0);
    }
    if (view.remote[i]) {
      ++step_bus[st];
    }
    step_of[i] = st;
    bank_last[b] = st;
    bank_issued[b] = true;
    for (auto k = succ_off[i]; k < succ_off[i + 1]; ++k) {
      min_step[succ[k].first] = std::max(min_step[succ[k].first], st + 1);
    }
  }

  // Rebuild and judge. Steps are compacted (bus bumping can skip step
  // indices); slots keep ascending bank order within each step.
  std::vector<std::uint32_t> by_step(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    by_step[i] = i;
  }
  std::sort(by_step.begin(), by_step.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              if (step_of[x] != step_of[y]) {
                return step_of[x] < step_of[y];
              }
              return view.slot[x].bank < view.slot[y].bank;
            });
  ParallelProgram candidate(program.num_banks());
  for (std::uint32_t b = 0; b < program.num_banks(); ++b) {
    const auto [begin, end] = program.bank_range(b);
    candidate.set_bank_range(b, begin, end);
  }
  candidate.set_bus_width(width);
  for (std::uint32_t i = 0; i < program.num_inputs(); ++i) {
    candidate.add_input(program.input_name(i));
  }
  for (std::uint32_t i = 0; i < program.num_outputs(); ++i) {
    candidate.add_output(program.output_name(i), program.output_cell(i));
  }
  bool open = false;
  std::uint32_t open_step = 0;
  for (const auto i : by_step) {
    if (!open || step_of[i] != open_step) {
      candidate.begin_step();
      open = true;
      open_step = step_of[i];
    }
    candidate.add_slot(view.slot[i]);
  }
  derive_sync(candidate);
  if (!candidate.validate().empty()) {
    return result;  // defensive: never adopt a program validate() rejects
  }
  const auto makespan_after = decoupled_timing(candidate).makespan_cycles;
  if (makespan_after >= makespan_before ||
      candidate.num_steps() > program.num_steps()) {
    return result;
  }
  result.applied = true;
  result.makespan_after = makespan_after;
  result.saved_cycles = makespan_before - makespan_after;
  program = std::move(candidate);
  return result;
}

}  // namespace plim::sched
