#include "sched/stream_order.hpp"

#include <algorithm>
#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

#include "arch/machine.hpp"
#include "sched/decoupled.hpp"

namespace plim::sched {

namespace {

constexpr std::uint32_t kPhases = arch::Machine::phases_per_instruction;
constexpr std::uint32_t kWritePhase = kPhases - 1;

/// The program's ops flattened in lockstep program order (step, then
/// bank within the step), with per-bank stream membership.
struct Ops {
  std::uint32_t banks = 0;
  std::uint32_t total = 0;
  std::vector<Slot> slot;              ///< by flat id, program order
  std::vector<std::uint32_t> bank_of;  ///< by flat id
};

Ops flatten_ops(const ParallelProgram& p) {
  Ops ops;
  ops.banks = p.num_banks();
  for (std::uint32_t s = 0; s < p.num_steps(); ++s) {
    for (const auto& slot : p.step(s)) {
      if (slot.bank >= ops.banks) {
        continue;  // malformed slot; validate() reports it separately
      }
      ops.slot.push_back(slot);
      ops.bank_of.push_back(slot.bank);
    }
  }
  ops.total = static_cast<std::uint32_t>(ops.slot.size());
  return ops;
}

bool reads_remote_cell(const ParallelProgram& p, const Slot& slot) {
  const auto [begin, end] = p.bank_range(slot.bank);
  for (const auto op : {slot.instr.a, slot.instr.b}) {
    if (op.is_rram() && (op.address() < begin || op.address() >= end)) {
      return true;
    }
  }
  return false;
}

struct HazardEdge {
  std::uint32_t from;
  std::uint32_t to;
  std::uint32_t latency;  ///< start-to-start cycles, phase-accurate
};

/// Op-level hazard graph over physical cells, built from the program
/// order (a valid serialization, so "last write" / "reads since the
/// last write" are well defined). Every RM3 op reads its destination
/// cell too (Z enters the majority), consumed in the write phase.
/// Latencies follow the phase-level sync contract: a dependent phase
/// begins the cycle after the phase it watches completes, clamped at
/// zero (start-to-start: max(0, from_phase + 1 − to_phase)).
std::vector<HazardEdge> hazard_edges(const Ops& ops, std::uint32_t cells) {
  std::vector<HazardEdge> edges;
  edges.reserve(std::size_t{ops.total} * 3);
  // Per cell: the last write so far and the reads since it.
  std::vector<std::uint32_t> last_write(cells, ops.total);
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      reads_since(cells);  // (reader id, read phase)
  const auto read = [&](std::uint32_t gid, std::uint32_t c,
                        std::uint32_t read_phase) {
    if (c >= cells) {
      return;
    }
    if (last_write[c] != ops.total && last_write[c] != gid) {
      // RAW: the read phase starts after the producer's write commits.
      edges.push_back({last_write[c], gid, kWritePhase + 1 - read_phase});
    }
    reads_since[c].emplace_back(gid, read_phase);
  };
  for (std::uint32_t gid = 0; gid < ops.total; ++gid) {
    const auto& ins = ops.slot[gid].instr;
    if (ins.a.is_rram()) {
      read(gid, ins.a.address(), 1);
    }
    if (ins.b.is_rram()) {
      read(gid, ins.b.address(), 2);
    }
    read(gid, ins.z, kWritePhase);  // Z joins the majority in the write phase
    if (ins.z < cells) {
      for (const auto& [r, phase] : reads_since[ins.z]) {
        if (r != gid) {
          // WAR: the overwrite commits after the read's phase completes.
          edges.push_back(
              {r, gid, phase + 1 > kWritePhase ? phase + 1 - kWritePhase : 0});
        }
      }
      if (last_write[ins.z] != ops.total && last_write[ins.z] != gid) {
        edges.push_back({last_write[ins.z], gid, 1});  // WAW: write order
      }
      last_write[ins.z] = gid;
      reads_since[ins.z].clear();
    }
  }
  return edges;
}

}  // namespace

StreamOrderResult reorder_streams(ParallelProgram& program,
                                  std::uint32_t bus_width,
                                  std::uint64_t phases_per_instruction) {
  StreamOrderResult result;
  const auto phases = phases_per_instruction;
  const auto before = decoupled_timing(program, bus_width, phases);
  result.makespan_before = before.makespan_cycles;
  result.makespan_after = before.makespan_cycles;
  const auto ops = flatten_ops(program);
  if (ops.total == 0 || ops.banks == 0 || phases == 0) {
    return result;
  }

  const auto edges = hazard_edges(ops, program.num_rrams());
  std::vector<std::uint32_t> indeg(ops.total, 0);
  std::vector<std::uint32_t> succ_off(ops.total + 1, 0);
  for (const auto& e : edges) {
    ++succ_off[e.from + 1];
    ++indeg[e.to];
  }
  for (std::uint32_t i = 0; i < ops.total; ++i) {
    succ_off[i + 1] += succ_off[i];
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> succ(edges.size());
  {
    auto cursor = succ_off;
    for (const auto& e : edges) {
      succ[cursor[e.from]++] = {e.to, e.latency};
    }
  }

  // Critical-path height (program order is a reverse-topological walk
  // when traversed backwards): the list scheduler's priority.
  std::vector<std::uint64_t> height(ops.total, phases);
  for (std::uint32_t i = ops.total; i-- > 0;) {
    for (auto k = succ_off[i]; k < succ_off[i + 1]; ++k) {
      height[i] = std::max(height[i], phases + succ[k].second + height[succ[k].first]);
    }
  }

  std::vector<bool> uses_bus(ops.total, false);
  for (std::uint32_t i = 0; i < ops.total; ++i) {
    uses_bus[i] = reads_remote_cell(program, ops.slot[i]);
  }

  // Event-driven greedy list scheduling per bank: every bank issues at
  // its pipelined cadence (phases − 1), hazards gate dep_ready, bus ops
  // additionally queue behind the in-order arbiter chain and a
  // bus_width-wide server pool — the same cost model decoupled_timing
  // charges, so minimizing start times here minimizes the modelled
  // makespan. Among the ops a bank could issue at its earliest feasible
  // time, the one with the greatest critical-path height goes first;
  // across banks, the globally earliest feasible issue goes first (ties
  // to the taller candidate, then the lower flat id for determinism).
  //
  // Each bank keeps two heaps: `waiting` holds released ops keyed by
  // dep_ready, `startable` the ones whose dep_ready is at or below the
  // bank's issue time, keyed by (height desc, id asc). A bank's issue
  // times strictly grow (every issue pushes bank_free past it), so an op
  // that was startable stays startable and each op crosses over once.
  const auto stream_latency = phases > 1 ? phases - 1 : phases;
  std::vector<std::uint64_t> dep_ready(ops.total, 0);
  std::vector<std::uint64_t> bank_free(ops.banks, 0);
  using Pending = std::pair<std::uint64_t, std::uint32_t>;  // (dep_ready, id)
  std::vector<std::priority_queue<Pending, std::vector<Pending>,
                                  std::greater<>>>
      waiting(ops.banks);
  const auto shorter = [&](std::uint32_t x, std::uint32_t y) {
    return height[x] < height[y] || (height[x] == height[y] && x > y);
  };
  std::vector<std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                                  decltype(shorter)>>
      startable;
  startable.reserve(ops.banks);
  for (std::uint32_t b = 0; b < ops.banks; ++b) {
    startable.emplace_back(shorter);
  }
  for (std::uint32_t i = 0; i < ops.total; ++i) {
    if (indeg[i] == 0) {
      waiting[ops.bank_of[i]].push({0, i});
    }
  }
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      servers;
  for (std::uint32_t k = 0; k < bus_width; ++k) {
    servers.push(0);
  }
  std::uint64_t last_bus_start = 0;
  std::vector<std::uint32_t> issue_order;
  issue_order.reserve(ops.total);
  while (issue_order.size() < ops.total) {
    // The bank that can issue earliest. A non-empty startable heap holds
    // ops released before the bank's last issue, so its time is
    // bank_free.
    std::uint32_t best_bank = ops.banks;
    std::uint64_t best_time = 0;
    for (std::uint32_t b = 0; b < ops.banks; ++b) {
      std::uint64_t t = bank_free[b];
      if (startable[b].empty()) {
        if (waiting[b].empty()) {
          continue;
        }
        t = std::max(t, waiting[b].top().first);
      }
      if (best_bank == ops.banks || t < best_time) {
        best_bank = b;
        best_time = t;
      }
    }
    if (best_bank == ops.banks) {
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
    auto start = best_time;
    if (uses_bus[pick]) {
      start = std::max(start, last_bus_start);  // in-order grant chain
      if (bus_width > 0) {
        const auto server = servers.top();
        servers.pop();
        start = std::max(start, server);
        servers.push(start + phases);
      }
      last_bus_start = start;
    }
    bank_free[best_bank] = start + stream_latency;
    issue_order.push_back(pick);
    for (auto k = succ_off[pick]; k < succ_off[pick + 1]; ++k) {
      const auto [j, latency] = succ[k];
      dep_ready[j] = std::max(dep_ready[j], start + latency);
      if (--indeg[j] == 0) {
        waiting[ops.bank_of[j]].push({dep_ready[j], j});
      }
    }
  }

  // Repack the issue order into lockstep steps — the canonical storage.
  // The issue order is topological over the hazard graph, so pushing
  // step constraints forward along hazard edges keeps every read/write
  // pair in distinct steps (what validate() demands); bus ops
  // additionally bump past steps whose declared bus width is full.
  const auto pack_width = program.bus_width();
  std::vector<std::uint32_t> min_step(ops.total, 0);
  std::vector<std::uint32_t> step_of(ops.total, 0);
  std::vector<std::uint32_t> bank_last(ops.banks, 0);
  std::vector<bool> bank_issued(ops.banks, false);
  std::vector<std::uint32_t> step_bus;  // bus ops packed per step
  for (const auto i : issue_order) {
    const auto b = ops.bank_of[i];
    auto st = min_step[i];
    if (bank_issued[b]) {
      st = std::max(st, bank_last[b] + 1);
    }
    if (uses_bus[i] && pack_width > 0) {
      while (st < step_bus.size() && step_bus[st] >= pack_width) {
        ++st;
      }
    }
    if (step_bus.size() <= st) {
      step_bus.resize(std::size_t{st} + 1, 0);
    }
    if (uses_bus[i]) {
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
  std::vector<std::uint32_t> by_step(ops.total);
  for (std::uint32_t i = 0; i < ops.total; ++i) {
    by_step[i] = i;
  }
  std::sort(by_step.begin(), by_step.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              if (step_of[x] != step_of[y]) {
                return step_of[x] < step_of[y];
              }
              return ops.bank_of[x] < ops.bank_of[y];
            });
  ParallelProgram candidate(program.num_banks());
  for (std::uint32_t b = 0; b < program.num_banks(); ++b) {
    const auto [begin, end] = program.bank_range(b);
    candidate.set_bank_range(b, begin, end);
  }
  candidate.set_bus_width(program.bus_width());
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
    candidate.add_slot(ops.slot[i]);
  }
  derive_sync(candidate);
  if (!candidate.validate().empty()) {
    return result;  // defensive: never adopt a program validate() rejects
  }
  const auto after = decoupled_timing(candidate, bus_width, phases);
  if (after.makespan_cycles >= before.makespan_cycles ||
      candidate.num_steps() > program.num_steps()) {
    return result;
  }
  result.applied = true;
  result.makespan_after = after.makespan_cycles;
  result.saved_cycles = before.makespan_cycles - after.makespan_cycles;
  program = std::move(candidate);
  return result;
}

}  // namespace plim::sched
