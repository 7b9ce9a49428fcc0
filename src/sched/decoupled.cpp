#include "sched/decoupled.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace plim::sched {

StreamView::StreamView(const ParallelProgram& program)
    : banks(program.num_banks()) {
  bank_off.assign(banks + 1, 0);
  for (std::uint32_t s = 0; s < program.num_steps(); ++s) {
    for (const auto& op : program.step(s)) {
      if (op.bank >= banks) {
        continue;  // malformed slot; validate() reports it separately
      }
      slot.push_back(op);
      step.push_back(s);
      pos.push_back(bank_off[op.bank + 1]++);
      remote.push_back(program.reads_remote(op));
    }
  }
  for (std::uint32_t b = 0; b < banks; ++b) {
    bank_off[b + 1] += bank_off[b];
  }
  by_bank.resize(size());
  for (std::uint32_t i = 0; i < size(); ++i) {
    by_bank[bank_off[slot[i].bank] + pos[i]] = i;
  }
}

void for_each_hazard(const StreamView& view, std::uint32_t cells,
                     const std::function<void(const Hazard&)>& visit) {
  constexpr auto kWritePhase = IssueClock::kWritePhase;
  const auto n = view.size();
  // Per cell: the last write so far and the reads since it.
  std::vector<std::uint32_t> last_write(cells, n);
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      reads_since(cells);  // (reader id, read phase)
  const auto read = [&](std::uint32_t i, std::uint32_t c,
                        std::uint32_t read_phase) {
    if (c >= cells) {
      return;  // out of range; validate() reports it
    }
    if (last_write[c] != n) {
      visit({last_write[c], i, kWritePhase, read_phase});  // RAW
    }
    reads_since[c].emplace_back(i, read_phase);
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto& ins = view.slot[i].instr;
    if (ins.a.is_rram()) {
      read(i, ins.a.address(), 1);
    }
    if (ins.b.is_rram()) {
      read(i, ins.b.address(), 2);
    }
    read(i, ins.z, kWritePhase);
    if (ins.z >= cells) {
      continue;
    }
    for (const auto& [r, phase] : reads_since[ins.z]) {
      if (r != i) {
        visit({r, i, phase, kWritePhase});  // WAR
      }
    }
    if (last_write[ins.z] != n) {
      visit({last_write[ins.z], i, kWritePhase, kWritePhase});  // WAW
    }
    last_write[ins.z] = i;
    reads_since[ins.z].clear();
  }
}

std::uint64_t IssueClock::issue(std::uint32_t bank, std::uint64_t ready,
                                bool copy) {
  auto start = std::max(ready, bank_ready_[bank]);
  if (copy && bus_width_ > 0) {
    start = std::max(start, last_grant_);
    if (servers_.size() == bus_width_) {
      start = std::max(start, servers_.top());
      servers_.pop();
    }
    servers_.push(start + kPhases);
    last_grant_ = start;
  }
  bank_ready_[bank] = start + kCadence;
  return start;
}

namespace {

/// The cross-bank hazards of for_each_hazard as stream-position
/// requirements, sorted, with requirements equal up to phases (e.g. one
/// op reading a remote cell through both operands) merged into the
/// strictest pair: the signal must fire after the *latest* producer
/// phase any of them watches, the wait must stall the *earliest*
/// consumer phase any of them protects. Earlier/later writes of the
/// owning chain are ordered transitively through the owner bank's own
/// stream.
std::vector<SyncEdge> required_edges(const ParallelProgram& program,
                                     const StreamView& view) {
  std::vector<SyncEdge> req;
  for_each_hazard(view, program.num_rrams(), [&](const Hazard& h) {
    const auto from_bank = view.slot[h.from].bank;
    const auto to_bank = view.slot[h.to].bank;
    if (from_bank != to_bank) {
      req.push_back({from_bank, view.pos[h.from], to_bank, view.pos[h.to],
                     h.from_phase, h.to_phase});
    }
  });
  std::sort(req.begin(), req.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < req.size();) {
    auto merged = req[i];
    auto j = i + 1;
    for (; j < req.size(); ++j) {
      const auto& e = req[j];
      if (e.from_bank != merged.from_bank || e.from_pos != merged.from_pos ||
          e.to_bank != merged.to_bank || e.to_pos != merged.to_pos) {
        break;
      }
      merged.from_phase = std::max(merged.from_phase, e.from_phase);
      merged.to_phase = std::min(merged.to_phase, e.to_phase);
    }
    req[out++] = merged;
    i = j;
  }
  req.resize(out);
  return req;
}

/// check_sync over an already built view of `program`.
std::string check_tokens(const ParallelProgram& program,
                         const StreamView& view) {
  constexpr auto kPhases = IssueClock::kPhases;
  const auto& sync = program.sync_edges();
  const auto token = [](std::size_t i) {
    return "sync token t" + std::to_string(i + 1);
  };
  for (std::size_t i = 0; i < sync.size(); ++i) {
    const auto& e = sync[i];
    if (e.from_bank >= view.banks || e.to_bank >= view.banks) {
      return token(i) + ": no such bank";
    }
    if (e.from_bank == e.to_bank) {
      return token(i) + ": connects bank " + std::to_string(e.from_bank) +
             " to itself";
    }
    if (e.from_pos >= view.len(e.from_bank)) {
      return token(i) + ": signal position " + std::to_string(e.from_pos + 1) +
             " beyond bank " + std::to_string(e.from_bank) + "'s stream";
    }
    if (e.to_pos >= view.len(e.to_bank)) {
      return token(i) + ": wait position " + std::to_string(e.to_pos + 1) +
             " beyond bank " + std::to_string(e.to_bank) + "'s stream";
    }
    if (e.from_phase >= kPhases) {
      return token(i) + ": signal phase " + std::to_string(e.from_phase) +
             " beyond the " + std::to_string(kPhases) +
             "-phase instruction cycle";
    }
    if (e.to_phase >= kPhases) {
      return token(i) + ": wait phase " + std::to_string(e.to_phase) +
             " beyond the " + std::to_string(kPhases) +
             "-phase instruction cycle";
    }
    const auto signal_step = view.step[view.id(e.from_bank, e.from_pos)];
    const auto wait_step = view.step[view.id(e.to_bank, e.to_pos)];
    if (wait_step <= signal_step) {
      return token(i) + ": waits in step " + std::to_string(wait_step + 1) +
             ", not after its signal in step " +
             std::to_string(signal_step + 1);
    }
  }

  // Coverage: every cross-bank hazard must be implied by a token between
  // the same bank pair that signals no earlier and waits no later. With
  // phase-level endpoints the comparison is lexicographic: a token at a
  // strictly later signal position (or strictly earlier wait position)
  // covers any phase — the stream's phases − 1 issue cadence dominates a
  // single instruction's phase offsets — while a position tie requires
  // the token's signal phase to be ≥ (wait phase ≤) the hazard's.
  const auto req = required_edges(program, view);
  if (req.empty()) {
    return {};
  }
  // Per ordered pair: stored ((from_pos, from_phase), (to_pos, to_phase))
  // keys sorted by the signal key with a suffix minimum over the wait
  // key, so each query is one binary search. Phases are < kPhases (
  // checked above), so packing them into the low bits keeps the packed
  // order lexicographic.
  const auto key = [](std::uint32_t pos, std::uint32_t phase) {
    return (std::uint64_t{pos} << 8) | phase;
  };
  const auto banks = std::size_t{view.banks};
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> stored(
      banks * banks);
  for (const auto& e : sync) {
    stored[e.from_bank * banks + e.to_bank].emplace_back(
        key(e.from_pos, e.from_phase), key(e.to_pos, e.to_phase));
  }
  std::vector<std::vector<std::uint64_t>> suffix_min(stored.size());
  for (std::size_t k = 0; k < stored.size(); ++k) {
    auto& list = stored[k];
    std::sort(list.begin(), list.end());
    auto& mins = suffix_min[k];
    mins.resize(list.size());
    auto running = ~std::uint64_t{0};
    for (std::size_t j = list.size(); j-- > 0;) {
      running = std::min(running, list[j].second);
      mins[j] = running;
    }
  }
  for (const auto& r : req) {
    const auto k = r.from_bank * banks + r.to_bank;
    const auto& list = stored[k];
    const auto it = std::lower_bound(
        list.begin(), list.end(),
        std::make_pair(key(r.from_pos, r.from_phase), std::uint64_t{0}));
    const auto j = static_cast<std::size_t>(it - list.begin());
    if (j >= list.size() || suffix_min[k][j] > key(r.to_pos, r.to_phase)) {
      return "missing synchronization: bank " + std::to_string(r.to_bank) +
             "'s instruction " + std::to_string(r.to_pos + 1) +
             " reads across banks but no sync token orders it after bank " +
             std::to_string(r.from_bank) + "'s instruction " +
             std::to_string(r.from_pos + 1);
    }
  }
  return {};
}

}  // namespace

void derive_sync(ParallelProgram& program) {
  auto req = required_edges(program, StreamView(program));

  // Pareto frontier per ordered bank pair: a requirement is implied by
  // one that signals at a later-or-equal position and waits at an
  // earlier-or-equal one. Sorting by (pair, from_pos desc, to_pos asc)
  // and keeping edges with a strictly new minimum to_pos leaves exactly
  // the undominated antichain — the coalesced signal/wait pairs. Phase
  // offsets fold along: a dropped requirement is always dominated by
  // the pair's most recently kept edge, and at a strictly later signal
  // (or strictly earlier wait) position the stream's phases − 1 issue
  // cadence covers any phase offset, so only position ties constrain
  // the survivor's phases (signal phase raised, wait phase lowered to
  // the strictest folded requirement).
  std::sort(req.begin(), req.end(), [](const SyncEdge& x, const SyncEdge& y) {
    if (x.from_bank != y.from_bank) {
      return x.from_bank < y.from_bank;
    }
    if (x.to_bank != y.to_bank) {
      return x.to_bank < y.to_bank;
    }
    if (x.from_pos != y.from_pos) {
      return x.from_pos > y.from_pos;
    }
    return x.to_pos < y.to_pos;
  });
  std::vector<SyncEdge> kept;
  kept.reserve(req.size());
  bool have_pair = false;
  std::uint32_t cur_from = 0;
  std::uint32_t cur_to = 0;
  std::uint32_t min_to = 0;
  for (const auto& e : req) {
    if (!have_pair || e.from_bank != cur_from || e.to_bank != cur_to) {
      have_pair = true;
      cur_from = e.from_bank;
      cur_to = e.to_bank;
      min_to = e.to_pos + 1;  // first edge of the pair always survives
    }
    if (e.to_pos < min_to) {
      min_to = e.to_pos;
      kept.push_back(e);
    } else {
      // Dominated position-wise by the last kept edge of this pair
      // (its from_pos is ≥ ours in the descending sweep, its to_pos is
      // the pair's running minimum). Tighten the survivor's phases
      // where the positions tie so it still implies this requirement.
      auto& k = kept.back();
      if (k.from_pos == e.from_pos) {
        k.from_phase = std::max(k.from_phase, e.from_phase);
      }
      if (k.to_pos == e.to_pos) {
        k.to_phase = std::min(k.to_phase, e.to_phase);
      }
    }
  }
  std::sort(kept.begin(), kept.end());

  program.clear_sync();
  for (const auto& e : kept) {
    program.add_sync(e);
  }
}

std::string check_sync(const ParallelProgram& program) {
  return check_tokens(program, StreamView(program));
}

DecoupledTiming decoupled_timing(const ParallelProgram& program) {
  constexpr auto kPhases = IssueClock::kPhases;
  const StreamView view(program);
  const auto n = view.size();
  DecoupledTiming t;
  t.bank_busy_cycles.assign(view.banks, 0);
  t.bank_idle_cycles.assign(view.banks, 0);
  t.bank_finish_cycles.assign(view.banks, 0);
  if (n == 0) {
    return t;
  }

  const auto& sync = program.sync_edges();
  const auto bus_ops = static_cast<std::uint64_t>(
      std::count(view.remote.begin(), view.remote.end(), true));
  if (sync.empty()) {
    if (bus_ops > 0) {
      throw std::logic_error(
          "decoupled execution: program has cross-bank reads but no sync "
          "tokens; run sched::derive_sync first");
    }
  } else if (const auto err = check_tokens(program, view); !err.empty()) {
    // Runtime parity with the lockstep machine's inline conflict checks:
    // a token set that misses a hazard would make the execution racy
    // (the functional simulator follows these start times), and one
    // that does not point forward would break the sweep below.
    throw std::logic_error("decoupled execution: " + err);
  }

  // Tokens in the order the sweep reaches their waits.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> waits;  // (op, token)
  waits.reserve(sync.size());
  for (std::uint32_t k = 0; k < sync.size(); ++k) {
    waits.emplace_back(view.id(sync[k].to_bank, sync[k].to_pos), k);
  }
  std::sort(waits.begin(), waits.end());

  // Program order is topological for streams (step order), tokens
  // (forward) and the arbiter (its grant order), so one sweep times
  // every op. The relaxed clock is the contention-free twin: one server
  // per copy keeps the bounded bus's in-order grants but never makes a
  // copy wait for a server, so its span is an honest makespan lower
  // bound.
  const auto width = program.bus_width();
  IssueClock clock(view.banks, width);
  IssueClock relaxed(view.banks,
                     width > 0 ? static_cast<std::uint32_t>(bus_ops) : 0);
  std::vector<std::uint64_t> start(n);
  std::vector<std::uint64_t> start_lb(n);
  std::vector<std::uint64_t> stream_ready(n);
  std::vector<std::uint64_t> dep_ready(n);
  std::uint64_t lb_span = 0;
  auto w = waits.begin();
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto b = view.slot[i].bank;
    auto ready = clock.bank_ready(b);
    auto ready_lb = relaxed.bank_ready(b);
    stream_ready[i] = ready;
    for (; w != waits.end() && w->first == i; ++w) {
      const auto& e = sync[w->second];
      const auto from = view.id(e.from_bank, e.from_pos);
      const auto latency = IssueClock::token_latency(e.from_phase, e.to_phase);
      ready = std::max(ready, start[from] + latency);
      ready_lb = std::max(ready_lb, start_lb[from] + latency);
    }
    dep_ready[i] = ready;
    start[i] = clock.issue(b, ready, view.remote[i]);
    start_lb[i] = relaxed.issue(b, ready_lb, view.remote[i]);
    t.bus_stall_cycles += start[i] - ready;
    lb_span = std::max(lb_span, start_lb[i] + kPhases);
    t.bank_finish_cycles[b] =
        std::max(t.bank_finish_cycles[b], start[i] + kPhases);
  }

  for (std::uint32_t b = 0; b < view.banks; ++b) {
    // Busy = the dense pipelined span of the bank's own stream (its
    // controller halts after the last op, it does not tick until the
    // global makespan); idle = the wait cycles actually burned between
    // issue opportunities.
    t.bank_busy_cycles[b] = IssueClock::stream_span(view.len(b));
    t.bank_idle_cycles[b] = t.bank_finish_cycles[b] - t.bank_busy_cycles[b];
    t.makespan_cycles = std::max(t.makespan_cycles, t.bank_finish_cycles[b]);
  }

  // Aggregate bus-throughput floor: every bus op occupies one of the
  // `width` servers for `phases` cycles, all inside the makespan.
  t.makespan_lower_bound = lb_span;
  if (width > 0) {
    t.makespan_lower_bound = std::max(t.makespan_lower_bound,
                                      (bus_ops * kPhases + width - 1) / width);
  }

  // Functional execution order: start time, ties producer-first in
  // program order. Every data hazard is respected: a hazard's producer
  // and consumer sit in different lockstep steps (same-step read/write
  // is a validation error), and its covering token forces consumer
  // start ≥ producer start (clamped non-negative latencies; a token at
  // a later signal position adds the stream cadence on top). That is
  // what lets a phase-level consumer *launch* before its producer
  // retires while the simulator still applies whole ops in a
  // hazard-respecting order.
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return start[x] < start[y];
                   });
  t.order.reserve(n);
  t.start_cycles.reserve(n);
  t.sync_wait_cycles.reserve(n);
  t.bus_wait_cycles.reserve(n);
  for (const auto i : order) {
    t.order.emplace_back(view.slot[i].bank, view.pos[i]);
    t.start_cycles.push_back(start[i]);
    // The wait before issue splits at dep_ready: up to there the op was
    // held by sync tokens (readiness beyond its own stream's pipelining),
    // past there by the bus (arbiter order + server contention).
    t.sync_wait_cycles.push_back(dep_ready[i] - stream_ready[i]);
    t.bus_wait_cycles.push_back(start[i] - dep_ready[i]);
  }
  return t;
}

}  // namespace plim::sched
