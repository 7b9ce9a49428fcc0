#include "sched/refine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sched/cost_model.hpp"
#include "sched/incremental.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace plim::sched {

namespace {

constexpr std::uint32_t npos = DependenceGraph::npos;

/// One candidate relocation: move every segment of `cluster` — or, when
/// `seg` is set, just that segment (a finer spread move that can peel a
/// critical reader out of its own chain's cluster) — to `bank`.
struct Move {
  std::uint32_t cluster;  ///< dense cluster index
  std::uint32_t bank;
  std::uint32_t seg = npos;  ///< npos = whole cluster
};

/// A group of moves judged with one trial evaluation, tagged with its
/// stream's provenance: `screened` streams are load/transfer-visible
/// (the incremental estimate prices them well), the rest are
/// chain-shaped and go straight to exact evaluation.
struct Group {
  std::vector<Move> moves;
  bool screened = false;
};

/// Static, assignment-independent view of the cluster structure:
/// cluster membership, per-cluster sizes, and per-cluster rows over the
/// dependence graph's read graph.
struct Structure {
  std::vector<std::uint32_t> cluster_idx;  ///< segment → dense cluster index
  // Cluster membership (CSR over dense cluster indices).
  std::vector<std::uint32_t> member_off;
  std::vector<std::uint32_t> member_seg;
  std::vector<std::uint32_t> cluster_size;  ///< instructions per cluster
  // Read defs each cluster reads (once per cluster) / produces (CSR over
  // clusters).
  std::vector<std::uint32_t> reads_off;
  std::vector<std::uint32_t> reads_def;
  std::vector<std::uint32_t> produced_off;
  std::vector<std::uint32_t> produced_def;

  [[nodiscard]] std::uint32_t num_clusters() const {
    return static_cast<std::uint32_t>(member_off.size() - 1);
  }
};

Structure build_structure(const DependenceGraph& graph,
                          const std::vector<std::uint32_t>& cluster_of) {
  Structure st;
  const auto num_segments = graph.num_segments();

  // Dense cluster indices (cluster_of values are root segment ids).
  std::vector<std::uint32_t> idx_of_root(num_segments, npos);
  st.cluster_idx.resize(num_segments);
  std::uint32_t num_clusters = 0;
  for (std::uint32_t s = 0; s < num_segments; ++s) {
    const auto root = cluster_of[s];
    if (idx_of_root[root] == npos) {
      idx_of_root[root] = num_clusters++;
    }
    st.cluster_idx[s] = idx_of_root[root];
  }

  // Membership CSR.
  st.member_off.assign(num_clusters + 1, 0);
  for (std::uint32_t s = 0; s < num_segments; ++s) {
    ++st.member_off[st.cluster_idx[s] + 1];
  }
  for (std::uint32_t c = 0; c < num_clusters; ++c) {
    st.member_off[c + 1] += st.member_off[c];
  }
  st.member_seg.resize(num_segments);
  {
    auto cursor = st.member_off;
    for (std::uint32_t s = 0; s < num_segments; ++s) {
      st.member_seg[cursor[st.cluster_idx[s]]++] = s;
    }
  }

  // Sizes and read-graph rows, gathered over each cluster's members.
  st.cluster_size.assign(num_clusters, 0);
  std::vector<std::uint32_t> last_reader(graph.num_read_defs(), npos);
  st.reads_off.push_back(0);
  st.produced_off.push_back(0);
  for (std::uint32_t c = 0; c < num_clusters; ++c) {
    for (auto k = st.member_off[c]; k < st.member_off[c + 1]; ++k) {
      const auto s = st.member_seg[k];
      st.cluster_size[c] += graph.segment_size(s);
      for (const auto d : graph.defs_read_by(s)) {
        if (last_reader[d] != c) {
          last_reader[d] = c;
          st.reads_def.push_back(d);
        }
      }
      const auto produced = graph.defs_produced_by(s);
      st.produced_def.insert(st.produced_def.end(), produced.begin(),
                             produced.end());
    }
    st.reads_off.push_back(static_cast<std::uint32_t>(st.reads_def.size()));
    st.produced_off.push_back(
        static_cast<std::uint32_t>(st.produced_def.size()));
  }
  return st;
}

/// Estimated transfers read def `d` causes: distinct reader banks other
/// than the producer's bank (the scheduler caches one copy per consuming
/// bank). `mov` != npos pretends cluster `mov` sits in bank `mov_bank`.
std::uint32_t def_transfers(const DependenceGraph& graph, const Structure& st,
                            const std::vector<std::uint32_t>& seg_bank,
                            std::uint32_t d, std::uint32_t mov,
                            std::uint32_t mov_bank,
                            std::vector<std::uint32_t>& scratch) {
  const auto bank_of = [&](std::uint32_t s) {
    return st.cluster_idx[s] == mov ? mov_bank : seg_bank[s];
  };
  const auto pb = bank_of(graph.producer_segment(d));
  scratch.clear();
  for (const auto rs : graph.reader_segments(d)) {
    const auto b = bank_of(rs);
    if (b != pb &&
        std::find(scratch.begin(), scratch.end(), b) == scratch.end()) {
      scratch.push_back(b);
    }
  }
  return static_cast<std::uint32_t>(scratch.size());
}

/// Surrogate transfers of the defs cluster `c` reads or produces — the
/// only ones a move of `c` can change — with `c` in bank `q`, or where
/// it is when `q` is npos.
std::int64_t cluster_transfers(const DependenceGraph& graph,
                               const Structure& st,
                               const std::vector<std::uint32_t>& seg_bank,
                               std::uint32_t c, std::uint32_t q,
                               std::vector<std::uint32_t>& scratch) {
  const auto mov = q == npos ? npos : c;
  std::int64_t transfers = 0;
  for (auto k = st.reads_off[c]; k < st.reads_off[c + 1]; ++k) {
    transfers += def_transfers(graph, st, seg_bank, st.reads_def[k], mov, q,
                               scratch);
  }
  for (auto k = st.produced_off[c]; k < st.produced_off[c + 1]; ++k) {
    transfers += def_transfers(graph, st, seg_bank, st.produced_def[k], mov,
                               q, scratch);
  }
  return transfers;
}

}  // namespace

RefineStats refine(const DependenceGraph& graph,
                   std::vector<std::uint32_t>& seg_bank,
                   const std::vector<std::uint32_t>& cluster_of,
                   std::uint32_t banks, const RefineOptions& options,
                   const RefineEvaluator& evaluate, RefineWork& work,
                   RefineEval* incumbent) {
  RefineStats stats;
  const auto passes = options.passes;
  if (banks <= 1 || passes == 0 || graph.num_segments() == 0) {
    return stats;
  }
  const auto st = build_structure(graph, cluster_of);
  const auto num_clusters = st.num_clusters();
  if (num_clusters <= 1) {
    return stats;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto tried_before = work.moves_tried;

  // Per-bank instruction loads (throughput-bound surrogate) and, per
  // cluster, the per-member load split by bank.
  std::vector<std::uint64_t> bank_load(banks, 0);
  for (std::uint32_t s = 0; s < graph.num_segments(); ++s) {
    bank_load[seg_bank[s]] += graph.segment_size(s);
  }
  const auto cluster_bank_load = [&](std::uint32_t c) {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> loads;
    for (auto k = st.member_off[c]; k < st.member_off[c + 1]; ++k) {
      const auto s = st.member_seg[k];
      const auto b = seg_bank[s];
      auto it = std::find_if(loads.begin(), loads.end(),
                             [&](const auto& e) { return e.first == b; });
      if (it == loads.end()) {
        loads.emplace_back(b, graph.segment_size(s));
      } else {
        it->second += graph.segment_size(s);
      }
    }
    return loads;
  };

  // Peak-load change of moving cluster `c` (bank split `from`) to `q`.
  const auto peak_delta = [&](std::uint32_t c, std::uint32_t q,
                              const auto& from) {
    std::uint64_t peak_before = 0;
    std::uint64_t peak_after = 0;
    for (std::uint32_t b = 0; b < banks; ++b) {
      auto load = bank_load[b];
      peak_before = std::max(peak_before, load);
      for (const auto& [fb, fl] : from) {
        if (fb == b) {
          load -= fl;
        }
      }
      if (b == q) {
        load += st.cluster_size[c];
      }
      peak_after = std::max(peak_after, load);
    }
    return static_cast<std::int64_t>(peak_before) -
           static_cast<std::int64_t>(peak_after);
  };

  RefineEval best = incumbent != nullptr ? std::move(*incumbent)
                                         : evaluate(seg_bank, nullptr);
  stats.steps_before = best.steps;
  stats.transfers_before = best.transfers;

  // The incremental screen, anchored on the exact starting evaluation
  // and re-anchored on every kept move.
  IncrementalEval inc(graph, banks);
  inc.anchor(seg_bank, best);

  std::vector<std::uint32_t> scratch;
  scratch.reserve(banks);
  // Exact re-schedules per pass: most of them confirm moves the screen
  // already liked.
  const std::uint32_t full_budget = 6 + banks;
  // Screened estimates are ~3 orders of magnitude cheaper than an exact
  // re-schedule, so far more candidates are priced.
  const std::uint32_t trial_budget = 48 * full_budget;

  const auto move_seg = [&](std::uint32_t s, std::uint32_t q) {
    bank_load[seg_bank[s]] -= graph.segment_size(s);
    seg_bank[s] = q;
    bank_load[q] += graph.segment_size(s);
  };
  const auto apply_move = [&](const Move& m,
                              std::vector<std::uint32_t>& undo) {
    undo.clear();
    if (m.seg != npos) {
      undo.push_back(seg_bank[m.seg]);
      move_seg(m.seg, m.bank);
      return;
    }
    for (auto k = st.member_off[m.cluster]; k < st.member_off[m.cluster + 1];
         ++k) {
      undo.push_back(seg_bank[st.member_seg[k]]);
      move_seg(st.member_seg[k], m.bank);
    }
  };
  const auto revert_move = [&](const Move& m,
                               const std::vector<std::uint32_t>& undo) {
    if (m.seg != npos) {
      move_seg(m.seg, undo[0]);
      return;
    }
    std::uint32_t u = 0;
    for (auto k = st.member_off[m.cluster]; k < st.member_off[m.cluster + 1];
         ++k) {
      move_seg(st.member_seg[k], undo[u++]);
    }
  };
  // Lexicographic objective. Steps mode: (steps, transfers) — steps
  // never increase; transfers may only rise when steps strictly fall (a
  // spread move trades one extra copy for a shorter chain). Makespan
  // mode leads with the projected decoupled makespan and keeps steps as
  // the first tie-break, so the lockstep view never regresses without
  // an event-driven win to show for it.
  const auto improves = [&](const RefineEval& r) {
    if (options.makespan_objective && r.makespan != best.makespan) {
      return r.makespan < best.makespan;
    }
    return r.steps < best.steps ||
           (r.steps == best.steps && r.transfers < best.transfers);
  };
  const auto fully_in = [&](std::uint32_t c, std::uint32_t q) {
    for (auto k = st.member_off[c]; k < st.member_off[c + 1]; ++k) {
      if (seg_bank[st.member_seg[k]] != q) {
        return false;
      }
    }
    return true;
  };
  // Swap partner: the cluster homed in `q` closest in size to `c` (pure
  // load exchanges a one-way move cannot express).
  const auto swap_partner = [&](std::uint32_t c, std::uint32_t q) {
    auto partner = npos;
    std::uint64_t best_gap = ~std::uint64_t{0};
    for (std::uint32_t d = 0; d < num_clusters; ++d) {
      if (d == c || !fully_in(d, q)) {
        continue;
      }
      const auto gap =
          st.cluster_size[d] > st.cluster_size[c]
              ? std::uint64_t{st.cluster_size[d] - st.cluster_size[c]}
              : std::uint64_t{st.cluster_size[c] - st.cluster_size[d]};
      if (gap < best_gap) {
        best_gap = gap;
        partner = d;
      }
    }
    return partner;
  };

  // Moves rejected (by screen or exact evaluation), remembered across
  // passes: the candidate generators are deterministic, so without this
  // a pass that keeps nothing would regenerate and retry the exact same
  // rejected list forever instead of exploring further down the gain
  // order. Hash sets — refinement tries thousands of moves.
  std::unordered_set<std::uint64_t> rejected;
  const auto move_key = [](const Move& m) {
    const auto hi = m.seg != npos ? (std::uint64_t{m.seg} | 0x80000000u)
                                  : std::uint64_t{m.cluster};
    return (hi << 32) | m.bank;
  };
  // A rejected batch regenerates identically while the assignment is
  // unchanged — remember it so convergence is detected.
  std::vector<Move> rejected_batch;
  const auto same_moves = [](const std::vector<Move>& x,
                             const std::vector<Move>& y) {
    if (x.size() != y.size()) {
      return false;
    }
    for (std::size_t k = 0; k < x.size(); ++k) {
      if (x[k].cluster != y[k].cluster || x[k].bank != y[k].bank ||
          x[k].seg != y[k].seg) {
        return false;
      }
    }
    return true;
  };

  auto& registry = util::MetricsRegistry::global();
  // Registers a trial's outcome: accept/reject tallies plus a gain
  // histogram over the step/transfer improvement kept moves bought.
  // Screened (estimate-only) and exact trials tally identically; the
  // screened counter records how many never cost an exact re-schedule.
  const auto record_trial = [&](std::uint32_t steps0, std::uint32_t xfer0,
                                std::uint32_t steps1, std::uint32_t xfer1,
                                bool kept, bool screened_only) {
    if (!registry.enabled()) {
      return;
    }
    registry.counter_add("refine.moves_tried");
    if (screened_only) {
      registry.counter_add("refine.moves_screened");
    }
    if (!kept) {
      registry.counter_add("refine.moves_rejected");
      return;
    }
    registry.counter_add("refine.moves_kept");
    registry.observe("refine.gain_steps", static_cast<double>(steps0) -
                                              static_cast<double>(steps1));
    registry.observe("refine.gain_transfers", static_cast<double>(xfer0) -
                                                  static_cast<double>(xfer1));
  };

  // Per-pass budget counters (reset each pass; lambdas below close over
  // them).
  std::uint32_t tried = 0;
  std::uint32_t full_used = 0;

  std::vector<std::vector<std::uint32_t>> undos;
  std::vector<IncrementalEval::MovedSeg> moved;
  const auto collect_moved = [&](const Move& m) {
    if (m.seg != npos) {
      if (seg_bank[m.seg] != m.bank) {
        moved.emplace_back(m.seg, seg_bank[m.seg]);
      }
      return;
    }
    for (auto k = st.member_off[m.cluster]; k < st.member_off[m.cluster + 1];
         ++k) {
      const auto s = st.member_seg[k];
      if (seg_bank[s] != m.bank) {
        moved.emplace_back(s, seg_bank[s]);
      }
    }
  };
  const auto apply_group = [&](const std::vector<Move>& g) {
    undos.clear();
    moved.clear();
    for (const auto& m : g) {
      collect_moved(m);
      undos.emplace_back();
      apply_move(m, undos.back());
    }
  };
  const auto revert_group = [&](const std::vector<Move>& g) {
    for (std::size_t k = g.size(); k-- > 0;) {
      revert_move(g[k], undos[k]);
    }
  };

  // Prices one group; returns whether it was kept. Screened groups are
  // estimate-priced first and only promising ones earn an exact
  // re-schedule.
  const auto try_group = [&](const std::vector<Move>& g,
                             bool screened) -> bool {
    apply_group(g);
    ++tried;
    ++work.moves_tried;
    if (screened) {
      const auto est = inc.estimate(seg_bank, moved);
      const bool promising =
          est.steps < best.steps ||
          (est.steps == best.steps && est.transfers < best.transfers);
      if (!promising) {
        ++work.moves_screened;
        record_trial(best.steps, best.transfers, est.steps, est.transfers,
                     false, true);
        revert_group(g);
        return false;
      }
    }
    auto r = evaluate(seg_bank, &best);
    ++full_used;
    ++work.full_evals;
    if (improves(r)) {
      record_trial(best.steps, best.transfers, r.steps, r.transfers, true,
                   false);
      best = std::move(r);
      inc.anchor(seg_bank, best);
      ++stats.moves_kept;
      return true;
    }
    record_trial(best.steps, best.transfers, r.steps, r.transfers, false,
                 false);
    revert_group(g);
    return false;
  };

  for (std::uint32_t pass = 0; pass < passes; ++pass) {
    ++work.passes_run;
    const util::TraceSpan pass_span("refine.pass",
                                    "\"pass\":" + std::to_string(pass));
    // Effective per-bank load: segment instructions plus the
    // transfer-copy instructions the current assignment makes each bank
    // execute. Raw segment loads alone misidentify the peak bank
    // whenever transfers are a noticeable share of the work.
    const auto eff_load = inc.effective_loads();

    // Candidates: critical cross-bank edges first (they attack makespan
    // directly), then FM-style gain buckets over the cost surrogate.
    std::vector<Move> cand_cross;
    std::vector<Move> cand_local;
    std::vector<Move> cand_balance;
    std::vector<Move> cand_bucket;
    std::vector<Move> cand_fine;
    std::unordered_set<std::uint64_t> seen;
    const auto push_candidate = [&](std::vector<Move>& out, std::uint32_t c,
                                    std::uint32_t q) {
      if (q >= banks || fully_in(c, q)) {
        return;
      }
      const auto key = (std::uint64_t{c} << 32) | q;
      if (seen.count(key) != 0 || rejected.count(key) != 0) {
        return;
      }
      seen.insert(key);
      out.push_back({c, q});
    };
    const auto push_segment_candidate = [&](std::vector<Move>& out,
                                            std::uint32_t s, std::uint32_t q) {
      if (q >= banks || seg_bank[s] == q) {
        return;
      }
      const auto key = ((std::uint64_t{s} | 0x80000000u) << 32) | q;
      if (seen.count(key) != 0 || rejected.count(key) != 0) {
        return;
      }
      seen.insert(key);
      out.push_back({npos, q, s});
    };
    for (const auto& [ps, cs] : best.critical_cross_edges) {
      push_candidate(cand_cross, st.cluster_idx[cs], seg_bank[ps]);
      push_candidate(cand_cross, st.cluster_idx[ps], seg_bank[cs]);
      if (cand_cross.size() >= full_budget) {
        break;
      }
    }
    // Same-bank critical readers: spread the *reader segment* to the
    // least-loaded other bank, so chain fanout parallelizes across banks
    // instead of serializing the chain's own bank. Segment granularity
    // matters — heavy-edge clustering usually bundles a chain's readers
    // into the chain's own cluster, where whole-cluster moves cannot
    // separate them.
    for (const auto& [ps, rs] : best.critical_local_edges) {
      if (cand_local.size() >= full_budget) {
        break;
      }
      const auto home = seg_bank[rs];
      auto target = npos;
      for (std::uint32_t q = 0; q < banks; ++q) {
        if (q != home && (target == npos || eff_load[q] < eff_load[target])) {
          target = q;
        }
      }
      if (target != npos) {
        push_segment_candidate(cand_local, rs, target);
      }
    }

    // Peak-load relief: propose evacuating the most-loaded bank toward
    // the least-loaded one even when the transfer surrogate disapproves
    // (tightly coupled clusters always price negative there) — for a
    // throughput-bound circuit the exact evaluator confirms the step win
    // the surrogate cannot see.
    std::uint32_t peak_bank = 0;
    std::uint32_t low_bank = 0;
    for (std::uint32_t b = 1; b < banks; ++b) {
      if (eff_load[b] > eff_load[peak_bank]) {
        peak_bank = b;
      }
      if (eff_load[b] < eff_load[low_bank]) {
        low_bank = b;
      }
    }
    if (eff_load[peak_bank] > eff_load[low_bank]) {
      // Rank by *net* peak relief, not raw size: evacuating a cluster
      // whose defs the peak bank keeps consuming re-imports
      // kTransferInstructions of copy work per such def right back
      // into the peak bank. Boundary clusters relieve; embedded ones
      // backfire.
      const auto net_relief = [&](std::uint32_t c) {
        std::int64_t copies_back = 0;
        for (auto k = st.produced_off[c]; k < st.produced_off[c + 1]; ++k) {
          for (const auto rs : graph.reader_segments(st.produced_def[k])) {
            if (st.cluster_idx[rs] != c && seg_bank[rs] == peak_bank) {
              ++copies_back;
              break;  // one copy per (def, bank), however many readers
            }
          }
        }
        return static_cast<std::int64_t>(st.cluster_size[c]) -
               std::int64_t{kTransferInstructions} * copies_back;
      };
      std::vector<std::pair<std::int64_t, std::uint32_t>> in_peak;
      for (std::uint32_t c = 0; c < num_clusters; ++c) {
        if (fully_in(c, peak_bank)) {
          const auto relief = net_relief(c);
          if (relief > 0) {
            in_peak.emplace_back(-relief, c);  // best relief first
          }
        }
      }
      std::sort(in_peak.begin(), in_peak.end());
      for (const auto& [neg_relief, c] : in_peak) {
        if (cand_balance.size() >= trial_budget) {
          break;
        }
        // Only moves that actually lower the peak are worth a trial.
        if (eff_load[low_bank] + st.cluster_size[c] < eff_load[peak_bank]) {
          push_candidate(cand_balance, c, low_bank);
        }
      }
    }

    // Gain buckets: clamp the surrogate gain into a fixed bucket range
    // and drain from the top — classic FM, no sorting of the full list.
    constexpr std::int64_t kMaxGain = 32;
    std::vector<std::vector<Move>> buckets(2 * kMaxGain + 1);
    for (std::uint32_t c = 0; c < num_clusters; ++c) {
      const auto from = cluster_bank_load(c);
      const auto transfers_now =
          cluster_transfers(graph, st, seg_bank, c, npos, scratch);
      std::int64_t best_gain = 0;
      auto best_bank = npos;
      for (std::uint32_t q = 0; q < banks; ++q) {
        if (fully_in(c, q)) {
          continue;
        }
        const auto gain =
            -std::int64_t{kTransferInstructions} *
                (cluster_transfers(graph, st, seg_bank, c, q, scratch) -
                 transfers_now) +
            peak_delta(c, q, from);
        if (gain > best_gain) {
          best_gain = gain;
          best_bank = q;
        }
      }
      if (best_bank != npos && best_gain > 0) {
        const auto bucket = static_cast<std::size_t>(
            std::min(best_gain, kMaxGain) + kMaxGain);
        buckets[bucket].push_back({c, best_bank});
      }
    }
    for (std::size_t bkt = buckets.size(); bkt-- > 0;) {
      for (const auto& m : buckets[bkt]) {
        if (cand_bucket.size() >= trial_budget) {
          break;
        }
        push_candidate(cand_bucket, m.cluster, m.bank);
      }
    }

    // Fine-grained peak spills: individual segments of the peak bank
    // offered to the least-loaded bank, largest first. Exact evaluation
    // could never afford segment granularity — the screen prices
    // hundreds of these for less than one re-schedule and surfaces the
    // few that actually lower the peak. This is the stream that attacks
    // load-bound stragglers (square) whose clusters are too coarse to
    // balance.
    if (eff_load[peak_bank] > eff_load[low_bank]) {
      std::vector<std::pair<std::int64_t, std::uint32_t>> in_peak_segs;
      for (std::uint32_t s = 0; s < graph.num_segments(); ++s) {
        if (seg_bank[s] == peak_bank && graph.segment_size(s) > 0) {
          in_peak_segs.emplace_back(-std::int64_t{graph.segment_size(s)}, s);
        }
      }
      std::sort(in_peak_segs.begin(), in_peak_segs.end());
      for (const auto& [neg_size, s] : in_peak_segs) {
        if (cand_fine.size() >= trial_budget) {
          break;
        }
        push_segment_candidate(cand_fine, s, low_bank);
      }
    }

    // Batched spread: relocate *every* critical local reader at once,
    // round-robining same-chain readers across the other banks, and
    // judge the whole batch with one trial schedule. Single-reader moves
    // shave one step each; the batch removes whole stretches of
    // chain-bank serialization per evaluation.
    std::vector<Move> batch;
    {
      std::vector<std::uint32_t> seen_readers;
      std::uint32_t rr = 0;
      for (const auto& [ps, rs] : best.critical_local_edges) {
        if (std::find(seen_readers.begin(), seen_readers.end(), rs) !=
            seen_readers.end()) {
          continue;
        }
        seen_readers.push_back(rs);
        const auto home = seg_bank[rs];
        const auto target = (home + 1 + (rr++ % (banks - 1))) % banks;
        batch.push_back({npos, target, rs});
      }
    }

    // Candidate groups, one trial each: the batch first, then the
    // streams interleaved so a latency-bound circuit's spread moves and
    // a throughput-bound circuit's balance moves both get tried within
    // the bounded budget. Chain-shaped streams (cross, local, batch) go
    // straight to exact evaluation — their step effect is invisible to
    // the load model and a strict screen would starve them; the
    // load/transfer-visible streams are screened.
    std::vector<Group> groups;
    if (batch.size() > 1 && !same_moves(batch, rejected_batch)) {
      groups.push_back({std::move(batch), false});
    }
    const std::pair<const std::vector<Move>*, bool> streams[] = {
        {&cand_cross, false},
        {&cand_local, false},
        {&cand_balance, true},
        {&cand_bucket, true},
        {&cand_fine, true},
    };
    // Screened streams drain two entries per round: their rejects are
    // priced by the estimate alone, so feeding them faster spends the
    // exact budget on screen-approved confirmations instead of blind
    // chain-stream trials.
    std::size_t idx[std::size(streams)] = {};
    for (bool progress = true; progress;) {
      progress = false;
      for (std::size_t si = 0; si < std::size(streams); ++si) {
        const auto& [src, screened] = streams[si];
        const std::size_t take = screened ? 2 : 1;
        for (std::size_t t = 0; t < take && idx[si] < src->size(); ++t) {
          groups.push_back({{(*src)[idx[si]++]}, screened});
          progress = true;
        }
      }
    }

    tried = 0;
    full_used = 0;
    for (const auto& group : groups) {
      if (tried >= trial_budget || full_used >= full_budget) {
        break;
      }
      const auto& m = group.moves.front();
      if (group.moves.size() == 1 &&
          (m.seg != npos ? seg_bank[m.seg] == m.bank
                         : fully_in(m.cluster, m.bank))) {
        continue;  // an earlier kept move already homed it
      }
      const bool kept = try_group(group.moves, group.screened);
      if (kept) {
        continue;
      }
      if (group.moves.size() == 1) {
        rejected.insert(move_key(m));
      } else {
        rejected_batch = group.moves;
        continue;
      }
      if (m.seg != npos || tried >= trial_budget ||
          full_used >= full_budget) {
        continue;  // swap retries only make sense for single cluster moves
      }
      // One swap retry: exchange with the closest-sized cluster of the
      // target bank, so the move is load-neutral.
      const auto partner = swap_partner(m.cluster, m.bank);
      if (partner == npos) {
        continue;
      }
      const Move back{partner,
                      seg_bank[st.member_seg[st.member_off[m.cluster]]]};
      try_group({m, back}, group.screened);
    }
    if (tried == 0) {
      break;  // nothing new to try — further passes would be no-ops
    }
  }
  stats.steps_after = best.steps;
  stats.transfers_after = best.transfers;
  stats.makespan_after = best.makespan;
  if (incumbent != nullptr) {
    *incumbent = std::move(best);
  }

  if (registry.enabled()) {
    const auto secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto tried_here = work.moves_tried - tried_before;
    if (secs > 0.0 && tried_here > 0) {
      registry.gauge_set("refine.trial_moves_per_s",
                         static_cast<double>(tried_here) / secs);
    }
  }
  return stats;
}

}  // namespace plim::sched
