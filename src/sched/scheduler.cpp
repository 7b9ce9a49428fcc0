#include "sched/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arch/machine.hpp"
#include "sched/clustering.hpp"
#include "sched/decoupled.hpp"
#include "sched/refine.hpp"
#include "sched/timeline.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace plim::sched {

namespace {

constexpr std::uint32_t npos = DependenceGraph::npos;

/// Greedy seed of the cluster→bank assignment (see assign_clusters):
/// producer order prices transfers best, LPT balances the throughput
/// bound, and the two chain-aware seeds pre-seat the longest renamed
/// chains' clusters — mega-segments (longest RM3 write chain) or chain
/// carriers (tallest RAW height) — one per bank before the bulk flows
/// in, so a serial chain never lands on whatever loaded bank is left.
enum class SeedOrder { producer, lpt, chain_segment, chain_height };

/// Instruction over *virtual* cells: segments, transfer copies and
/// duplicated chains are renamed to unique ids (SSA-like), so cell-reuse
/// WAR/WAW hazards of the serial program disappear; only true
/// dependences — plus WAR edges against the next chain-write of a
/// still-live segment — remain.
struct VirtualInstr {
  std::uint32_t bank = 0;
  arch::Operand a;
  arch::Operand b;
  std::uint32_t z = 0;  ///< virtual cell
  std::uint32_t src_seg = npos;  ///< transfer copies: producing segment
  bool is_transfer = false;
  bool uses_bus = false;  ///< transfer copy reading a remote cell
};

/// The renamed multi-bank program before step packing: what the list
/// scheduler and the refinement evaluator both consume. Dependences are
/// CSR: the predecessors of virtual instruction i are
/// deps[dep_off[i], dep_off[i + 1]), sorted and distinct.
struct Expansion {
  std::vector<VirtualInstr> virt;
  std::vector<std::uint32_t> dep_off;
  std::vector<std::uint32_t> deps;
  std::uint32_t num_segments = 0;  ///< virtual cells below this are segments
  std::uint32_t num_vcells = 0;
  std::vector<std::uint32_t> vcell_bank;
  std::uint32_t transfers = 0;
  std::uint32_t duplicates = 0;
  std::uint32_t duplicated_instructions = 0;

  [[nodiscard]] std::span<const std::uint32_t> deps_of(std::uint32_t i) const {
    return {deps.data() + dep_off[i], deps.data() + dep_off[i + 1]};
  }
};

/// expand()'s working arrays, kept across calls so an exact evaluation
/// allocates nothing once the first one has sized them.
struct ExpandScratch {
  /// Per-(def, bank) cache of the local replica, flat over defs: a short
  /// intrusive chain per def (most remotely-read values reach one or two
  /// foreign banks) instead of a std::map on the hot path.
  struct Remote {
    std::uint32_t bank;
    std::uint32_t vidx;  ///< instruction producing the local replica
    std::uint32_t cell;  ///< local virtual cell holding it
    std::uint32_t next;  ///< next cache entry of the same def
  };
  /// One entry of a virtual cell's reader list (index-linked pool).
  struct Reader {
    std::uint32_t vidx;
    std::uint32_t next;
  };
  std::vector<std::uint32_t> vidx_of;  ///< serial → virtual instruction
  std::vector<std::uint32_t> remote_head;  ///< def → first Remote entry
  std::vector<Remote> remote;
  std::vector<std::uint32_t> reader_head;  ///< vcell → first Reader entry
  std::vector<Reader> readers;
  std::vector<std::uint32_t> pending;  ///< deps of the instruction at hand
};

/// Post-hoc cluster→bank assignment: greedy over clusters, each taking
/// the bank minimizing the cost model's transfer + post-transfer load
/// cost. Four seeds exist — producer order (ascending root id: best
/// transfer estimates), LPT (biggest clusters first: best load
/// balance), and two chain-aware seeds that pre-seat the longest
/// renamed chains' clusters one per bank (the chain bound, not the size
/// bound, is what a misplaced chain stretches); when refinement is on,
/// schedule() trial-runs all four and refines from the two best starts.
std::vector<std::uint32_t> assign_clusters(
    const DependenceGraph& graph, const std::vector<std::uint32_t>& cluster_of,
    const ScheduleOptions& opts, SeedOrder seed_order) {
  const auto banks = opts.banks;
  const auto n = graph.num_instructions();
  const auto num_segments = graph.num_segments();

  std::vector<std::uint32_t> cluster_size(num_segments, 0);
  for (std::uint32_t s = 0; s < num_segments; ++s) {
    cluster_size[cluster_of[s]] += graph.segment_size(s);
  }

  // Read defs a cluster reads from other clusters — each one is a
  // potential transfer, cached per (def, bank). One (cluster root,
  // producing cluster) pair per distinct (cluster, def), CSR over
  // cluster roots.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reads;
  std::vector<std::uint32_t> last_def(num_segments, npos);
  for (std::uint32_t d = 0; d < graph.num_read_defs(); ++d) {
    const auto pc = cluster_of[graph.producer_segment(d)];
    for (const auto rs : graph.reader_segments(d)) {
      const auto c = cluster_of[rs];
      if (c != pc && last_def[c] != d) {
        last_def[c] = d;
        reads.emplace_back(c, pc);
      }
    }
  }
  std::sort(reads.begin(), reads.end());
  std::vector<std::uint32_t> read_off(num_segments + 1, 0);
  for (const auto& [c, pc] : reads) {
    ++read_off[c + 1];
  }
  for (std::uint32_t c = 0; c < num_segments; ++c) {
    read_off[c + 1] += read_off[c];
  }

  // Visit order. Root-id order sees producers before consumers, so the
  // transfer term prices well but a late big cluster lands on whatever
  // bank is left (baked-in imbalance, e.g. `max`). LPT order places the
  // heavy hitters first and balances the throughput bound from the
  // start, at the price of blinder transfer estimates (e.g. `adder`).
  std::vector<std::uint32_t> order;
  order.reserve(num_segments);
  for (std::uint32_t c = 0; c < num_segments; ++c) {
    if (cluster_of[c] == c) {
      order.push_back(c);
    }
  }
  if (seed_order == SeedOrder::lpt) {
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                if (cluster_size[x] != cluster_size[y]) {
                  return cluster_size[x] > cluster_size[y];
                }
                return x < y;
              });
  }

  std::vector<std::uint32_t> cluster_bank(num_segments, npos);
  std::vector<std::uint64_t> load(banks, 0);
  if (seed_order == SeedOrder::chain_segment ||
      seed_order == SeedOrder::chain_height) {
    // Pre-seat the longest renamed chains' clusters, one per bank: a
    // chain is serial wherever it sits, so two of them sharing a bank
    // stack their lengths no matter how balanced the bulk ends up, and
    // a chain placed late lands on whatever loaded bank is left. Two
    // notions of "chain" matter on different circuits: the longest
    // member *segment* (one RM3 read-modify-write chain — sin's
    // mega-segments) and the tallest RAW *height* (cross-segment renamed
    // chains — square's carriers). The remaining clusters then flow in
    // producer order around the anchors.
    std::vector<std::uint32_t> crit(num_segments, 0);
    if (seed_order == SeedOrder::chain_segment) {
      for (std::uint32_t s = 0; s < num_segments; ++s) {
        crit[cluster_of[s]] =
            std::max(crit[cluster_of[s]], graph.segment_size(s));
      }
    } else {
      const auto& heights = graph.heights();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto c = cluster_of[graph.segment_of(i)];
        crit[c] = std::max(crit[c], heights[i]);
      }
    }
    auto anchors = order;
    std::sort(anchors.begin(), anchors.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                if (crit[x] != crit[y]) {
                  return crit[x] > crit[y];
                }
                if (cluster_size[x] != cluster_size[y]) {
                  return cluster_size[x] > cluster_size[y];
                }
                return x < y;
              });
    for (std::uint32_t k = 0; k < banks && k < anchors.size(); ++k) {
      cluster_bank[anchors[k]] = k;
      load[k] += cluster_size[anchors[k]];
    }
  }
  for (const auto c : order) {
    if (cluster_bank[c] != npos) {
      continue;  // chain anchor, already seated
    }
    const auto min_load = *std::min_element(load.begin(), load.end());
    std::uint32_t best = 0;
    double best_cost = 0.0;
    for (std::uint32_t b = 0; b < banks; ++b) {
      std::uint32_t transfers = 0;
      for (auto k = read_off[c]; k < read_off[c + 1]; ++k) {
        const auto pc = reads[k].second;
        if (cluster_bank[pc] != npos && cluster_bank[pc] != b) {
          ++transfers;
        }
      }
      const auto cost = opts.cost.placement_cost(transfers, load[b], min_load);
      if (b == 0 || cost < best_cost) {
        best = b;
        best_cost = cost;
      }
    }
    cluster_bank[c] = best;
    load[best] += cluster_size[c];
  }

  std::vector<std::uint32_t> seg_bank(num_segments, 0);
  for (std::uint32_t s = 0; s < num_segments; ++s) {
    seg_bank[s] = cluster_bank[cluster_of[s]];
  }
  return seg_bank;
}

/// Renames the serial program onto virtual cells under a fixed
/// segment→bank assignment and materializes every cross-bank operand as
/// a transfer copy or a local recomputation (see scheduler.hpp, step 3).
/// Overwrites `ex`; `scratch` only carries capacity between calls.
void expand(const DependenceGraph& graph, const arch::Program& serial,
            const std::vector<std::uint32_t>& seg_bank, const CostModel& cost,
            Expansion& ex, ExpandScratch& scratch) {
  const auto n = graph.num_instructions();
  ex.virt.clear();
  ex.virt.reserve(n + n / 8);
  ex.deps.clear();
  ex.dep_off.assign(1, 0);
  ex.num_segments = graph.num_segments();
  ex.num_vcells = graph.num_segments();
  ex.vcell_bank.assign(seg_bank.begin(), seg_bank.end());
  ex.transfers = 0;
  ex.duplicates = 0;
  ex.duplicated_instructions = 0;

  auto& vidx_of = scratch.vidx_of;
  vidx_of.assign(n, npos);
  auto& remote_head = scratch.remote_head;
  remote_head.assign(n, npos);
  auto& remote = scratch.remote;
  remote.clear();
  // Readers of each virtual cell's *current* value: the next chain-write
  // must wait for them (the one WAR hazard renaming does not remove).
  auto& reader_head = scratch.reader_head;
  reader_head.assign(ex.num_vcells, npos);
  auto& readers = scratch.readers;
  readers.clear();
  auto& pending = scratch.pending;

  // Appends one virtual instruction whose predecessors are [first,
  // last) — sorted and deduplicated in place — and returns its index.
  const auto emit = [&](const VirtualInstr& v, std::uint32_t* first,
                        std::uint32_t* last) {
    std::sort(first, last);
    last = std::unique(first, last);
    ex.deps.insert(ex.deps.end(), first, last);
    ex.dep_off.push_back(static_cast<std::uint32_t>(ex.deps.size()));
    ex.virt.push_back(v);
    return static_cast<std::uint32_t>(ex.virt.size() - 1);
  };
  const auto new_vcell = [&](std::uint32_t bank) {
    ex.vcell_bank.push_back(bank);
    reader_head.push_back(npos);
    return ex.num_vcells++;
  };

  // Length of the producing chain prefix of `def` within its segment,
  // and whether it reads only inputs/constants (then it can be
  // recomputed in any bank instead of transferred). Walks the chain
  // backwards through the Z read-modify-write links and bails out as
  // soon as the duplicate-vs-copy decision is settled, so the scan is
  // O(duplicate_max_instructions) per cache miss, not O(program).
  const auto chain_prefix = [&](std::uint32_t def) {
    struct Prefix {
      std::uint32_t length = 0;
      bool self_contained = true;
      std::uint32_t first = npos;
    } p;
    for (std::uint32_t j = def;; j = graph.def_of_z(j)) {
      ++p.length;
      p.first = j;
      if (serial[j].a.is_rram() || serial[j].b.is_rram()) {
        p.self_contained = false;
        break;
      }
      if (!cost.should_duplicate(p.length)) {
        break;  // already too long to recompute
      }
      if (graph.is_reset(j)) {
        break;  // chain start reached
      }
    }
    return p;
  };

  for (std::uint32_t i = 0; i < n; ++i) {
    const auto& ins = serial[i];
    const auto seg = graph.segment_of(i);
    const auto bank = seg_bank[seg];

    VirtualInstr v;
    v.bank = bank;
    v.z = seg;
    pending.clear();
    if (!graph.is_reset(i)) {
      pending.push_back(vidx_of[graph.def_of_z(i)]);
    }

    // Virtual cells this instruction reads; the final index of the
    // instruction is only known after both operands resolved (resolving
    // may emit transfer/duplicate instructions), so reader registration
    // is deferred.
    std::uint32_t read_cells[2];
    std::uint32_t num_read = 0;

    const auto resolve = [&](arch::Operand op,
                             std::uint32_t def) -> arch::Operand {
      if (!op.is_rram()) {
        return op;
      }
      const auto pseg = graph.segment_of(def);
      if (seg_bank[pseg] == bank) {
        pending.push_back(vidx_of[def]);
        read_cells[num_read++] = pseg;
        return arch::Operand::rram(pseg);
      }
      auto entry = remote_head[def];
      while (entry != npos && remote[entry].bank != bank) {
        entry = remote[entry].next;
      }
      if (entry == npos) {
        const auto prefix = chain_prefix(def);
        if (prefix.self_contained && cost.should_duplicate(prefix.length)) {
          // Recompute the producing chain locally: same instruction
          // count as a transfer when the chain is short, but no bus
          // slot and no cross-bank dependence.
          const auto dcell = new_vcell(bank);
          std::uint32_t prev = npos;
          for (std::uint32_t j = prefix.first; j <= def; ++j) {
            if (graph.segment_of(j) != pseg) {
              continue;
            }
            VirtualInstr dup;
            dup.bank = bank;
            dup.a = serial[j].a;
            dup.b = serial[j].b;
            dup.z = dcell;
            std::uint32_t dep = prev;
            const bool chained = prev != npos && !graph.is_reset(j);
            prev = emit(dup, &dep, &dep + (chained ? 1 : 0));
            ++ex.duplicated_instructions;
          }
          ++ex.duplicates;
          entry = static_cast<std::uint32_t>(remote.size());
          remote.push_back({bank, prev, dcell, remote_head[def]});
          remote_head[def] = entry;
        } else {
          const auto tcell = new_vcell(bank);
          VirtualInstr reset;
          reset.bank = bank;
          reset.a = arch::Operand::constant(false);
          reset.b = arch::Operand::constant(true);
          reset.z = tcell;
          reset.is_transfer = true;
          const auto reset_idx = emit(reset, nullptr, nullptr);
          VirtualInstr copy;  // with the cell reset to 0: tcell ← src ∨ 0
          copy.bank = bank;
          copy.a = arch::Operand::rram(pseg);
          copy.b = arch::Operand::constant(false);
          copy.z = tcell;
          copy.src_seg = pseg;
          copy.is_transfer = true;
          copy.uses_bus = true;
          std::uint32_t copy_deps[2] = {reset_idx, vidx_of[def]};
          const auto copy_idx = emit(copy, copy_deps, copy_deps + 2);
          readers.push_back({copy_idx, reader_head[pseg]});
          reader_head[pseg] = static_cast<std::uint32_t>(readers.size() - 1);
          entry = static_cast<std::uint32_t>(remote.size());
          remote.push_back({bank, copy_idx, tcell, remote_head[def]});
          remote_head[def] = entry;
          ++ex.transfers;
        }
      }
      pending.push_back(remote[entry].vidx);
      read_cells[num_read++] = remote[entry].cell;
      return arch::Operand::rram(remote[entry].cell);
    };
    v.a = resolve(ins.a, graph.def_of_a(i));
    v.b = resolve(ins.b, graph.def_of_b(i));

    // WAR against readers of the value this write destroys. A reset is a
    // segment's first write, so only chain continuations can clobber.
    // The instruction itself is not yet registered as a reader, so no
    // self-edge can arise.
    if (!graph.is_reset(i)) {
      for (auto r = reader_head[seg]; r != npos; r = readers[r].next) {
        pending.push_back(readers[r].vidx);
      }
      reader_head[seg] = npos;
    }

    const auto self = static_cast<std::uint32_t>(ex.virt.size());
    for (std::uint32_t k = 0; k < num_read; ++k) {
      const auto cell = read_cells[k];
      if (cell != seg) {  // a chain-write's own Z read needs no WAR edge
        readers.push_back({self, reader_head[cell]});
        reader_head[cell] = static_cast<std::uint32_t>(readers.size() - 1);
      }
    }
    vidx_of[i] = self;
    emit(v, pending.data(), pending.data() + pending.size());
  }
}

/// A packed schedule of the expanded program: step assignment per virtual
/// instruction plus, on request, the zero-slack cross-bank reads (the
/// critical transfer edges refinement targets).
struct ListSchedule {
  std::vector<std::uint32_t> step_of;
  /// Steps as CSR, each in ascending bank order: step t issues
  /// step_instrs[step_off[t], step_off[t + 1]).
  std::vector<std::uint32_t> step_off;
  std::vector<std::uint32_t> step_instrs;
  std::uint32_t virtual_critical_path = 0;
  std::uint32_t bus_stalls = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> critical_cross_edges;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> critical_local_edges;

  [[nodiscard]] std::uint32_t num_steps() const {
    return static_cast<std::uint32_t>(step_off.size() - 1);
  }
  [[nodiscard]] std::span<const std::uint32_t> step(std::uint32_t t) const {
    return {step_instrs.data() + step_off[t],
            step_instrs.data() + step_off[t + 1]};
  }
};

/// List-scheduler priority: least slack, then tallest, then serial order.
/// Slack and height share one 64-bit rank so most comparisons decide on
/// a single integer compare.
struct Prio {
  std::uint64_t rank;  ///< (~slack << 32) | height: higher is more urgent
  std::uint32_t vidx;

  static Prio of(std::uint32_t slack, std::uint32_t height,
                 std::uint32_t vidx) {
    return {(std::uint64_t{~slack} << 32) | height, vidx};
  }
  bool operator<(const Prio& o) const {  // "worse-than" for the max-heap
    return rank < o.rank || (rank == o.rank && vidx > o.vidx);
  }
};

/// list_schedule()'s and projected_makespan()'s working arrays, kept
/// across calls like ExpandScratch.
struct ListScratch {
  std::vector<std::uint32_t> depth;
  std::vector<std::uint32_t> height;
  std::vector<std::uint32_t> slack;
  std::vector<std::uint32_t> succ_off;
  std::vector<std::uint32_t> succ;
  std::vector<std::uint32_t> cursor;
  std::vector<std::uint32_t> remaining;
  /// Per-bank ready max-heaps, split by bus use so a full bus skips its
  /// copies without popping them.
  std::vector<std::vector<Prio>> ready_local;
  std::vector<std::vector<Prio>> ready_bus;
  /// Dependency-free local instructions (inits), one run per bank sorted
  /// best first: bank b's run is init_run[init_off[b], init_off[b + 1])
  /// and its unissued part starts at init_next[b]. They are most of the
  /// ready set, so they bypass the heaps (see list_schedule).
  std::vector<Prio> init_run;
  std::vector<std::uint32_t> init_off;
  std::vector<std::uint32_t> init_next;
  std::vector<std::pair<Prio, std::uint32_t>> bank_order;  ///< (top, bank)
  std::vector<std::uint64_t> start;  ///< projected_makespan start cycles
};

/// Slack-driven list scheduling into steps of at most one instruction
/// per bank. Priorities come from ASAP/ALAP slack over the virtual
/// dependence graph: zero-slack instructions sit on a critical chain and
/// preempt ties that plain height priority would break arbitrarily;
/// height (then serial order) breaks remaining ties. Banks are served
/// most-critical-first each step, so on a bounded bus off-chain copies
/// leave bus slots to ready zero-slack copies and the critical chain
/// never waits behind bulk transfers. Overwrites `ls`.
void list_schedule(const Expansion& ex, std::uint32_t banks,
                   const CostModel& cost, bool want_critical_edges,
                   ListSchedule& ls, ListScratch& scratch) {
  const auto& virt = ex.virt;
  const auto vn = static_cast<std::uint32_t>(virt.size());
  ls.step_instrs.clear();
  ls.step_off.assign(1, 0);
  ls.bus_stalls = 0;
  ls.critical_cross_edges.clear();
  ls.critical_local_edges.clear();

  // ASAP depth (deps always point backwards) and ALAP height, flat.
  auto& depth = scratch.depth;
  depth.assign(vn, 1);
  for (std::uint32_t i = 0; i < vn; ++i) {
    for (const auto p : ex.deps_of(i)) {
      depth[i] = std::max(depth[i], depth[p] + 1);
    }
  }
  auto& height = scratch.height;
  height.assign(vn, 1);
  std::uint32_t cp = 0;
  for (std::uint32_t i = vn; i-- > 0;) {
    cp = std::max(cp, depth[i] + height[i] - 1);
    for (const auto p : ex.deps_of(i)) {
      height[p] = std::max(height[p], height[i] + 1);
    }
  }
  auto& slack = scratch.slack;
  slack.resize(vn);
  for (std::uint32_t i = 0; i < vn; ++i) {
    slack[i] = cp - (depth[i] + height[i] - 1);
  }
  ls.virtual_critical_path = cp;

  // Successors as CSR (flat, counted then filled; each list ascending).
  auto& succ_off = scratch.succ_off;
  succ_off.assign(vn + 1, 0);
  for (const auto p : ex.deps) {
    ++succ_off[p + 1];
  }
  for (std::uint32_t i = 0; i < vn; ++i) {
    succ_off[i + 1] += succ_off[i];
  }
  auto& succ = scratch.succ;
  succ.resize(succ_off[vn]);
  auto& cursor = scratch.cursor;
  cursor.assign(succ_off.begin(), succ_off.end() - 1);
  for (std::uint32_t i = 0; i < vn; ++i) {
    for (const auto p : ex.deps_of(i)) {
      succ[cursor[p]++] = i;
    }
  }

  auto& ready_local = scratch.ready_local;
  auto& ready_bus = scratch.ready_bus;
  ready_local.resize(banks);
  ready_bus.resize(banks);
  for (std::uint32_t b = 0; b < banks; ++b) {
    ready_local[b].clear();
    ready_bus[b].clear();
  }
  auto& remaining = scratch.remaining;
  remaining.resize(vn);
  const auto push_ready = [&](std::uint32_t i) {
    auto& heap = virt[i].uses_bus ? ready_bus[virt[i].bank]
                                  : ready_local[virt[i].bank];
    heap.push_back(Prio::of(slack[i], height[i], i));
    std::push_heap(heap.begin(), heap.end());
  };
  // Dependency-free local instructions are ready from the start and
  // never re-enter the ready set, so each bank keeps them as one sorted
  // run merged with its local heap front by front: the same total order
  // as pushing them into the heap, without heaps thousands deep.
  auto& init_run = scratch.init_run;
  auto& init_off = scratch.init_off;
  auto& init_next = scratch.init_next;
  init_off.assign(banks + 1, 0);
  for (std::uint32_t i = 0; i < vn; ++i) {
    remaining[i] = ex.dep_off[i + 1] - ex.dep_off[i];
    if (remaining[i] == 0 && virt[i].uses_bus) {
      push_ready(i);
    } else if (remaining[i] == 0) {
      ++init_off[virt[i].bank + 1];
    }
  }
  for (std::uint32_t b = 0; b < banks; ++b) {
    init_off[b + 1] += init_off[b];
  }
  init_next.assign(init_off.begin(), init_off.end() - 1);
  init_run.resize(init_off[banks]);
  for (std::uint32_t i = 0; i < vn; ++i) {
    if (remaining[i] == 0 && !virt[i].uses_bus) {
      init_run[init_next[virt[i].bank]++] = Prio::of(slack[i], height[i], i);
    }
  }
  init_next.assign(init_off.begin(), init_off.end() - 1);
  for (std::uint32_t b = 0; b < banks; ++b) {
    std::sort(init_run.begin() + init_off[b], init_run.begin() + init_off[b + 1],
              [](const Prio& x, const Prio& y) { return y < x; });
  }
  // Bank b's best ready local instruction is its run front when this
  // holds, else its heap top (null when it has neither).
  const auto run_leads = [&](std::uint32_t b) {
    return init_next[b] < init_off[b + 1] &&
           (ready_local[b].empty() ||
            ready_local[b].front() < init_run[init_next[b]]);
  };
  const auto best_local = [&](std::uint32_t b) -> const Prio* {
    if (run_leads(b)) {
      return &init_run[init_next[b]];
    }
    return ready_local[b].empty() ? nullptr : &ready_local[b].front();
  };
  const auto pop = [](std::vector<Prio>& heap) {
    std::pop_heap(heap.begin(), heap.end());
    const auto vidx = heap.back().vidx;
    heap.pop_back();
    return vidx;
  };

  const auto bus_width = cost.bus_width;
  ls.step_of.assign(vn, npos);
  auto& bank_order = scratch.bank_order;
  std::uint32_t scheduled = 0;
  // Ready-queue occupancy, aggregated locally so the registry (one mutex
  // per call) is touched exactly once per run, not per step — this loop
  // runs once per refinement trial move.
  const bool metrics_on = util::MetricsRegistry::global().enabled();
  std::uint64_t ready_depth_sum = 0;
  std::uint64_t ready_depth_max = 0;
  while (scheduled < vn) {
    const auto t = ls.num_steps();
    const auto step_begin = ls.step_instrs.size();
    std::uint32_t bus_used = 0;
    if (metrics_on) {
      std::uint64_t depth_now = 0;
      for (std::uint32_t b = 0; b < banks; ++b) {
        depth_now += ready_local[b].size() + ready_bus[b].size() +
                     (init_off[b + 1] - init_next[b]);
      }
      ready_depth_sum += depth_now;
      ready_depth_max = std::max(ready_depth_max, depth_now);
    }

    // The critical-chain lookahead: serve banks most-critical-first, so
    // zero-slack copies claim the bounded bus before off-chain bulk
    // transfers in later banks do. (Per-op bus reservation would be
    // useless on top of this — by the time a positive-slack copy is at
    // the head of the line, every critical copy issueable this step has
    // already been served, and the bus resets next step.)
    bank_order.clear();
    for (std::uint32_t b = 0; b < banks; ++b) {
      const auto* local = best_local(b);
      const auto& bus = ready_bus[b];
      if (local == nullptr && bus.empty()) {
        continue;
      }
      const bool local_top =
          bus.empty() || (local != nullptr && bus.front() < *local);
      bank_order.emplace_back(local_top ? *local : bus.front(), b);
    }
    std::sort(bank_order.begin(), bank_order.end(),
              [](const auto& x, const auto& y) {
                return y.first < x.first;  // better candidate first
              });

    // Each bank issues its best ready instruction, except that a copy
    // waits while the bus is full: the bank then issues its best local
    // instruction, or idles (a bus stall) when it has none.
    for (const auto& [top, b] : bank_order) {
      const auto* local = best_local(b);
      auto& bus = ready_bus[b];
      const bool bus_open = bus_width == 0 || bus_used < bus_width;
      std::uint32_t picked;
      if (bus_open && !bus.empty() &&
          (local == nullptr || *local < bus.front())) {
        picked = pop(bus);
        ++bus_used;
      } else if (local == nullptr) {
        ++ls.bus_stalls;  // the bank idles waiting for the bus
        continue;
      } else if (run_leads(b)) {
        picked = init_run[init_next[b]++].vidx;
      } else {
        picked = pop(ready_local[b]);
      }
      ls.step_of[picked] = t;
      ls.step_instrs.push_back(picked);
    }
    if (ls.step_instrs.size() == step_begin) {
      throw std::logic_error("sched: dependence cycle in virtual program");
    }
    std::sort(ls.step_instrs.begin() + static_cast<std::ptrdiff_t>(step_begin),
              ls.step_instrs.end(), [&](std::uint32_t x, std::uint32_t y) {
                return virt[x].bank < virt[y].bank;
              });
    ls.step_off.push_back(static_cast<std::uint32_t>(ls.step_instrs.size()));
    scheduled += static_cast<std::uint32_t>(ls.step_instrs.size() - step_begin);
    for (auto k = step_begin; k < ls.step_instrs.size(); ++k) {
      const auto vidx = ls.step_instrs[k];
      for (auto e = succ_off[vidx]; e < succ_off[vidx + 1]; ++e) {
        if (--remaining[succ[e]] == 0) {
          push_ready(succ[e]);
        }
      }
    }
  }
  if (metrics_on) {
    auto& reg = util::MetricsRegistry::global();
    const auto steps = ls.num_steps();
    reg.counter_add("sched.list.runs");
    reg.counter_add("sched.list.bus_stalls", ls.bus_stalls);
    reg.observe("sched.list.ready_depth_mean",
                steps > 0 ? static_cast<double>(ready_depth_sum) /
                                static_cast<double>(steps)
                          : 0.0);
    reg.observe("sched.list.ready_depth_max",
                static_cast<double>(ready_depth_max));
  }

  if (want_critical_edges) {
    // Zero-slack transfer copies: the cross-bank reads stretching the
    // makespan. Report (producer segment, consumer segment) pairs so
    // refinement can pull the two ends into one bank.
    constexpr std::size_t kMaxEdges = 64;
    for (std::uint32_t i = 0; i < vn && ls.critical_cross_edges.size() <
                                            kMaxEdges;
         ++i) {
      if (!virt[i].uses_bus || slack[i] > 0 || virt[i].src_seg == npos) {
        continue;
      }
      // Prefer a zero-slack original consumer; fall back to any.
      auto consumer = npos;
      for (auto k = succ_off[i]; k < succ_off[i + 1]; ++k) {
        const auto j = succ[k];
        if (virt[j].z < ex.num_segments && !virt[j].is_transfer) {
          consumer = virt[j].z;
          if (slack[j] == 0) {
            break;
          }
        }
      }
      if (consumer != npos) {
        ls.critical_cross_edges.emplace_back(virt[i].src_seg, consumer);
      }
    }
    std::sort(ls.critical_cross_edges.begin(), ls.critical_cross_edges.end());
    ls.critical_cross_edges.erase(std::unique(ls.critical_cross_edges.begin(),
                                              ls.critical_cross_edges.end()),
                                  ls.critical_cross_edges.end());

    // Zero-slack same-bank readers of a chain value: the reader occupies
    // the chain's bank between two chain writes (the WAR ordering the
    // lockstep machine keeps), serializing the critical chain. Spread
    // candidates for refinement — reported generously (they batch into
    // one trial move).
    constexpr std::size_t kMaxLocalEdges = 512;
    const auto reads_cell = [](const VirtualInstr& v, std::uint32_t cell) {
      return (v.a.is_rram() && v.a.address() == cell) ||
             (v.b.is_rram() && v.b.address() == cell);
    };
    for (std::uint32_t w = 0; w < vn && ls.critical_local_edges.size() <
                                            kMaxLocalEdges;
         ++w) {
      if (slack[w] > 0 || virt[w].is_transfer || virt[w].z >= ex.num_segments) {
        continue;
      }
      for (const auto p : ex.deps_of(w)) {
        if (slack[p] == 0 && !virt[p].is_transfer &&
            virt[p].bank == virt[w].bank && virt[p].z != virt[w].z &&
            virt[p].z < ex.num_segments && reads_cell(virt[p], virt[w].z)) {
          ls.critical_local_edges.emplace_back(virt[w].z, virt[p].z);
        }
      }
    }
    std::sort(ls.critical_local_edges.begin(), ls.critical_local_edges.end());
    ls.critical_local_edges.erase(std::unique(ls.critical_local_edges.begin(),
                                              ls.critical_local_edges.end()),
                                  ls.critical_local_edges.end());
  }
}

/// Moves every dependency-free instruction of a packed schedule (segment
/// inits, transfer resets, duplicate-chain resets) into the latest idle
/// slot of its bank strictly before the step of its earliest successor,
/// so the cell it opens stays free until just before its value is
/// needed. The list scheduler issues these early into whatever slot is
/// idle; every other instruction keeps its step, so no dependence, bus
/// slot or step count can get worse. Inits are placed by descending
/// deadline, each into the latest free slot before it (one union-find
/// over free slots per bank), which always finds a slot because the
/// list schedule is a feasible placement. Steps left empty are dropped.
void sink_inits(const Expansion& ex, std::uint32_t banks, ListSchedule& ls) {
  const auto vn = static_cast<std::uint32_t>(ex.virt.size());
  const auto steps = ls.num_steps();

  // Deadline: the step of the earliest successor (`steps` when none).
  std::vector<std::uint32_t> deadline(vn, steps);
  for (std::uint32_t i = 0; i < vn; ++i) {
    for (const auto p : ex.deps_of(i)) {
      deadline[p] = std::min(deadline[p], ls.step_of[i]);
    }
  }

  // Bank-major slot table; free_below[b * (steps + 1) + t + 1] leads to
  // the latest free step <= t of bank b (index 0 of a bank: none left).
  const auto stride = std::size_t{steps} + 1;
  std::vector<std::uint32_t> occupant(std::size_t{banks} * steps, npos);
  std::vector<std::uint32_t> free_below(std::size_t{banks} * stride);
  std::vector<std::uint64_t> inits;  // (deadline << 32) | vidx
  for (std::uint32_t i = 0; i < vn; ++i) {
    if (ex.deps_of(i).empty()) {
      inits.push_back((std::uint64_t{deadline[i]} << 32) | i);
    } else {
      occupant[std::size_t{ex.virt[i].bank} * steps + ls.step_of[i]] = i;
    }
  }
  for (std::uint32_t b = 0; b < banks; ++b) {
    auto* up = free_below.data() + b * stride;
    up[0] = 0;
    for (std::uint32_t t = 0; t < steps; ++t) {
      up[t + 1] = occupant[std::size_t{b} * steps + t] == npos ? t + 1 : t;
    }
  }
  const auto find = [](std::uint32_t* up, std::uint32_t k) {
    while (up[k] != k) {
      up[k] = up[up[k]];
      k = up[k];
    }
    return k;
  };

  std::sort(inits.begin(), inits.end(), std::greater<>());
  for (const auto key : inits) {
    const auto i = static_cast<std::uint32_t>(key);
    const auto b = ex.virt[i].bank;
    auto* up = free_below.data() + b * stride;
    const auto k = find(up, static_cast<std::uint32_t>(key >> 32));
    if (k == 0) {
      throw std::logic_error("sched: no idle slot left for an init");
    }
    up[k] = k - 1;
    ls.step_of[i] = k - 1;
    occupant[std::size_t{b} * steps + k - 1] = i;
  }

  // Re-emit the steps in (step, bank) order, dropping empty ones.
  ls.step_instrs.clear();
  ls.step_off.assign(1, 0);
  for (std::uint32_t t = 0; t < steps; ++t) {
    const auto new_step = ls.num_steps();
    for (std::uint32_t b = 0; b < banks; ++b) {
      const auto i = occupant[std::size_t{b} * steps + t];
      if (i != npos) {
        ls.step_of[i] = new_step;
        ls.step_instrs.push_back(i);
      }
    }
    if (ls.step_instrs.size() > ls.step_off.back()) {
      ls.step_off.push_back(static_cast<std::uint32_t>(ls.step_instrs.size()));
    }
  }
}

/// Projected decoupled makespan of a packed virtual schedule, before
/// emission: the IssueClock decoupled_timing runs on, swept over the
/// virtual program directly, with phase-accurate cross-bank RAW
/// latencies. The virtual program is SSA (no WAR/WAW from cell reuse)
/// and ignores the physical allocator's recycling WARs, so this is an
/// optimistic projection, but it moves with exactly the
/// quantities refinement moves (chain shape, bank loads, transfer
/// placement) — the right objective surrogate.
std::uint64_t projected_makespan(const Expansion& ex, const ListSchedule& ls,
                                 std::uint32_t banks, std::uint32_t bus_width,
                                 ListScratch& scratch) {
  const auto& virt = ex.virt;
  auto& start = scratch.start;
  start.assign(virt.size(), 0);
  IssueClock clock(banks, bus_width);
  std::uint64_t makespan = 0;
  // (step, bank) program order — topological (deps sit at earlier
  // steps) and the bus arbiter's grant order.
  for (const auto i : ls.step_instrs) {
    const auto& v = virt[i];
    std::uint64_t ready = 0;
    for (const auto p : ex.deps_of(i)) {
      if (virt[p].bank == v.bank) {
        continue;  // same-bank deps ride the stream cadence
      }
      // Which operand reads the dep decides the stalled phase (read A or
      // read B, behind the producer's write). Deps matching neither
      // operand (WAR-style chain edges) order starts without latency.
      std::uint64_t latency = 0;
      if (v.a.is_rram() && v.a.address() == virt[p].z) {
        latency = IssueClock::token_latency(IssueClock::kWritePhase, 1);
      } else if (v.b.is_rram() && v.b.address() == virt[p].z) {
        latency = IssueClock::token_latency(IssueClock::kWritePhase, 2);
      }
      ready = std::max(ready, start[p] + latency);
    }
    start[i] = clock.issue(v.bank, ready, v.uses_bus);
    makespan = std::max(makespan, start[i] + IssueClock::kPhases);
  }
  return makespan;
}

/// Everything one exact evaluation writes, reused across the whole
/// compile: the expansion and packing of the most recently evaluated
/// assignment `sb` (the final emission reuses them when the assignment
/// matches) plus the scratch both phases run on.
struct Workspace {
  std::vector<std::uint32_t> sb;
  bool valid = false;
  Expansion ex;
  ListSchedule ls;
  ExpandScratch expand_scratch;
  ListScratch list_scratch;

  /// Frees the scratch, keeping only what emission reads.
  void release_scratch() {
    expand_scratch = {};
    list_scratch = {};
    sb = {};
  }
};

}  // namespace

ScheduleResult schedule(const arch::Program& serial,
                        const ScheduleOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  if (opts.banks == 0) {
    throw std::invalid_argument("sched: banks must be >= 1");
  }
  // assign_ms runs from here through the seed trials: graph build,
  // clustering and the greedy starts' trial schedules.
  double assign_ms = 0.0;
  std::optional<util::ScopedPhase> assign_phase;
  assign_phase.emplace("sched.assign", &assign_ms);
  const auto graph = DependenceGraph::build(serial);
  if (graph.reads_initial_state()) {
    throw std::invalid_argument(
        "sched: program reads RRAM cells it never wrote; its behaviour "
        "depends on pre-existing memory content and cannot be bank-remapped");
  }
  // The objective follows the execution model the cycle figures are
  // reported for: a decoupled schedule is judged by its event-driven
  // makespan, a lockstep one by steps.
  const bool makespan_objective =
      opts.execution == ExecutionModel::decoupled;
  const auto banks = opts.banks;
  const auto n = graph.num_instructions();
  const auto num_segments = graph.num_segments();

  // ---- bank assignment --------------------------------------------------
  std::vector<std::uint32_t> seg_bank(num_segments, 0);
  std::vector<std::uint32_t> cluster_of;
  std::optional<RefineEval> start_eval;
  // Runner-up start for the second refinement leg (see below): the
  // greedy trial evaluation is a weak predictor of *refined* quality,
  // so the best two distinct starts both get refined.
  std::optional<std::vector<std::uint32_t>> second_start;
  std::optional<RefineEval> second_eval;
  // Trial-schedule evaluator. Every exact evaluation writes into one
  // workspace, so the final emission can reuse the last expansion +
  // packing instead of re-running the two most expensive phases on an
  // assignment that was already scheduled (the last kept refinement
  // move, or the unrefined start).
  Workspace ws;
  const auto evaluate = [&](const std::vector<std::uint32_t>& sb) {
    expand(graph, serial, sb, opts.cost, ws.ex, ws.expand_scratch);
    list_schedule(ws.ex, banks, opts.cost, true, ws.ls, ws.list_scratch);
    ws.sb = sb;
    ws.valid = true;
    RefineEval eval{ws.ls.num_steps(),
                    ws.ex.transfers,
                    ws.ls.virtual_critical_path,
                    std::move(ws.ls.critical_cross_edges),
                    std::move(ws.ls.critical_local_edges)};
    if (makespan_objective) {
      eval.makespan = projected_makespan(ws.ex, ws.ls, banks,
                                         opts.cost.bus_width, ws.list_scratch);
    }
    return eval;
  };
  const auto lexicographically_better = [&](const RefineEval& x,
                                            const RefineEval& y) {
    if (makespan_objective && x.makespan != y.makespan) {
      return x.makespan < y.makespan;
    }
    return x.steps < y.steps ||
           (x.steps == y.steps && x.transfers < y.transfers);
  };

  if (banks > 1) {
    if (opts.cluster) {
      cluster_of = cluster_segments(graph, banks);
    } else {
      cluster_of.resize(num_segments);
      std::iota(cluster_of.begin(), cluster_of.end(), 0u);
    }
    seg_bank = assign_clusters(graph, cluster_of, opts, SeedOrder::producer);
    if (opts.refine_passes > 0 && num_segments > 1) {
      // Trial-schedule all four greedy seeds and keep the two best
      // distinct starts — producer order protects transfer chains
      // (adder), LPT protects the throughput bound (max), and the two
      // chain-aware seeds protect the longest renamed chains (sin's
      // mega-segments, square's tall RAW carriers).
      struct Start {
        std::vector<std::uint32_t> sb;
        RefineEval eval;
      };
      std::vector<Start> starts;
      for (const auto order :
           {SeedOrder::producer, SeedOrder::lpt, SeedOrder::chain_segment,
            SeedOrder::chain_height}) {
        auto cand = order == SeedOrder::producer
                        ? seg_bank
                        : assign_clusters(graph, cluster_of, opts, order);
        bool duplicate = false;
        for (const auto& s : starts) {
          duplicate = duplicate || s.sb == cand;
        }
        if (duplicate) {
          continue;
        }
        auto eval = evaluate(cand);
        starts.push_back({std::move(cand), std::move(eval)});
      }
      std::sort(starts.begin(), starts.end(),
                [&](const Start& x, const Start& y) {
                  return lexicographically_better(x.eval, y.eval);
                });
      seg_bank = starts[0].sb;
      start_eval = std::move(starts[0].eval);
      if (starts.size() > 1) {
        second_start = std::move(starts[1].sb);
        second_eval = std::move(starts[1].eval);
      }
    }
  }
  assign_phase.reset();

  // ---- KL refinement ----------------------------------------------------
  // Two legs, probe-then-commit: the best and the runner-up seed each get
  // a short probe (greedy evaluation is a weak predictor of *refined*
  // quality — square@8: the chain-height start opens 2.5% behind producer
  // order and finishes well ahead), then the remaining pass budget is
  // spent entirely on whichever probe refined better. Refining both legs
  // to completion doubles refinement wall-clock for no quality: the
  // losing leg's tail passes are pure waste.
  RefineWork rwork;  // summed over every leg
  RefineStats rstats;  // the winning leg's outcome
  double refine_ms = 0.0;
  if (banks > 1 && opts.refine_passes > 0 && num_segments > 1) {
    const util::ScopedPhase refine_phase("sched.refine", &refine_ms);
    const RefineOptions ropts{opts.refine_passes, makespan_objective};
    if (!second_start) {
      rstats = refine(graph, seg_bank, cluster_of, banks, opts.cost, ropts,
                      evaluate, rwork, &*start_eval);
    } else {
      RefineOptions probe_opts = ropts;
      probe_opts.passes = std::min(
          ropts.passes, std::max<std::uint32_t>(2, ropts.passes / 5));
      rstats = refine(graph, seg_bank, cluster_of, banks, opts.cost,
                      probe_opts, evaluate, rwork, &*start_eval);
      auto second_bank = std::move(*second_start);
      const auto rstats2 =
          refine(graph, second_bank, cluster_of, banks, opts.cost,
                 probe_opts, evaluate, rwork, &*second_eval);
      RefineEval first_final;
      first_final.steps = rstats.steps_after;
      first_final.transfers = rstats.transfers_after;
      first_final.makespan = rstats.makespan_after;
      RefineEval second_final;
      second_final.steps = rstats2.steps_after;
      second_final.transfers = rstats2.transfers_after;
      second_final.makespan = rstats2.makespan_after;
      if (lexicographically_better(second_final, first_final)) {
        seg_bank = std::move(second_bank);
        rstats = rstats2;
      }
      if (ropts.passes > probe_opts.passes) {
        RefineOptions commit_opts = ropts;
        commit_opts.passes = ropts.passes - probe_opts.passes;
        // No baseline: the winner's critical-edge lists are gone (the
        // loser's probe ran in between), so the commit leg re-anchors
        // with one exact evaluation.
        const auto commit =
            refine(graph, seg_bank, cluster_of, banks, opts.cost,
                   commit_opts, evaluate, rwork, nullptr);
        rstats.steps_after = commit.steps_after;
        rstats.transfers_after = commit.transfers_after;
        rstats.makespan_after = commit.makespan_after;
        rstats.moves_kept += commit.moves_kept;
      }
    }
  }

  // ---- expansion + list scheduling + init sinking -----------------------
  // The final assignment has usually just been trial-scheduled (the last
  // kept refinement move, or the dual-start winner) — reuse that run.
  // The scratch goes before the sink and allocation allocate theirs.
  // Refinement never sees the sink: it moves no step count, transfer or
  // bus slot, only the cells the allocator below needs.
  double pack_ms = 0.0;
  {
    const util::ScopedPhase pack_phase("sched.pack", &pack_ms);
    if (!ws.valid || ws.sb != seg_bank) {
      expand(graph, serial, seg_bank, opts.cost, ws.ex, ws.expand_scratch);
      list_schedule(ws.ex, banks, opts.cost, false, ws.ls, ws.list_scratch);
    }
    ws.release_scratch();
    sink_inits(ws.ex, banks, ws.ls);
  }
  const auto& ex = ws.ex;
  const auto& ls = ws.ls;
  const auto& virt = ex.virt;
  const auto vn = static_cast<std::uint32_t>(virt.size());
  const auto num_vcells = ex.num_vcells;

  // ---- physical allocation: disjoint per-bank ranges, FIFO recycling ----
  double alloc_ms = 0.0;
  std::optional<util::ScopedPhase> alloc_phase;
  alloc_phase.emplace("sched.alloc", &alloc_ms);
  // A dead cell recycles the step after its last touch. When a remote
  // reader touched it last, the reuse is a cross-bank WAR; derive_sync
  // orders it with a zero-latency token from the read phase to the write
  // phase, so the overwrite may start as soon as the read does.
  std::vector<std::uint32_t> first_step(num_vcells, npos);
  std::vector<std::uint32_t> last_step(num_vcells, 0);
  for (std::uint32_t i = 0; i < vn; ++i) {
    const auto t = ls.step_of[i];
    const auto touch = [&](std::uint32_t cell) {
      first_step[cell] = std::min(first_step[cell], t);
      last_step[cell] = std::max(last_step[cell], t);
    };
    touch(virt[i].z);
    for (const auto op : {virt[i].a, virt[i].b}) {
      if (op.is_rram()) {
        touch(op.address());
      }
    }
  }

  // Output cells live forever: pin the final segment of each output cell.
  std::vector<bool> pinned(num_vcells, false);
  std::vector<std::uint32_t> last_segment_of_cell(serial.num_rrams(), npos);
  for (std::uint32_t s = 0; s < num_segments; ++s) {
    last_segment_of_cell[graph.segment(s).cell] = s;
  }
  for (std::uint32_t o = 0; o < serial.num_outputs(); ++o) {
    const auto seg = last_segment_of_cell[serial.output_cell(o)];
    if (seg == npos) {
      throw std::invalid_argument("sched: output '" + serial.output_name(o) +
                                  "' reads a never-written cell");
    }
    pinned[seg] = true;
  }

  std::vector<std::uint32_t> order(num_vcells);
  for (std::uint32_t c = 0; c < num_vcells; ++c) {
    order[c] = c;
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return std::make_pair(first_step[x], x) < std::make_pair(first_step[y], y);
  });
  using Free = std::pair<std::uint32_t, std::uint32_t>;  // (free_at, local)
  std::vector<std::priority_queue<Free, std::vector<Free>, std::greater<>>>
      free_cells(banks);
  std::vector<std::uint32_t> bank_size(banks, 0);
  std::vector<std::uint32_t> local_of(num_vcells, npos);
  for (const auto c : order) {
    if (first_step[c] == npos) {
      continue;  // virtual cell never touched (cannot happen, but safe)
    }
    const auto b = ex.vcell_bank[c];
    std::uint32_t local;
    if (!free_cells[b].empty() && free_cells[b].top().first <= first_step[c]) {
      local = free_cells[b].top().second;
      free_cells[b].pop();
    } else {
      local = bank_size[b]++;
    }
    local_of[c] = local;
    if (!pinned[c]) {
      free_cells[b].push({last_step[c] + 1, local});
    }
  }

  std::vector<std::uint32_t> bank_base(banks, 0);
  for (std::uint32_t b = 1; b < banks; ++b) {
    bank_base[b] = bank_base[b - 1] + bank_size[b - 1];
  }
  const auto final_cell = [&](std::uint32_t vcell) {
    return bank_base[ex.vcell_bank[vcell]] + local_of[vcell];
  };

  // ---- emit -------------------------------------------------------------
  ScheduleResult result;
  auto& pp = result.program;
  pp = ParallelProgram(banks);
  pp.set_bus_width(opts.cost.bus_width);
  for (std::uint32_t b = 0; b < banks; ++b) {
    pp.set_bank_range(b, bank_base[b], bank_base[b] + bank_size[b]);
  }
  for (std::uint32_t i = 0; i < serial.num_inputs(); ++i) {
    pp.add_input(serial.input_name(i));
  }
  const auto remap = [&](arch::Operand op) {
    return op.is_rram() ? arch::Operand::rram(final_cell(op.address())) : op;
  };
  std::vector<std::uint32_t> bank_load(banks, 0);
  for (std::uint32_t t = 0; t < ls.num_steps(); ++t) {
    pp.begin_step();
    for (const auto vidx : ls.step(t)) {
      const auto& v = virt[vidx];
      ++bank_load[v.bank];
      pp.add_slot({v.bank,
                   arch::Instruction{remap(v.a), remap(v.b), final_cell(v.z)},
                   v.is_transfer});
    }
  }
  for (std::uint32_t o = 0; o < serial.num_outputs(); ++o) {
    pp.add_output(serial.output_name(o),
                  final_cell(last_segment_of_cell[serial.output_cell(o)]));
  }
  alloc_phase.reset();

  auto& stats = result.stats;
  stats.banks = banks;
  stats.serial_instructions = n;
  stats.parallel_instructions = vn;
  stats.transfers = ex.transfers;
  stats.duplicates = ex.duplicates;
  stats.duplicated_instructions = ex.duplicated_instructions;
  stats.critical_path = graph.critical_path();
  // Chain term: the renamed critical path, except that duplication can
  // detach a remote reader from the chain it reads (the replica carries
  // no WAR against the original segment), so the exact virtual chain
  // bound caps it — the min is a true lower bound for this schedule.
  stats.step_lower_bound =
      std::max(std::min(graph.renamed_critical_path(),
                        ls.virtual_critical_path),
               (vn + banks - 1) / banks);
  stats.virtual_critical_path = ls.virtual_critical_path;
  stats.serial_rrams = serial.num_rrams();
  stats.bus_width = opts.cost.bus_width;
  stats.bus_stalls = ls.bus_stalls;
  // The virtual program is emitted: free it before sync derivation and
  // timing allocate theirs.
  ws = {};

  // Sync tokens for decoupled execution: one coalesced signal/wait pair
  // per surviving cross-bank transfer edge (see sched/decoupled.hpp).
  double sync_ms = 0.0;
  {
    const util::ScopedPhase sync_phase("sched.sync", &sync_ms);
    derive_sync(pp);
  }
  const auto final_steps = pp.num_steps();

  stats.steps = final_steps;
  stats.parallel_rrams = pp.num_rrams();
  stats.refine_passes = rwork.passes_run;
  stats.refine_moves_tried = rwork.moves_tried;
  stats.refine_moves_kept = rstats.moves_kept;
  stats.refine_moves_screened = rwork.moves_screened;
  stats.refine_full_evals = rwork.full_evals;
  stats.refine_steps_saved = rstats.steps_before - rstats.steps_after;
  stats.refine_transfers_saved =
      static_cast<std::int64_t>(rstats.transfers_before) -
      static_cast<std::int64_t>(rstats.transfers_after);
  stats.bank_load = std::move(bank_load);
  stats.utilization =
      final_steps > 0 ? static_cast<double>(vn) /
                            (static_cast<double>(final_steps) * banks)
                      : 1.0;
  stats.speedup =
      final_steps > 0 ? static_cast<double>(n) / final_steps : 1.0;

  // Cycle-level figures for both execution models. The lockstep figure
  // is the step clock (the schedule honours its own declared bus, so no
  // machine-side stalls); the decoupled figure is the event-driven
  // makespan under the same bus width — never above the lockstep bound,
  // because every sync token and arbiter grant follows the step order.
  constexpr auto phases = arch::Machine::phases_per_instruction;
  stats.execution = opts.execution;
  stats.sync_tokens = static_cast<std::uint32_t>(pp.sync_edges().size());
  stats.lockstep_cycles = std::uint64_t{final_steps} * phases;
  double timing_ms = 0.0;
  DecoupledTiming timing;
  {
    const util::ScopedPhase timing_phase("sched.timing", &timing_ms);
    timing = decoupled_timing(pp);
  }
  sync_ms += timing_ms;
  if (opts.execution == ExecutionModel::decoupled) {
    // The cycle-level per-bank timeline (no-op unless tracing is on).
    trace_decoupled_timeline(
        pp, timing, opts.trace_label.empty() ? "schedule" : opts.trace_label);
  }
  stats.decoupled_cycles = timing.makespan_cycles;
  stats.decoupled_bus_stall_cycles = timing.bus_stall_cycles;
  stats.makespan_lower_bound = timing.makespan_lower_bound;
  stats.decoupled_speedup =
      timing.makespan_cycles > 0
          ? static_cast<double>(stats.lockstep_cycles) /
                static_cast<double>(timing.makespan_cycles)
          : 1.0;
  if (opts.execution == ExecutionModel::decoupled) {
    stats.makespan_cycles = stats.decoupled_cycles;
    stats.bank_idle_cycles = timing.bank_idle_cycles;
  } else {
    stats.makespan_cycles = stats.lockstep_cycles;
    stats.bank_idle_cycles.assign(banks, 0);
    for (std::uint32_t b = 0; b < banks; ++b) {
      stats.bank_idle_cycles[b] =
          (std::uint64_t{final_steps} - stats.bank_load[b]) * phases;
    }
  }
  stats.assign_ms = assign_ms;
  stats.refine_ms = refine_ms;
  stats.pack_ms = pack_ms;
  stats.alloc_ms = alloc_ms;
  stats.sync_ms = sync_ms;
  stats.schedule_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace plim::sched
