#include "core/compiler.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "mig/views.hpp"

namespace plim::core {

namespace {

using mig::Mig;
using mig::Signal;
using arch::Operand;

/// Nodes reachable from the POs (constants and PIs always count) — the
/// set the compiler translates and the live-set bound reasons over.
std::vector<bool> reachable_from_pos(const Mig& mig) {
  std::vector<bool> reach(mig.size(), false);
  reach[0] = true;
  std::vector<mig::node> stack;
  mig.foreach_pi([&](mig::node n) { reach[n] = true; });
  mig.foreach_po([&](Signal f, std::uint32_t) {
    if (!reach[f.index()]) {
      reach[f.index()] = true;
      stack.push_back(f.index());
    }
  });
  while (!stack.empty()) {
    const mig::node n = stack.back();
    stack.pop_back();
    if (!mig.is_gate(n)) {
      continue;
    }
    for (const auto f : mig.fanins(n)) {
      if (!reach[f.index()]) {
        reach[f.index()] = true;
        stack.push_back(f.index());
      }
    }
  }
  return reach;
}

/// See live_set_lower_bound() — shared with the compiler, which already
/// has the reachability bitmap in hand.
std::uint32_t lower_bound_from_reach(const Mig& mig,
                                     const std::vector<bool>& reach) {
  std::uint32_t bound = 0;
  // Each gate's RM3 needs its distinct gate-operand values resident at
  // once (PIs and constants are read as immediate operands, and the
  // destination can coincide with a dying operand cell — but never go
  // below one cell for the result itself).
  mig.foreach_gate([&](mig::node n) {
    if (!reach[n]) {
      return;
    }
    std::array<mig::node, 3> g{};
    std::uint32_t k = 0;
    for (const auto f : mig.fanins(n)) {
      const auto c = f.index();
      if (!mig.is_gate(c)) {
        continue;
      }
      bool dup = false;
      for (std::uint32_t j = 0; j < k; ++j) {
        dup = dup || g[j] == c;
      }
      if (!dup) {
        g[k++] = c;
      }
    }
    bound = std::max(bound, std::max(k, 1u));
  });
  // At program end every distinct output signal value occupies a cell.
  std::set<std::pair<mig::node, bool>> sigs;
  mig.foreach_po([&](Signal f, std::uint32_t) {
    sigs.insert({f.index(), f.complemented()});
  });
  bound = std::max(bound, static_cast<std::uint32_t>(sigs.size()));
  return bound;
}

/// Everything the §4.2.2 case analysis needs to know about one fanin.
struct ChildRef {
  Signal edge;
  mig::node n = 0;
  bool is_const = false;
  bool cval = false;  ///< constant edge value (complement folded in)
  bool is_pi = false;
  bool is_gate = false;
  bool compl_edge = false;  ///< non-constant fanin with complemented edge
};

class Compiler {
 public:
  Compiler(const Mig& m, const CompileOptions& opts)
      : mig_(m),
        opts_(opts),
        fanout_(m),
        alloc_(opts.allocation, opts.rram_cap),
        level_(m.levels()),
        reach_(m.size(), false),
        remaining_uses_(m.size(), 0),
        pending_children_(m.size(), 0),
        value_cell_(m.size(), -1),
        compl_cell_(m.size(), -1),
        computed_(m.size(), false),
        max_parent_level_(m.size(), 0),
        pin_(m.size(), 0) {}

  CompileResult run() {
    prepare();
    bound_ = lower_bound_from_reach(mig_, reach_);
    const bool degrade =
        opts_.degradation.enabled && opts_.rram_cap.has_value();
    if (degrade) {
      if (*opts_.rram_cap < bound_) {
        // Genuinely infeasible: no strategy fits below the live-set lower
        // bound — fail fast, before a single instruction is emitted.
        throw RramCapExceeded(*opts_.rram_cap, bound_);
      }
      // Recompute budget: in the narrow band just above the true
      // algorithmic floor the zombie cache degenerates and replay turns
      // exponential (every use recomputes its whole cone, Fibonacci
      // style). 128x the gate count comfortably admits every trade a
      // caller could want (the cap sweep's own Pareto cutoff is 40x)
      // while turning near-floor thrash into a fast structured failure.
      std::uint32_t gates = 0;
      mig_.foreach_gate([&](mig::node n) { gates += reach_[n] ? 1 : 0; });
      replay_budget_ = 128ull * std::max(gates, 1u);
      alloc_.set_eviction_handler([this] { return evict_one(); });
    }
    mig_.foreach_pi(
        [&](mig::node n) { program_.add_input(mig_.pi_name(mig_.pi_index(n))); });

    try {
      if (opts_.smart_candidates) {
        run_smart_order();
      } else {
        run_index_order();
      }
      finalize_outputs();
    } catch (const RramCapExceeded& e) {
      if (degrade) {
        // The heuristics lost the squeeze above the bound — attach the
        // bound so callers can tell this from genuine infeasibility.
        throw RramCapExceeded(e.cap(), bound_);
      }
      throw;
    }

    CompileStats stats;
    stats.num_instructions =
        static_cast<std::uint32_t>(program_.num_instructions());
    stats.num_rrams = alloc_.total_allocated();
    stats.num_gates = translated_;
    stats.peak_live_rrams = alloc_.peak_live();
    stats.complement_materializations = complement_materializations_;
    stats.rram_cap = opts_.rram_cap.value_or(0);
    stats.live_lower_bound = bound_;
    stats.cells_evicted = cells_evicted_;
    stats.ops_recomputed = ops_recomputed_;
    stats.replay_max_depth = replay_max_depth_;
    return CompileResult{std::move(program_), stats};
  }

 private:
  // ---- preparation ---------------------------------------------------------

  void prepare() {
    reach_ = reachable_from_pos(mig_);

    // Uses = reachable parent gates (to be computed) + PO references
    // (permanent pins, so output cells are never reclaimed).
    depth_ = *std::max_element(level_.begin(), level_.end());
    const std::uint32_t depth = depth_;
    mig_.foreach_node([&](mig::node n) {
      if (!reach_[n] || mig_.is_constant(n)) {
        return;
      }
      std::uint32_t uses = fanout_.num_po_refs(n);
      std::uint32_t max_plevel = 0;
      bool has_parent = false;
      for (const auto p : fanout_.parents(n)) {
        if (!reach_[p]) {
          continue;
        }
        ++uses;
        has_parent = true;
        max_plevel = std::max(max_plevel, level_[p]);
      }
      remaining_uses_[n] = uses;
      // Nodes only referenced by POs are needed until the very end; rank
      // them past the deepest gate so they are not rushed.
      max_parent_level_[n] = has_parent ? max_plevel : depth + 1;
    });

    mig_.foreach_gate([&](mig::node n) {
      if (!reach_[n]) {
        return;
      }
      std::uint32_t pending = 0;
      for (const auto f : mig_.fanins(n)) {
        if (mig_.is_gate(f.index())) {
          ++pending;
        }
      }
      pending_children_[n] = pending;
    });
  }

  // ---- candidate selection (§4.2.1) ----------------------------------------

  /// Number of fanins whose RRAMs this translation would release.
  std::uint32_t releasing_children(mig::node v) const {
    std::uint32_t count = 0;
    for (const auto f : mig_.fanins(v)) {
      if (!mig_.is_constant(f.index()) && remaining_uses_[f.index()] == 1) {
        ++count;
      }
    }
    return count;
  }

  struct Key {
    std::uint32_t releasing;
    std::uint32_t max_parent_level;
    mig::node index;

    friend bool operator==(const Key&, const Key&) = default;

    /// "worse-than" for a max-heap: fewer releasing children, then
    /// higher fanout level, then higher index.
    bool operator<(const Key& o) const {
      if (releasing != o.releasing) {
        return releasing < o.releasing;
      }
      if (max_parent_level != o.max_parent_level) {
        return max_parent_level > o.max_parent_level;
      }
      return index > o.index;
    }
  };

  Key make_key(mig::node v) const {
    return Key{releasing_children(v), max_parent_level_[v], v};
  }

  void run_smart_order() {
    // Lazy priority queue: keys are snapshots; stale entries are re-keyed
    // at pop time (the paper's criteria change as RRAMs are released).
    std::priority_queue<std::pair<Key, mig::node>> queue;
    mig_.foreach_gate([&](mig::node n) {
      if (reach_[n] && pending_children_[n] == 0) {
        queue.emplace(make_key(n), n);
      }
    });
    while (!queue.empty()) {
      const auto [key, v] = queue.top();
      queue.pop();
      if (computed_[v]) {
        continue;  // duplicate entry
      }
      const Key fresh = make_key(v);
      if (fresh != key) {
        queue.emplace(fresh, v);
        continue;
      }
      translate(v);
      for (const auto p : fanout_.parents(v)) {
        if (reach_[p] && --pending_children_[p] == 0) {
          queue.emplace(make_key(p), p);
        }
      }
    }
  }

  void run_index_order() {
    // Node indices are a topological order, so translating gates in index
    // order is always feasible — this is the paper's "naïve" schedule.
    mig_.foreach_gate([&](mig::node n) {
      if (reach_[n]) {
        translate(n);
      }
    });
  }

  // ---- instruction emission -------------------------------------------------

  void emit(Operand a, Operand b, std::uint32_t z) { program_.append(a, b, z); }

  Operand value_operand(mig::node n) const {
    if (mig_.is_pi(n)) {
      return Operand::input(mig_.pi_index(n));
    }
    assert(mig_.is_gate(n) && computed_[n] && value_cell_[n] >= 0);
    return Operand::rram(static_cast<std::uint32_t>(value_cell_[n]));
  }

  /// Fresh cell loaded with a constant: Z←⟨0 1̄ Z⟩=0 or Z←⟨1 0̄ Z⟩=1.
  /// Works for any previous cell content, so reused cells are fine.
  std::uint32_t emit_const_cell(bool v) {
    const auto cell = alloc_.request();
    if (v) {
      emit(Operand::constant(true), Operand::constant(false), cell);
    } else {
      emit(Operand::constant(false), Operand::constant(true), cell);
    }
    return cell;
  }

  /// Fresh cell loaded with the complement of a node's value
  /// (cases (g)/(h) of Fig. 5): Z←0; Z←⟨1 v̄ 0⟩ = v̄.
  std::uint32_t emit_complement_of(mig::node n) {
    const auto cell = alloc_.request();
    emit(Operand::constant(false), Operand::constant(true), cell);
    emit(Operand::constant(true), value_operand(n), cell);
    ++complement_materializations_;
    return cell;
  }

  /// Fresh cell loaded with a copy of a node's value
  /// (case (e) of Fig. 6): Z←1; Z←⟨v 1̄ 1⟩ = v.
  std::uint32_t emit_copy_of(mig::node n) {
    const auto cell = alloc_.request();
    emit(Operand::constant(true), Operand::constant(false), cell);
    emit(value_operand(n), Operand::constant(true), cell);
    return cell;
  }

  // ---- node translation (§4.2.2) --------------------------------------------

  ChildRef child_ref(Signal f) const {
    ChildRef c;
    c.edge = f;
    c.n = f.index();
    if (mig_.is_constant(c.n)) {
      c.is_const = true;
      c.cval = f.complemented();  // complemented constant-0 edge is 1
    } else {
      c.is_pi = mig_.is_pi(c.n);
      c.is_gate = !c.is_pi;
      c.compl_edge = f.complemented();
    }
    return c;
  }

  void translate(mig::node v) {
    assert(!computed_[v]);
    const auto& fanins = mig_.fanins(v);
    std::array<ChildRef, 3> ch{child_ref(fanins[0]), child_ref(fanins[1]),
                               child_ref(fanins[2])};
    // Under capacity pressure an operand may have been evicted since it
    // was computed — revive it, then pin all three children so the cell
    // requests of this very translation cannot evict them mid-selection.
    for (const auto& c : ch) {
      if (c.is_const) {
        continue;
      }
      if (c.is_gate) {
        ensure_live(c.n);
      }
      pin(c.n);
    }
    std::vector<std::uint32_t> temps;
    Operand a_op;
    Operand b_op;
    std::uint32_t z_cell;

    if (opts_.textbook_slots) {
      select_slots_textbook(ch, temps, a_op, b_op, z_cell);
    } else {
      std::array<bool, 3> taken{false, false, false};
      b_op = select_operand_b(ch, taken, temps);
      z_cell = select_destination_z(ch, taken, temps);
      a_op = select_operand_a(ch, taken, temps);
    }

    emit(a_op, b_op, z_cell);
    value_cell_[v] = static_cast<std::int64_t>(z_cell);
    computed_[v] = true;
    ++translated_;

    for (const auto t : temps) {
      alloc_.release(t);
    }
    for (const auto& c : ch) {
      if (!c.is_const) {
        unpin(c.n);
      }
    }
    for (const auto& c : ch) {
      if (c.is_const) {
        continue;
      }
      assert(remaining_uses_[c.n] > 0);
      if (--remaining_uses_[c.n] == 0) {
        release_node(c.n);
      }
    }
  }

  void release_node(mig::node n) {
    if (value_cell_[n] >= 0 && mig_.is_gate(n)) {
      alloc_.release(static_cast<std::uint32_t>(value_cell_[n]));
      value_cell_[n] = -1;
    }
    if (compl_cell_[n] >= 0) {
      alloc_.release(static_cast<std::uint32_t>(compl_cell_[n]));
      compl_cell_[n] = -1;
    }
  }

  // ---- recompute-on-evict (graceful degradation) -----------------------------

  /// Pins protect a node's value and complement cells from eviction while
  /// they serve as in-flight RM3 operands of the current (re)translation.
  void pin(mig::node n) { ++pin_[n]; }
  void unpin(mig::node n) {
    assert(pin_[n] > 0);
    --pin_[n];
  }

  [[nodiscard]] bool cell_is_output(std::uint32_t cell) const {
    return output_cells_.count(cell) > 0;
  }

  /// When will this value be needed next? A static proxy: the lowest
  /// level among its not-yet-translated parents (a lower level fires
  /// sooner); values only POs still wait for are needed last of all.
  [[nodiscard]] std::uint32_t next_use_estimate(mig::node n) const {
    std::uint32_t next = depth_ + 1;
    bool any = false;
    for (const auto p : fanout_.parents(n)) {
      if (reach_[p] && !computed_[p]) {
        any = true;
        next = std::min(next, level_[p]);
      }
    }
    return any ? next : depth_ + 1;
  }

  /// Instructions (roughly) to recompute n's value right now: the gates
  /// of its evicted/dead fanin cone, down to live values and PIs.
  /// nullopt marks a cone deeper than `limit` — too dear to be a good
  /// victim at this level.
  [[nodiscard]] std::optional<std::uint32_t> replay_cost(
      mig::node n, std::uint32_t limit) const {
    std::uint32_t cost = 0;
    std::vector<mig::node> stack{n};
    std::vector<mig::node> seen;
    while (!stack.empty()) {
      const auto v = stack.back();
      stack.pop_back();
      if (std::find(seen.begin(), seen.end(), v) != seen.end()) {
        continue;
      }
      seen.push_back(v);
      if (++cost > limit) {
        return std::nullopt;
      }
      for (const auto f : mig_.fanins(v)) {
        const auto c = f.index();
        if (mig_.is_gate(c) && value_cell_[c] < 0) {
          stack.push_back(c);
        }
      }
    }
    return cost;
  }

  /// The allocator's capacity-pressure callback: releases one victim cell
  /// or returns false when every cell is load-bearing. Victim order: complement caches first (pure caches —
  /// dropping one costs at most a future re-materialization), then live
  /// gate values by (cheapest replay, farthest next use, lowest index).
  bool evict_one() {
    // Pass 0: zombies — dead values kept resident after a replay. Their
    // cells are pure caches (no pending use), so they go first. The list
    // may hold stale entries (already evicted, or revived into a live
    // role); those are pruned as they are encountered.
    for (std::size_t i = 0; i < zombies_.size();) {
      const auto n = zombies_[i];
      if (!mig_.is_gate(n) || !computed_[n] || value_cell_[n] < 0 ||
          remaining_uses_[n] != 0) {
        zombies_[i] = zombies_.back();
        zombies_.pop_back();
        continue;
      }
      const auto cell = static_cast<std::uint32_t>(value_cell_[n]);
      if (pin_[n] > 0 || cell_is_output(cell)) {
        ++i;
        continue;
      }
      alloc_.release(cell);
      value_cell_[n] = -1;
      zombies_[i] = zombies_.back();
      zombies_.pop_back();
      ++cells_evicted_;
      return true;
    }

    mig::node best = 0;
    bool found = false;
    std::uint32_t best_nu = 0;
    for (mig::node n = 0; n < mig_.size(); ++n) {
      if (compl_cell_[n] < 0 || pin_[n] > 0) {
        continue;
      }
      const auto cell = static_cast<std::uint32_t>(compl_cell_[n]);
      if (cell_is_output(cell)) {
        continue;
      }
      const auto nu = next_use_estimate(n);
      if (!found || nu > best_nu) {
        found = true;
        best = n;
        best_nu = nu;
      }
    }
    if (found) {
      alloc_.release(static_cast<std::uint32_t>(compl_cell_[best]));
      compl_cell_[best] = -1;
      ++cells_evicted_;
      return true;
    }

    // A short replay chain keeps the latency price of this eviction
    // bounded; values whose dead fanin cone is deeper are admitted only
    // at the aggressive ladder level.
    constexpr std::uint32_t kCheapReplay = 8;
    std::uint32_t best_cost = 0;
    mig::node far = 0;  // aggressive fallback: farthest next use, any cone
    bool far_found = false;
    std::uint32_t far_nu = 0;
    for (mig::node n = 0; n < mig_.size(); ++n) {
      if (!mig_.is_gate(n) || !computed_[n] || value_cell_[n] < 0 ||
          pin_[n] > 0 || remaining_uses_[n] == 0) {
        continue;
      }
      const auto cell = static_cast<std::uint32_t>(value_cell_[n]);
      if (cell_is_output(cell)) {
        continue;
      }
      const auto nu = next_use_estimate(n);
      if (!far_found || nu > far_nu) {
        far_found = true;
        far = n;
        far_nu = nu;
      }
      const auto cost = replay_cost(n, kCheapReplay);
      if (!cost) {
        continue;
      }
      if (!found || *cost < best_cost ||
          (*cost == best_cost && nu > best_nu)) {
        found = true;
        best = n;
        best_cost = *cost;
        best_nu = nu;
      }
    }
    if (!found && opts_.degradation.aggressive && far_found) {
      // No cheap chain left — spill the value needed last and accept
      // that its replay will cascade through dead operands (recomputed
      // recursively from primary inputs if need be).
      found = true;
      best = far;
    }
    if (!found) {
      return false;
    }
    alloc_.release(static_cast<std::uint32_t>(value_cell_[best]));
    value_cell_[best] = -1;
    ++cells_evicted_;
    return true;
  }

  /// Revives an evicted gate value before use; no-op when resident.
  void ensure_live(mig::node n) {
    if (mig_.is_gate(n) && computed_[n] && value_cell_[n] < 0) {
      replay(n, 1);
    }
  }

  /// Replay destination: like select_destination_z but never reuses an
  /// operand cell — a replay does not consume uses, so every operand
  /// value must survive it.
  std::uint32_t replay_destination_z(const std::array<ChildRef, 3>& ch,
                                     std::array<bool, 3>& taken) {
    for (int i = 0; i < 3; ++i) {
      if (!taken[i] && ch[i].is_const) {
        taken[i] = true;
        return emit_const_cell(ch[i].cval);
      }
    }
    for (int i = 0; i < 3; ++i) {
      if (!taken[i] && ch[i].compl_edge) {
        taken[i] = true;
        return emit_complement_of(ch[i].n);
      }
    }
    for (int i = 0; i < 3; ++i) {
      if (!taken[i]) {
        taken[i] = true;
        return emit_copy_of(ch[i].n);
      }
    }
    assert(false && "replay destination selection must succeed");
    return 0;
  }

  /// Re-emits the RM3 of an evicted gate from its operands, reviving
  /// value_cell_[v]. Dead operands (already consumed by the original
  /// translation) are themselves replayed into temporaries and dropped
  /// again afterwards; use counts are never touched — the original
  /// translation accounted them.
  void replay(mig::node v, std::uint32_t depth) {
    assert(mig_.is_gate(v) && computed_[v] && value_cell_[v] < 0);
    const auto& fanins = mig_.fanins(v);
    std::array<ChildRef, 3> ch{child_ref(fanins[0]), child_ref(fanins[1]),
                               child_ref(fanins[2])};
    std::array<bool, 3> revived_dead{false, false, false};
    // Deepest child first: a pinned value cell is held from the moment
    // its sibling finishes until this frame emits, so descending into
    // the deepest subtree before any sibling is materialized keeps the
    // number of cells a cascade holds bounded by its breadth, not its
    // depth (a depth-order descent with a shallow sibling pinned per
    // frame would need O(depth) cells and starve the allocator).
    std::array<int, 3> order{0, 1, 2};
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const auto lvl = [&](int i) {
        return ch[i].is_const ? 0u : level_[ch[i].n];
      };
      return lvl(a) > lvl(b);
    });
    for (const int i : order) {
      const auto& c = ch[i];
      if (c.is_const) {
        continue;
      }
      if (c.is_gate && value_cell_[c.n] < 0) {
        replay(c.n, depth + 1);
        revived_dead[i] = remaining_uses_[c.n] == 0;
      }
      pin(c.n);
    }
    std::vector<std::uint32_t> temps;
    std::array<bool, 3> taken{false, false, false};
    const Operand b_op = select_operand_b(ch, taken, temps);
    const std::uint32_t z_cell = replay_destination_z(ch, taken);
    const Operand a_op = select_operand_a(ch, taken, temps);
    emit(a_op, b_op, z_cell);
    value_cell_[v] = static_cast<std::int64_t>(z_cell);
    ++ops_recomputed_;
    if (ops_recomputed_ > replay_budget_) {
      // Thrash, not progress: the cap is (technically) feasible but every
      // value is recomputed over and over. Surface it as capacity
      // pressure so the caller's retry ladder / diagnostics engage.
      throw RramCapExceeded(*opts_.rram_cap, bound_);
    }
    replay_max_depth_ = std::max(replay_max_depth_, depth);
    for (const auto t : temps) {
      alloc_.release(t);
    }
    for (int i = 0; i < 3; ++i) {
      if (ch[i].is_const) {
        continue;
      }
      unpin(ch[i].n);
      if (revived_dead[i]) {
        // Keep the revived value resident as a zombie: a cache of a
        // recomputable dead value. Zombies are the first eviction
        // victims, so they cost capacity only while it is spare — but
        // while resident they turn repeated deep replay cascades into
        // single-step ones.
        zombies_.push_back(ch[i].n);
      }
    }
  }

  /// Operand B selection, cases (a)–(h) of Fig. 5. The selected child is
  /// marked in `taken`; extra instructions/cells are emitted as needed.
  Operand select_operand_b(const std::array<ChildRef, 3>& ch,
                           std::array<bool, 3>& taken,
                           std::vector<std::uint32_t>& temps) {
    std::array<int, 3> nc{};  // complemented non-constant children
    int num_nc = 0;
    int const_idx = -1;
    for (int i = 0; i < 3; ++i) {
      if (ch[i].is_const) {
        const_idx = i;
      } else if (ch[i].compl_edge) {
        nc[num_nc++] = i;
      }
    }

    // (a) exactly one complemented child: its cell feeds B; the intrinsic
    //     inversion of RM3 produces the edge value for free.
    if (num_nc == 1) {
      taken[nc[0]] = true;
      return value_operand(ch[nc[0]].n);
    }
    // (b) several complemented children plus a constant child: pick the
    //     first non-constant complemented child (constants keep the most
    //     flexibility for the remaining slots).
    if (num_nc >= 2 && const_idx >= 0) {
      taken[nc[0]] = true;
      return value_operand(ch[nc[0]].n);
    }
    // (c) no complemented child but a constant child: B is the inverse of
    //     the constant (B̄ reproduces the constant fanin).
    if (num_nc == 0 && const_idx >= 0) {
      taken[const_idx] = true;
      return Operand::constant(!ch[const_idx].cval);
    }
    // (d) several complemented children, one with multiple fanout: prefer
    //     it — it cannot serve as destination anyway.
    // (e) several complemented children, none with multiple fanout: first.
    if (num_nc >= 2) {
      int pick = nc[0];
      for (int k = 0; k < num_nc; ++k) {
        if (remaining_uses_[ch[nc[k]].n] > 1) {
          pick = nc[k];
          break;
        }
      }
      taken[pick] = true;
      return value_operand(ch[pick].n);
    }
    // No complemented and no constant children.
    // (f) a child's complemented value is already cached in a cell.
    for (int i = 0; i < 3; ++i) {
      if (compl_cell_[ch[i].n] >= 0) {
        taken[i] = true;
        return Operand::rram(static_cast<std::uint32_t>(compl_cell_[ch[i].n]));
      }
    }
    // (g) a child with multiple fanout (it cannot be the destination, so
    //     spending the inversion on it costs nothing extra), else
    // (h) the first child. Both materialize the complement in a fresh
    //     cell, remembered for future use when caching is enabled.
    int pick = 0;
    for (int i = 0; i < 3; ++i) {
      if (remaining_uses_[ch[i].n] > 1) {
        pick = i;
        break;
      }
    }
    const std::uint32_t xi = emit_complement_of(ch[pick].n);
    if (opts_.cache_complements) {
      compl_cell_[ch[pick].n] = xi;
    } else {
      temps.push_back(xi);
    }
    taken[pick] = true;
    return Operand::rram(xi);
  }

  /// Destination Z selection, cases (a)–(e) of Fig. 6. Returns the cell
  /// that holds the third-operand value and will receive the result.
  std::uint32_t select_destination_z(const std::array<ChildRef, 3>& ch,
                                     std::array<bool, 3>& taken,
                                     std::vector<std::uint32_t>& temps) {
    (void)temps;
    // (a) complemented child on its last use whose complement is cached:
    //     that cell holds the edge value and is safe to overwrite.
    for (int i = 0; i < 3; ++i) {
      const auto& c = ch[i];
      if (!taken[i] && !c.is_const && c.compl_edge &&
          remaining_uses_[c.n] == 1 && compl_cell_[c.n] >= 0) {
        taken[i] = true;
        const auto cell = static_cast<std::uint32_t>(compl_cell_[c.n]);
        compl_cell_[c.n] = -1;  // consumed: the RM3 overwrites it
        return cell;
      }
    }
    // (b) non-complemented gate child on its last use: reuse its cell.
    for (int i = 0; i < 3; ++i) {
      const auto& c = ch[i];
      if (!taken[i] && c.is_gate && !c.compl_edge &&
          remaining_uses_[c.n] == 1 && value_cell_[c.n] >= 0) {
        taken[i] = true;
        const auto cell = static_cast<std::uint32_t>(value_cell_[c.n]);
        value_cell_[c.n] = -1;  // overwritten by the RM3
        return cell;
      }
    }
    // (c) constant child: fresh cell initialized to the constant.
    for (int i = 0; i < 3; ++i) {
      if (!taken[i] && ch[i].is_const) {
        taken[i] = true;
        return emit_const_cell(ch[i].cval);
      }
    }
    // (d) complemented child: fresh cell loaded with its complement.
    for (int i = 0; i < 3; ++i) {
      if (!taken[i] && ch[i].compl_edge) {
        taken[i] = true;
        return emit_complement_of(ch[i].n);
      }
    }
    // (e) non-complemented child (a PI, or a gate with more fanout):
    //     fresh cell loaded with a copy of its value.
    for (int i = 0; i < 3; ++i) {
      if (!taken[i]) {
        taken[i] = true;
        return emit_copy_of(ch[i].n);
      }
    }
    assert(false && "destination selection must succeed");
    return 0;
  }

  /// Operand A: the one remaining child (cases (a)–(d) of §4.2.2).
  Operand select_operand_a(const std::array<ChildRef, 3>& ch,
                           std::array<bool, 3>& taken,
                           std::vector<std::uint32_t>& temps) {
    for (int i = 0; i < 3; ++i) {
      if (taken[i]) {
        continue;
      }
      taken[i] = true;
      const auto& c = ch[i];
      if (c.is_const) {
        return Operand::constant(c.cval);
      }
      if (!c.compl_edge) {
        return value_operand(c.n);
      }
      if (compl_cell_[c.n] >= 0) {
        return Operand::rram(static_cast<std::uint32_t>(compl_cell_[c.n]));
      }
      const std::uint32_t xi = emit_complement_of(c.n);
      if (opts_.cache_complements) {
        compl_cell_[c.n] = xi;
      } else {
        temps.push_back(xi);
      }
      return Operand::rram(xi);
    }
    assert(false && "exactly one child must remain for operand A");
    return Operand::constant(false);
  }

  /// §3 exposition mode: A←child1, B←child2, Z←child3 verbatim.
  void select_slots_textbook(const std::array<ChildRef, 3>& ch,
                             std::vector<std::uint32_t>& temps, Operand& a_op,
                             Operand& b_op, std::uint32_t& z_cell) {
    // Destination from the third child.
    const auto& zc = ch[2];
    if (zc.is_gate && !zc.compl_edge && remaining_uses_[zc.n] == 1 &&
        value_cell_[zc.n] >= 0) {
      z_cell = static_cast<std::uint32_t>(value_cell_[zc.n]);
      value_cell_[zc.n] = -1;
    } else if (zc.is_const) {
      z_cell = emit_const_cell(zc.cval);
    } else if (zc.compl_edge) {
      z_cell = emit_complement_of(zc.n);
    } else {
      z_cell = emit_copy_of(zc.n);
    }
    // Operand B from the second child (no complement caching here).
    const auto& bc = ch[1];
    if (bc.is_const) {
      b_op = Operand::constant(!bc.cval);
    } else if (bc.compl_edge) {
      b_op = value_operand(bc.n);
    } else {
      const std::uint32_t xi = emit_complement_of(bc.n);
      temps.push_back(xi);
      b_op = Operand::rram(xi);
    }
    // Operand A from the first child.
    const auto& ac = ch[0];
    if (ac.is_const) {
      a_op = Operand::constant(ac.cval);
    } else if (!ac.compl_edge) {
      a_op = value_operand(ac.n);
    } else {
      const std::uint32_t xi = emit_complement_of(ac.n);
      temps.push_back(xi);
      a_op = Operand::rram(xi);
    }
  }

  // ---- outputs ---------------------------------------------------------------

  void finalize_outputs() {
    mig_.foreach_po([&](Signal f, std::uint32_t i) {
      const auto cell = output_cell(f);
      // Output cells must survive to program end — exempt from eviction.
      output_cells_.insert(cell);
      program_.add_output(mig_.po_name(i), cell);
    });
  }

  std::uint32_t output_cell(Signal f) {
    const mig::node n = f.index();
    if (mig_.is_gate(n)) {
      ensure_live(n);  // the PO value itself may have been evicted
    }
    if (mig_.is_constant(n)) {
      const bool v = f.complemented();
      auto& cached = v ? const_one_cell_ : const_zero_cell_;
      if (!cached) {
        cached = emit_const_cell(v);
      }
      return *cached;
    }
    if (mig_.is_pi(n)) {
      if (f.complemented()) {
        if (compl_cell_[n] < 0) {
          compl_cell_[n] = emit_complement_of(n);
        }
        return static_cast<std::uint32_t>(compl_cell_[n]);
      }
      const auto it = pi_copy_.find(n);
      if (it != pi_copy_.end()) {
        return it->second;
      }
      const auto cell = emit_copy_of(n);
      pi_copy_.emplace(n, cell);
      return cell;
    }
    // Gate: PO references pin remaining_uses_ ≥ 1, so the value cell can
    // never have been released — though under capacity pressure it (or a
    // complement cache) may have been evicted and just revived above.
    assert(computed_[n]);
    if (!f.complemented()) {
      assert(value_cell_[n] >= 0);
      return static_cast<std::uint32_t>(value_cell_[n]);
    }
    if (compl_cell_[n] < 0) {
      // The materialization requests a cell; pin n so the request cannot
      // evict the very value being complemented.
      pin(n);
      compl_cell_[n] = emit_complement_of(n);
      unpin(n);
    }
    return static_cast<std::uint32_t>(compl_cell_[n]);
  }

  // ---- state ------------------------------------------------------------------

  const Mig& mig_;
  CompileOptions opts_;
  mig::FanoutView fanout_;
  RramAllocator alloc_;
  arch::Program program_;
  std::vector<std::uint32_t> level_;
  std::vector<bool> reach_;
  std::vector<std::uint32_t> remaining_uses_;
  std::vector<std::uint32_t> pending_children_;
  std::vector<std::int64_t> value_cell_;
  std::vector<std::int64_t> compl_cell_;
  std::vector<bool> computed_;
  std::vector<std::uint32_t> max_parent_level_;
  std::unordered_map<mig::node, std::uint32_t> pi_copy_;
  std::optional<std::uint32_t> const_zero_cell_;
  std::optional<std::uint32_t> const_one_cell_;
  std::uint32_t translated_ = 0;
  std::uint32_t complement_materializations_ = 0;
  // ---- degradation state ----
  std::vector<std::uint32_t> pin_;     ///< in-flight operand protection
  std::set<std::uint32_t> output_cells_;
  std::uint32_t depth_ = 0;            ///< deepest gate level
  std::uint32_t bound_ = 0;            ///< live-set lower bound
  std::vector<mig::node> zombies_;     ///< resident caches of dead values
  std::uint64_t replay_budget_ = 0;    ///< recompute cutoff (thrash guard)
  std::uint32_t cells_evicted_ = 0;
  std::uint32_t ops_recomputed_ = 0;
  std::uint32_t replay_max_depth_ = 0;
};

}  // namespace

std::uint32_t live_set_lower_bound(const mig::Mig& mig) {
  return lower_bound_from_reach(mig, reachable_from_pos(mig));
}

CompileResult compile(const mig::Mig& mig, const CompileOptions& opts) {
  Compiler compiler(mig, opts);
  return compiler.run();
}

CompileResult translate_naive_textbook(const mig::Mig& mig) {
  CompileOptions opts;
  opts.smart_candidates = false;
  opts.cache_complements = false;
  opts.textbook_slots = true;
  // The §3 example programs never reuse released cells (X1…X7 all stay
  // distinct in the 19-instruction listing), so the textbook baseline
  // allocates fresh cells only.
  opts.allocation = AllocationPolicy::fresh;
  return compile(mig, opts);
}

}  // namespace plim::core
