#include "mig/rewriting.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "mig/algebra.hpp"
#include "mig/cleanup.hpp"
#include "mig/views.hpp"

namespace plim::mig {

namespace {

/// One network under rewriting and the facts about it that its scans and
/// its rebuild share. Each fact is computed on first use and stays valid
/// while the network is unchanged, so consecutive passes that prove it
/// unchanged count its fanouts once.
class Network {
 public:
  /// `compact`: the caller knows that the network is compact (see
  /// compact()), as every rebuild's result is.
  explicit Network(const Mig& mig, bool compact = false) : mig_(&mig) {
    if (compact) {
      compact_ = true;
    }
  }

  [[nodiscard]] const Mig& mig() const { return *mig_; }

  /// Whether the PIs are nodes 1..num_pis in order and every gate reaches
  /// a PO: then a rebuild in which no gate changes reproduces the network
  /// node for node, and so does cleanup_dangling.
  bool compact() {
    if (!compact_) {
      bool pis_first = true;
      for (std::uint32_t i = 0; i < mig_->num_pis(); ++i) {
        pis_first = pis_first && mig_->pi_at(i) == i + 1;
      }
      const auto& r = reach();
      compact_ = pis_first && std::find(r.begin(), r.end(), false) == r.end();
    }
    return *compact_;
  }

  const std::vector<bool>& reach() {
    if (reach_.empty()) {
      reach_ = reachable_from_pos(*mig_);
    }
    return reach_;
  }

  const std::vector<std::uint32_t>& fanout() {
    if (fanout_.empty()) {
      fanout_ = fanout_counts(*mig_);
    }
    return fanout_;
  }

  const FanoutView& parents() {
    if (!parents_) {
      parents_.emplace(*mig_);
    }
    return *parents_;
  }

 private:
  const Mig* mig_;
  std::optional<bool> compact_;
  std::vector<bool> reach_;
  std::vector<std::uint32_t> fanout_;
  std::optional<FanoutView> parents_;
};

/// The one exit of every rebuild. `dest` is a fresh reconstruction (PIs
/// first, gates in creation order, each a strash miss when created), so
/// when every gate is reachable cleanup_dangling would rebuild it node for
/// node; only a dangling gate makes the copy worth its cost.
Mig drop_dangling(Mig dest) {
  const auto reach = reachable_from_pos(dest);
  if (std::find(reach.begin(), reach.end(), false) != reach.end()) {
    return cleanup_dangling(dest);
  }
  return dest;
}

/// Shared reconstruction skeleton: maps PIs, walks reachable gates in
/// topological order calling `gate_fn(dest, n, a, b, c)` for the mapped
/// fanins, then re-creates the POs and drops dangling gates. `gate_fn`
/// returns the dest signal implementing the source gate's function.
/// Gates below `first` are known not to change: no rule fires there, and
/// `dest` then holds exactly the source's nodes below them, so they are
/// re-created without asking `gate_fn`.
template <typename GateFn>
Mig reconstruct(Network& net, node first, GateFn&& gate_fn) {
  const Mig& src = net.mig();
  const std::vector<bool>* reach = net.compact() ? nullptr : &net.reach();
  Mig dest;
  dest.reserve(src.size());
  std::vector<Signal> map(src.size(), dest.get_constant(false));
  src.foreach_pi(
      [&](node n) { map[n] = dest.create_pi(src.pi_name(src.pi_index(n))); });
  src.foreach_gate([&](node n) {
    if (reach != nullptr && !(*reach)[n]) {
      return;
    }
    const auto& f = src.fanins(n);
    std::array<Signal, 3> mapped{};
    for (int i = 0; i < 3; ++i) {
      mapped[i] = map[f[i].index()] ^ f[i].complemented();
    }
    map[n] = n < first ? dest.create_maj(mapped[0], mapped[1], mapped[2])
                       : gate_fn(dest, n, mapped[0], mapped[1], mapped[2]);
  });
  src.foreach_po([&](Signal f, std::uint32_t i) {
    dest.create_po(map[f.index()] ^ f.complemented(), src.po_name(i));
  });
  return drop_dangling(std::move(dest));
}

/// Which fanins of gate `n` are gates whose only fanout is `n`.
std::array<bool, 3> expendable_fanins(const Mig& src,
                                      const std::vector<std::uint32_t>& fanout,
                                      node n) {
  const auto& f = src.fanins(n);
  std::array<bool, 3> expendable{};
  for (int i = 0; i < 3; ++i) {
    expendable[i] = src.is_gate(f[i].index()) && fanout[f[i].index()] == 1;
  }
  return expendable;
}

/// Ω.M; Ω.D_R→L (Ω.M folding happens inside create_maj).
constexpr auto size_rule = [](auto& dest, Signal a, Signal b, Signal c,
                              const std::array<bool, 3>& expendable) {
  return algebra::try_distributivity_rl(dest, a, b, c, expendable,
                                        /*require_free=*/false);
};

/// Ω.A; Ω.C (commutativity through structural hashing).
constexpr auto reshape_rule = [](auto& dest, Signal a, Signal b, Signal c,
                                 const std::array<bool, 3>& expendable) {
  return algebra::try_associativity(dest, a, b, c, expendable);
};

/// The first gate whose rule, run against the network's own nodes below
/// it, fires or would add a node; the network's size when none does.
template <typename Rule>
node first_firing(Network& net, Rule rule) {
  const Mig& src = net.mig();
  const auto& fanout = net.fanout();
  algebra::SourcePrefix prefix(src);
  for (node n = 0; n < src.size(); ++n) {
    if (!src.is_gate(n)) {
      continue;
    }
    prefix.set_bound(n);
    const auto& f = src.fanins(n);
    if (rule(prefix, f[0], f[1], f[2], expendable_fanins(src, fanout, n)) ||
        prefix.created()) {
      return n;
    }
  }
  return src.size();
}

/// Rebuilds the network with `rule` applied at every gate from `first` on.
template <typename Rule>
Mig rebuild_with(Network& net, node first, Rule rule) {
  const Mig& src = net.mig();
  const auto& fanout = net.fanout();
  return reconstruct(net, first,
                     [&](Mig& d, node n, Signal a, Signal b, Signal c) {
                       if (const auto r = rule(d, a, b, c,
                                               expendable_fanins(src, fanout,
                                                                 n))) {
                         return *r;
                       }
                       return d.create_maj(a, b, c);
                     });
}

/// Explicit negations needed to translate one gate into RM3 instructions,
/// as a function of k = number of complemented non-constant fanins:
/// exactly one complemented fanin is free (operand B), a constant fanin
/// also yields a free B (case (c) of the paper), and every further
/// complement costs one explicit inversion (two instructions + one RRAM).
int negation_cost(unsigned k, bool has_constant_fanin) {
  if (k >= 2) {
    return static_cast<int>(k) - 1;
  }
  if (k == 1) {
    return 0;
  }
  return has_constant_fanin ? 0 : 1;
}

/// The gates an inverter pass flips: flip[n] means the rebuilt gate
/// computes the complement of the source node's function (all fanin
/// complements toggled; map entry complemented back so parents see the
/// toggle on their edges).
std::vector<bool> inverter_flips(Network& net, bool conditional) {
  const Mig& src = net.mig();
  const std::vector<bool>* reach = net.compact() ? nullptr : &net.reach();

  // Per-node PO reference complement tallies (for the profitability
  // estimate: flipping a node toggles every referencing PO edge).
  std::vector<std::uint32_t> po_plain;
  std::vector<std::uint32_t> po_compl;
  if (conditional) {
    po_plain.assign(src.size(), 0);
    po_compl.assign(src.size(), 0);
    src.foreach_po([&](Signal f, std::uint32_t) {
      (f.complemented() ? po_compl : po_plain)[f.index()]++;
    });
  }

  std::vector<bool> flip(src.size(), false);

  const auto edge_complemented = [&](Signal f) {
    return f.complemented() ^ static_cast<bool>(flip[f.index()]);
  };
  const auto gate_profile = [&](node g, node toggled_child, unsigned& k,
                                unsigned& non_const, bool& has_const,
                                bool& child_edge_compl) {
    k = 0;
    non_const = 0;
    has_const = false;
    child_edge_compl = false;
    for (const auto f : src.fanins(g)) {
      if (src.is_constant(f.index())) {
        has_const = true;
        continue;
      }
      ++non_const;
      const bool compl_now = edge_complemented(f);
      if (f.index() == toggled_child) {
        child_edge_compl = compl_now;
      }
      if (compl_now) {
        ++k;
      }
    }
  };

  src.foreach_gate([&](node n) {
    if (reach != nullptr && !(*reach)[n]) {
      return;
    }
    unsigned k = 0;
    unsigned non_const = 0;
    bool has_const = false;
    bool unused = false;
    gate_profile(n, /*toggled_child=*/n, k, non_const, has_const, unused);
    if (k < 2) {
      return;  // rules (1)-(3) only target multi-complement gates
    }
    if (!conditional) {
      // Final Ω.I_R→L sweep: always remove the most costly case (all
      // non-constant fanins complemented).
      if (k == non_const) {
        flip[n] = true;
      }
      return;
    }
    // Conditional Ω.I_R→L(1-3): flip when the estimated total number of
    // explicit negations (this gate + fanout gates + PO edges) decreases.
    // Only this estimate reads parents.
    int delta =
        negation_cost(non_const - k, has_const) - negation_cost(k, has_const);
    for (const node p : net.parents().parents(n)) {
      unsigned kp = 0;
      unsigned ncp = 0;
      bool hcp = false;
      bool edge_compl = false;
      gate_profile(p, n, kp, ncp, hcp, edge_compl);
      const unsigned kp_after = edge_compl ? kp - 1 : kp + 1;
      delta += negation_cost(kp_after, hcp) - negation_cost(kp, hcp);
    }
    // Toggling PO edges: complemented PO edges must be materialized with
    // an explicit inversion at program end.
    delta += static_cast<int>(po_plain[n]) - static_cast<int>(po_compl[n]);
    if (delta < 0) {
      flip[n] = true;
    }
  });
  return flip;
}

Mig rebuild_inverters(Network& net, node first, const std::vector<bool>& flip) {
  return reconstruct(net, first,
                     [&](Mig& d, node n, Signal a, Signal b, Signal c) {
                       if (flip[n]) {
                         return !d.create_maj(!a, !b, !c);
                       }
                       return d.create_maj(a, b, c);
                     });
}

/// What a scan learned about one pass over one network.
struct Scan {
  /// The first gate at which the pass may depart from reproducing its
  /// input: 0 when the network is not compact, its size when the pass
  /// provably reproduces it.
  node first = 0;
  /// Inverter passes: the gates the pass flips.
  std::vector<bool> flip;
};

Scan scan(Network& net, Pass pass) {
  Scan s;
  switch (pass) {
    case Pass::size:
    case Pass::reshape:
      if (net.compact()) {
        s.first = pass == Pass::size ? first_firing(net, size_rule)
                                     : first_firing(net, reshape_rule);
      }
      break;
    case Pass::inverters_conditional:
    case Pass::inverters_final:
      s.flip = inverter_flips(net, pass == Pass::inverters_conditional);
      if (net.compact()) {
        s.first = static_cast<node>(
            std::find(s.flip.begin(), s.flip.end(), true) - s.flip.begin());
      }
      break;
  }
  return s;
}

Mig rebuild(Network& net, Pass pass, const Scan& s) {
  switch (pass) {
    case Pass::size:
      return rebuild_with(net, s.first, size_rule);
    case Pass::reshape:
      return rebuild_with(net, s.first, reshape_rule);
    case Pass::inverters_conditional:
    case Pass::inverters_final:
      break;
  }
  return rebuild_inverters(net, s.first, s.flip);
}

}  // namespace

Mig pass_size(const Mig& src) {
  Network net(src);
  return rebuild_with(net, /*first=*/0, size_rule);
}

Mig pass_reshape(const Mig& src) {
  Network net(src);
  return rebuild_with(net, /*first=*/0, reshape_rule);
}

Mig pass_inverters(const Mig& src, bool conditional) {
  Network net(src);
  return rebuild_inverters(net, /*first=*/0, inverter_flips(net, conditional));
}

bool pass_may_change(const Mig& mig, Pass pass) {
  Network net(mig);
  return scan(net, pass).first < mig.size();
}

std::uint32_t count_multi_complement(const Mig& mig) {
  std::uint32_t count = 0;
  mig.foreach_gate([&](node n) {
    const auto& f = mig.fanins(n);
    if (algebra::complement_count(mig, f[0], f[1], f[2]) >= 2) {
      ++count;
    }
  });
  return count;
}

namespace {

/// Whether two networks have the same nodes with the same fanins, the
/// same PI order and the same POs. Every pass is a deterministic
/// function of exactly this structure (names pass through unchanged), so
/// a cycle that reproduces its input has reached a fixed point.
bool same_structure(const Mig& x, const Mig& y) {
  if (x.size() != y.size() || x.num_pis() != y.num_pis() ||
      x.num_pos() != y.num_pos()) {
    return false;
  }
  for (node n = 0; n < x.size(); ++n) {
    if (x.kind(n) != y.kind(n) ||
        (x.is_gate(n) && x.fanins(n) != y.fanins(n))) {
      return false;
    }
  }
  for (std::uint32_t i = 0; i < x.num_pis(); ++i) {
    if (x.pi_at(i) != y.pi_at(i)) {
      return false;
    }
  }
  for (std::uint32_t i = 0; i < x.num_pos(); ++i) {
    if (x.po_at(i) != y.po_at(i)) {
      return false;
    }
  }
  return true;
}

/// One Algorithm 1 cycle.
constexpr std::array<Pass, 5> kCycle = {
    Pass::size,                   // Ω.M; Ω.D_R→L
    Pass::reshape,                // Ω.A; Ω.C
    Pass::size,                   // Ω.M; Ω.D_R→L
    Pass::inverters_conditional,  // Ω.I_R→L(1-3)
    Pass::inverters_final,        // Ω.I_R→L
};

}  // namespace

Mig rewrite_for_plim(const Mig& mig, const RewriteOptions& opts,
                     RewriteStats* stats) {
  // `cur` is the network so far: the input itself until the cleanup or a
  // rebuild replaces it with `held`.
  Mig held;
  const Mig* cur = &mig;
  Network net(mig);
  if (!net.compact()) {
    held = cleanup_dangling(mig);
    cur = &held;
    net = Network(held, /*compact=*/true);
  }
  if (stats != nullptr) {
    stats->gates_before = cur->num_gates();
    stats->depth_before = cur->depth();
    stats->multi_complement_before = count_multi_complement(*cur);
  }
  std::uint32_t cycles = 0;
  std::uint32_t rebuilt = 0;
  while (cycles < opts.effort) {
    ++cycles;
    // The cycle's input, kept for the fixed-point test once a rebuild
    // replaces it.
    Mig start;
    const Mig* start_ptr = cur;
    for (const Pass pass : kCycle) {
      const Scan s = scan(net, pass);
      if (s.first == cur->size()) {
        continue;  // proven unchanged
      }
      Mig next = rebuild(net, pass, s);
      ++rebuilt;
      if (start_ptr == &held) {
        start = std::move(held);
        start_ptr = &start;
      }
      held = std::move(next);
      cur = &held;
      net = Network(held, /*compact=*/true);
    }
    if (start_ptr == cur || same_structure(*cur, *start_ptr)) {
      break;  // every further cycle would reproduce `cur`
    }
  }
  if (stats != nullptr) {
    stats->gates_after = cur->num_gates();
    stats->depth_after = cur->depth();
    stats->multi_complement_after = count_multi_complement(*cur);
    stats->cycles = cycles;
    stats->passes_rebuilt = rebuilt;
  }
  if (cur == &mig) {
    return mig;
  }
  return held;
}

}  // namespace plim::mig
