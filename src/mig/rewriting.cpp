#include "mig/rewriting.hpp"

#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "mig/algebra.hpp"
#include "mig/cleanup.hpp"
#include "mig/views.hpp"

namespace plim::mig {

namespace {

/// The one exit of every pass. `dest` is a fresh reconstruction (PIs
/// first, gates in creation order, each a strash miss when created), so
/// when every gate is reachable cleanup_dangling would rebuild it node for
/// node; only a dangling gate makes the copy worth its cost.
Mig compact(Mig dest) {
  const auto reach = reachable_from_pos(dest);
  for (node n = 0; n < dest.size(); ++n) {
    if (!reach[n]) {
      return cleanup_dangling(dest);
    }
  }
  return dest;
}

/// Shared reconstruction skeleton: maps PIs, walks reachable gates in
/// topological order calling `gate_fn(n, a, b, c, expendable)` for the
/// mapped fanins, then re-creates the POs and compacts. `gate_fn` returns
/// the dest signal implementing the source gate's function; a fanin is
/// expendable when it is a gate whose only fanout is this one.
template <typename GateFn>
Mig reconstruct(const Mig& src, GateFn&& gate_fn) {
  const auto fanout = fanout_counts(src);
  const auto reach = reachable_from_pos(src);
  Mig dest;
  dest.reserve(src.size());
  std::vector<Signal> map(src.size(), dest.get_constant(false));
  src.foreach_pi(
      [&](node n) { map[n] = dest.create_pi(src.pi_name(src.pi_index(n))); });
  src.foreach_gate([&](node n) {
    if (!reach[n]) {
      return;
    }
    const auto& f = src.fanins(n);
    std::array<Signal, 3> mapped{};
    std::array<bool, 3> expendable{};
    for (int i = 0; i < 3; ++i) {
      mapped[i] = map[f[i].index()] ^ f[i].complemented();
      expendable[i] =
          src.is_gate(f[i].index()) && fanout[f[i].index()] == 1;
    }
    map[n] = gate_fn(dest, n, mapped[0], mapped[1], mapped[2], expendable);
  });
  src.foreach_po([&](Signal f, std::uint32_t i) {
    dest.create_po(map[f.index()] ^ f.complemented(), src.po_name(i));
  });
  return compact(std::move(dest));
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

}  // namespace

Mig pass_size(const Mig& src) {
  return reconstruct(
      src, [](Mig& d, node, Signal a, Signal b, Signal c,
              const std::array<bool, 3>& expendable) {
        if (const auto r = algebra::try_distributivity_rl(
                d, a, b, c, expendable, /*require_free=*/false)) {
          return *r;
        }
        return d.create_maj(a, b, c);
      });
}

Mig pass_reshape(const Mig& src) {
  return reconstruct(
      src, [](Mig& d, node, Signal a, Signal b, Signal c,
              const std::array<bool, 3>& expendable) {
        if (const auto r = algebra::try_associativity(d, a, b, c, expendable)) {
          return *r;
        }
        return d.create_maj(a, b, c);
      });
}

Mig pass_inverters(const Mig& src, bool conditional) {
  // Only the profitability estimate of the conditional pass reads parents.
  std::optional<FanoutView> fanout;
  if (conditional) {
    fanout.emplace(src);
  }
  const auto reach = reachable_from_pos(src);

  // Per-node PO reference complement tallies (for the profitability
  // estimate: flipping a node toggles every referencing PO edge).
  std::vector<std::uint32_t> po_plain(src.size(), 0);
  std::vector<std::uint32_t> po_compl(src.size(), 0);
  src.foreach_po([&](Signal f, std::uint32_t) {
    (f.complemented() ? po_compl : po_plain)[f.index()]++;
  });

  // flip[n]: the reconstructed gate computes the complement of the source
  // node's function (all fanin complements toggled; map entry complemented
  // back so parents see the toggle on their edges).
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
    if (!reach[n]) {
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
    int delta =
        negation_cost(non_const - k, has_const) - negation_cost(k, has_const);
    for (const node p : fanout->parents(n)) {
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

  return reconstruct(
      src, [&](Mig& d, node n, Signal a, Signal b, Signal c,
               const std::array<bool, 3>&) {
        if (flip[n]) {
          return !d.create_maj(!a, !b, !c);
        }
        return d.create_maj(a, b, c);
      });
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

/// One Algorithm 1 cycle over `in`.
Mig rewrite_cycle(const Mig& in) {
  auto out = pass_size(in);                           // Ω.M; Ω.D_R→L
  out = pass_reshape(out);                            // Ω.A; Ω.C
  out = pass_size(out);                               // Ω.M; Ω.D_R→L
  out = pass_inverters(out, /*conditional=*/true);    // Ω.I_R→L(1-3)
  return pass_inverters(out, /*conditional=*/false);  // Ω.I_R→L
}

}  // namespace

Mig rewrite_for_plim(const Mig& mig, const RewriteOptions& opts,
                     RewriteStats* stats) {
  Mig cur = cleanup_dangling(mig);
  if (stats != nullptr) {
    stats->gates_before = cur.num_gates();
    stats->depth_before = cur.depth();
    stats->multi_complement_before = count_multi_complement(cur);
  }
  std::uint32_t cycles = 0;
  while (cycles < opts.effort) {
    auto next = rewrite_cycle(cur);
    ++cycles;
    const bool fixed_point = same_structure(next, cur);
    cur = std::move(next);
    if (fixed_point) {
      break;  // every further cycle would reproduce `cur`
    }
  }
  if (stats != nullptr) {
    stats->gates_after = cur.num_gates();
    stats->depth_after = cur.depth();
    stats->multi_complement_after = count_multi_complement(cur);
    stats->cycles = cycles;
  }
  return cur;
}

}  // namespace plim::mig
