#include "mig/algebra.hpp"

namespace plim::mig::algebra {

unsigned complement_count(const Mig& mig, Signal a, Signal b, Signal c) {
  unsigned k = 0;
  for (const auto s : {a, b, c}) {
    if (!mig.is_constant(s.index()) && s.complemented()) {
      ++k;
    }
  }
  return k;
}

namespace {

struct SharedPair {
  Signal x, y;  ///< the common pair
  Signal u, v;  ///< leftovers of the first / second gate
};

/// Finds a two-signal multiset intersection between two fanin triples.
std::optional<SharedPair> match_shared_pair(const std::array<Signal, 3>& fa,
                                            const std::array<Signal, 3>& fb) {
  // Try all ways of pairing two elements of fa with two elements of fb.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i == j) {
        continue;
      }
      const Signal x = fa[i];
      const Signal y = fa[j];
      // Remaining element of fa:
      const Signal u = fa[3 - i - j];
      // Find x and y in fb at distinct positions.
      for (int p = 0; p < 3; ++p) {
        if (fb[p] != x) {
          continue;
        }
        for (int q = 0; q < 3; ++q) {
          if (q == p || fb[q] != y) {
            continue;
          }
          const Signal v = fb[3 - p - q];
          return SharedPair{x, y, u, v};
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace

template <typename Dest>
std::optional<Signal> try_distributivity_rl(
    Dest& dest, Signal a, Signal b, Signal c,
    const std::array<bool, 3>& inner_is_expendable, bool require_free) {
  const std::array<Signal, 3> outer{a, b, c};
  // Pick the two fanins playing the role of ⟨xyu⟩ and ⟨xyv⟩.
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      const Signal ga = outer[i];
      const Signal gb = outer[j];
      if (!dest.is_gate(ga.index()) || !dest.is_gate(gb.index())) {
        continue;
      }
      const Signal z = outer[3 - i - j];
      const auto fa = virtual_fanins(dest, ga);
      const auto fb = virtual_fanins(dest, gb);
      const auto m = match_shared_pair(fa, fb);
      if (!m) {
        continue;
      }
      // Profitable if both inner gates die afterwards (their last use is
      // here), or if the rewritten form needs no new node at all.
      const bool expendable = inner_is_expendable[i] && inner_is_expendable[j];
      if (require_free || !expendable) {
        const auto inner = dest.find_maj(m->u, m->v, z);
        if (!inner) {
          continue;
        }
        const auto outer_sig = dest.find_maj(m->x, m->y, *inner);
        if (!outer_sig) {
          continue;
        }
        return *outer_sig;
      }
      const Signal inner = dest.create_maj(m->u, m->v, z);
      return dest.create_maj(m->x, m->y, inner);
    }
  }
  return std::nullopt;
}

template <typename Dest>
std::optional<Signal> try_associativity(
    Dest& dest, Signal a, Signal b, Signal c,
    const std::array<bool, 3>& inner_is_expendable) {
  const std::array<Signal, 3> outer{a, b, c};
  for (int ci = 0; ci < 3; ++ci) {
    const Signal cs = outer[ci];
    if (!dest.is_gate(cs.index())) {
      continue;
    }
    // Reshaping only pays off when the inner gate is on its last use:
    // otherwise we keep the old gate alive *and* add a new one.
    if (!inner_is_expendable[ci]) {
      continue;
    }
    const auto inner_f = virtual_fanins(dest, cs);
    // The two outer siblings; one must match an inner fanin (the shared u).
    const Signal s0 = outer[(ci + 1) % 3];
    const Signal s1 = outer[(ci + 2) % 3];
    for (const Signal u : inner_f) {
      const Signal x = (u == s0) ? s1 : (u == s1) ? s0 : Signal{};
      if (u != s0 && u != s1) {
        continue;
      }
      // Leftover inner fanins besides u:
      std::array<Signal, 2> rest{};
      int r = 0;
      bool skipped_u = false;
      for (const Signal f : inner_f) {
        if (f == u && !skipped_u) {
          skipped_u = true;
          continue;
        }
        rest[r++] = f;
      }
      if (r != 2) {
        continue;
      }
      const Signal y = rest[0];
      const Signal z = rest[1];
      // Ω.A variants: ⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩ = ⟨y u ⟨z u x⟩⟩.
      // Adopt a variant only when its inner gate is free (strash hit).
      if (const auto inner = dest.find_maj(y, u, x)) {
        return dest.create_maj(z, u, *inner);
      }
      if (const auto inner = dest.find_maj(z, u, x)) {
        return dest.create_maj(y, u, *inner);
      }
    }
  }
  return std::nullopt;
}

template std::optional<Signal> try_distributivity_rl(
    Mig&, Signal, Signal, Signal, const std::array<bool, 3>&, bool);
template std::optional<Signal> try_distributivity_rl(
    SourcePrefix&, Signal, Signal, Signal, const std::array<bool, 3>&, bool);
template std::optional<Signal> try_associativity(
    Mig&, Signal, Signal, Signal, const std::array<bool, 3>&);
template std::optional<Signal> try_associativity(
    SourcePrefix&, Signal, Signal, Signal, const std::array<bool, 3>&);

}  // namespace plim::mig::algebra
