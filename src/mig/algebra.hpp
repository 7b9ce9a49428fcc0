#pragma once

#include <array>
#include <cassert>
#include <optional>

#include "mig/mig.hpp"

namespace plim::mig::algebra {

/// The MIG Boolean algebra Ω [Amarù et al., DAC'14]:
///
///   Ω.C  ⟨xyz⟩ = ⟨yxz⟩ = ⟨zyx⟩                 (commutativity)
///   Ω.M  ⟨xxz⟩ = x,  ⟨xx̄z⟩ = z                  (majority)
///   Ω.A  ⟨xu⟨yuz⟩⟩ = ⟨zu⟨yux⟩⟩                  (associativity)
///   Ω.D  ⟨xy⟨uvz⟩⟩ = ⟨⟨xyu⟩⟨xyv⟩z⟩              (distributivity)
///   Ω.I  ¬⟨xyz⟩ = ⟨x̄ȳz̄⟩                        (inverter propagation)
///
/// This header provides the axioms as *checked local rewrites* used by the
/// PLiM rewriting pass (mig/rewriting.hpp) during network reconstruction.
/// All helpers operate on a destination network under construction; fanin
/// signals passed in must already live in that network. The destination
/// is a `Mig`, or a `SourcePrefix` when a pass only asks whether a rule
/// would change the network.

/// The nodes of `src` below a bound, as a read-only destination. A
/// rebuild that has reproduced `src` node for node up to gate n holds
/// exactly these nodes when it reaches n, so a rule behaves against the
/// prefix bounded at n exactly as it does in that rebuild. Lookups
/// answer from `src`'s structural hash and count a hit only below the
/// bound. `create_maj` answers a fold or a hit like `find_maj`; anything
/// else would add a node, which `created()` reports, and it returns a
/// placeholder.
class SourcePrefix {
 public:
  explicit SourcePrefix(const Mig& src) : src_(src) {}

  void set_bound(node bound) {
    bound_ = bound;
    created_ = false;
  }

  /// Whether a `create_maj` since the last set_bound would add a node.
  [[nodiscard]] bool created() const { return created_; }

  [[nodiscard]] bool is_gate(node n) const { return src_.is_gate(n); }
  [[nodiscard]] const std::array<Signal, 3>& fanins(node n) const {
    return src_.fanins(n);
  }
  [[nodiscard]] std::optional<Signal> find_maj(Signal a, Signal b,
                                               Signal c) const {
    const auto found = src_.find_maj(a, b, c);
    if (found && found->index() >= bound_) {
      return std::nullopt;
    }
    return found;
  }
  Signal create_maj(Signal a, Signal b, Signal c) {
    if (const auto found = find_maj(a, b, c)) {
      return *found;
    }
    created_ = true;
    return Signal{};
  }

 private:
  const Mig& src_;
  node bound_ = 0;
  bool created_ = false;
};

/// Fanins of the gate behind `s` with the edge complement of `s` pushed
/// into them (Ω.I view): if `s` is complemented, every fanin is returned
/// complemented, so that MAJ over the returned triple equals the function
/// of `s` itself. Precondition: `s` points to a gate.
template <typename Net>
[[nodiscard]] std::array<Signal, 3> virtual_fanins(const Net& net, Signal s) {
  assert(net.is_gate(s.index()));
  auto f = net.fanins(s.index());
  if (s.complemented()) {
    for (auto& x : f) {
      x = !x;
    }
  }
  return f;
}

/// Number of complemented *non-constant* fanins of the triple — the PLiM
/// cost driver (exactly one is free in RM3). Complements on constant
/// fanins are ignored: a complemented constant edge is just the other
/// constant value.
[[nodiscard]] unsigned complement_count(const Mig& mig, Signal a, Signal b,
                                        Signal c);

/// Ω.D right-to-left: if two of the fanins are gates whose virtual fanins
/// share a common pair {x, y}, returns ⟨x y ⟨u v z⟩⟩ built in `dest`
/// (u, v the leftover inner fanins, z the remaining outer fanin).
/// `require_free` restricts the rewrite to forms that need no new node.
/// Instantiated for `Mig` and `SourcePrefix`.
template <typename Dest>
[[nodiscard]] std::optional<Signal> try_distributivity_rl(
    Dest& dest, Signal a, Signal b, Signal c,
    const std::array<bool, 3>& inner_is_expendable, bool require_free);

/// Ω.A (plus Ω.C): for ⟨x u C⟩ with gate C = ⟨y u z⟩ sharing a fanin u,
/// tries the associative swaps ⟨z u ⟨y u x⟩⟩ and ⟨y u ⟨z u x⟩⟩ and returns
/// the first variant whose inner node already exists (strash hit), so the
/// reshape is free or size-reducing. Returns std::nullopt otherwise.
/// Instantiated for `Mig` and `SourcePrefix`.
template <typename Dest>
[[nodiscard]] std::optional<Signal> try_associativity(
    Dest& dest, Signal a, Signal b, Signal c,
    const std::array<bool, 3>& inner_is_expendable);

}  // namespace plim::mig::algebra
