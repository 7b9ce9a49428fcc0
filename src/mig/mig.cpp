#include "mig/mig.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace plim::mig {

Mig::Mig() {
  // Node 0: the constant-0 node.
  Node constant_node;
  constant_node.kind = NodeKind::constant;
  nodes_.push_back(constant_node);
}

Signal Mig::create_pi(std::string name) {
  const node n = static_cast<node>(nodes_.size());
  Node pi_node;
  pi_node.kind = NodeKind::pi;
  pi_node.aux = static_cast<std::uint32_t>(pis_.size());
  nodes_.push_back(pi_node);
  pis_.push_back(n);
  if (name.empty()) {
    name = "i" + std::to_string(pis_.size());
  }
  pi_names_.push_back(std::move(name));
  return Signal(n, false);
}

std::uint32_t Mig::create_po(Signal f, std::string name) {
  assert(f.index() < nodes_.size());
  const auto id = static_cast<std::uint32_t>(pos_.size());
  pos_.push_back(f);
  if (name.empty()) {
    name = "o" + std::to_string(id + 1);
  }
  po_names_.push_back(std::move(name));
  return id;
}

namespace {

/// Trivial Ω.M folding: the signal ⟨abc⟩ reduces to when two fanins share
/// a node (two equal fanins, or a pair x/x̄). These also fold constant
/// pairs, e.g. ⟨01z⟩ = z and ⟨00z⟩ = 0.
std::optional<Signal> fold_trivial(Signal a, Signal b, Signal c) {
  if (a == b) {
    return a;
  }
  if (a == !b) {
    return c;
  }
  if (a == c) {
    return a;
  }
  if (a == !c) {
    return b;
  }
  if (b == c) {
    return b;
  }
  if (b == !c) {
    return a;
  }
  return std::nullopt;
}

/// The strash key: the three raw fanin values in ascending order (Ω.C:
/// MAJ is fully commutative).
std::array<std::uint32_t, 3> sorted_key(Signal a, Signal b, Signal c) {
  std::uint32_t x = a.raw();
  std::uint32_t y = b.raw();
  std::uint32_t z = c.raw();
  if (x > y) {
    std::swap(x, y);
  }
  if (y > z) {
    std::swap(y, z);
  }
  if (x > y) {
    std::swap(x, y);
  }
  return {x, y, z};
}

/// Mixes all 96 key bits into the low bits the table masks.
std::size_t strash_hash(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  std::uint64_t h = ((std::uint64_t{a} << 32) | b) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 29) ^ c) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

constexpr std::size_t kMinStrashSlots = 64;

}  // namespace

void Mig::reserve(std::uint32_t nodes) {
  nodes_.reserve(nodes);
  // Half load at `nodes` gates, so no insertion below that size grows.
  const std::size_t slots = std::bit_ceil(2 * std::size_t{nodes});
  if (slots > strash_.size()) {
    strash_rehash(std::max(slots, kMinStrashSlots));
  }
}

std::size_t Mig::strash_probe(std::uint32_t a, std::uint32_t b,
                              std::uint32_t c) const noexcept {
  const std::size_t mask = strash_.size() - 1;
  for (std::size_t i = strash_hash(a, b, c) & mask;; i = (i + 1) & mask) {
    const StrashSlot& slot = strash_[i];
    if (slot.gate == 0 || (slot.a == a && slot.b == b && slot.c == c)) {
      return i;
    }
  }
}

void Mig::strash_rehash(std::size_t capacity) {
  std::vector<StrashSlot> old(capacity);
  old.swap(strash_);
  for (const StrashSlot& slot : old) {
    if (slot.gate != 0) {
      strash_[strash_probe(slot.a, slot.b, slot.c)] = slot;
    }
  }
}

Signal Mig::create_maj(Signal a, Signal b, Signal c) {
  assert(a.index() < nodes_.size());
  assert(b.index() < nodes_.size());
  assert(c.index() < nodes_.size());
  if (const auto folded = fold_trivial(a, b, c)) {
    return *folded;
  }

  // The strash key uses the fanins sorted by raw value, but the node
  // stores them in *creation order*: the paper's naïve translation assigns
  // RM3 slots "in order of the node's children from left to right", so
  // child order is meaningful and must survive construction. Complement
  // bits stay exactly where the caller put them (see class comment).
  const auto [x, y, z] = sorted_key(a, b, c);
  std::size_t slot = 0;
  if (!strash_.empty()) {
    slot = strash_probe(x, y, z);
    if (strash_[slot].gate != 0) {
      ++strash_hits_;
      return Signal(strash_[slot].gate, false);
    }
  }
  if ((std::size_t{num_gates_} + 1) * 2 > strash_.size()) {
    strash_rehash(std::max(2 * strash_.size(), kMinStrashSlots));
    slot = strash_probe(x, y, z);
  }

  const node n = static_cast<node>(nodes_.size());
  Node gate;
  gate.kind = NodeKind::gate;
  gate.fanin = {a, b, c};
  nodes_.push_back(gate);
  strash_[slot] = StrashSlot{x, y, z, n};
  ++num_gates_;
  return Signal(n, false);
}

std::optional<Signal> Mig::find_maj(Signal a, Signal b, Signal c) const {
  if (const auto folded = fold_trivial(a, b, c)) {
    return folded;
  }
  if (strash_.empty()) {
    return std::nullopt;
  }
  const auto [x, y, z] = sorted_key(a, b, c);
  if (const node gate = strash_[strash_probe(x, y, z)].gate; gate != 0) {
    return Signal(gate, false);
  }
  return std::nullopt;
}

Signal Mig::create_and(Signal a, Signal b) {
  return create_maj(a, b, get_constant(false));
}

Signal Mig::create_or(Signal a, Signal b) {
  // De Morgan (AIG-style) form ¬⟨ā b̄ 0⟩: initial networks use only the
  // constant-0 fanin, exactly like the paper's transposed starting MIGs;
  // complements live on edges where the rewriting engine can move them.
  return !create_and(!a, !b);
}

Signal Mig::create_xor(Signal a, Signal b) {
  // AIG decomposition (a ∧ b̄) ∨ (ā ∧ b); 3 MAJ gates.
  return create_or(create_and(a, !b), create_and(!a, b));
}

Signal Mig::create_ite(Signal sel, Signal t, Signal e) {
  // (sel ∧ t) ∨ (¬sel ∧ e); 3 MAJ gates.
  return create_or(create_and(sel, t), create_and(!sel, e));
}

Signal Mig::create_xor3(Signal a, Signal b, Signal c) {
  // a⊕b⊕c = ⟨¬⟨abc⟩, ⟨a b c̄⟩, c⟩ — the majority-native 3-gate form
  // (shared with create_full_adder where ⟨abc⟩ is the carry).
  const Signal m = create_maj(a, b, c);
  const Signal u = create_maj(a, b, !c);
  return create_maj(!m, u, c);
}

Mig::FullAdder Mig::create_full_adder(Signal a, Signal b, Signal c) {
  const Signal carry = create_maj(a, b, c);
  const Signal u = create_maj(a, b, !c);
  const Signal sum = create_maj(!carry, u, c);
  return FullAdder{sum, carry};
}

std::vector<std::uint32_t> Mig::levels() const {
  std::vector<std::uint32_t> level(nodes_.size(), 0);
  for (node n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].kind != NodeKind::gate) {
      continue;
    }
    std::uint32_t max_child = 0;
    for (const auto f : nodes_[n].fanin) {
      max_child = std::max(max_child, level[f.index()]);
    }
    level[n] = max_child + 1;
  }
  return level;
}

std::uint32_t Mig::depth() const {
  const auto level = levels();
  std::uint32_t d = 0;
  for (const auto po : pos_) {
    d = std::max(d, level[po.index()]);
  }
  return d;
}

}  // namespace plim::mig
