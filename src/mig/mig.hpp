#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mig/signal.hpp"

namespace plim::mig {

/// Majority-Inverter Graph (MIG) — a logic network whose only gate is the
/// three-input majority function ⟨abc⟩ = ab ∨ ac ∨ bc, with optional
/// complement (inverter) attributes on every edge [Amarù et al., DAC'14].
///
/// Design decisions relevant to the PLiM reproduction:
///  * Node 0 is the constant-0 node; constant 1 is its complement. This
///    matches the paper's "MIGs that only have the constant 0 child".
///  * `create_maj` applies only the trivial Ω.M simplifications (two equal
///    fanins, or a fanin pair x/x̄) and structural hashing with fanins
///    sorted by raw signal value. It deliberately does NOT canonicalize
///    complement polarity (e.g. ⟨x̄ȳz̄⟩ → ¬⟨xyz⟩); complement distribution
///    is the quantity the DAC'16 rewriting algorithm optimizes, so it must
///    be under the caller's control.
///  * The structural hash table is one flat open-addressing array (linear
///    probing, power-of-two capacity, grown at half load), so building a
///    network allocates per doubling, not per gate.
///  * Nodes are append-only and indices are topologically ordered. Logic
///    restructuring is performed by reconstruction passes (see
///    mig/rewriting.hpp) rather than in-place surgery; `cleanup_dangling`
///    compacts a network to its POs' transitive fanin.
class Mig {
 public:
  enum class NodeKind : std::uint8_t { constant, pi, gate };

  Mig();

  // ---- construction -----------------------------------------------------

  /// Reserves room for `nodes` nodes (constant, PIs and gates) so that
  /// building a network of that size reallocates neither the node array
  /// nor the structural hash table. Never changes the network.
  void reserve(std::uint32_t nodes);

  /// Constant signal; `get_constant(true)` is the complemented constant-0.
  [[nodiscard]] Signal get_constant(bool value) const noexcept {
    return Signal(0, value);
  }

  /// Creates a primary input. An empty name is auto-assigned ("i<k>").
  Signal create_pi(std::string name = {});

  /// Registers a primary output; returns the PO index.
  std::uint32_t create_po(Signal f, std::string name = {});

  /// Creates (or structurally reuses) a majority gate ⟨abc⟩.
  Signal create_maj(Signal a, Signal b, Signal c);

  /// Pure lookup: returns the signal ⟨abc⟩ would produce if it requires no
  /// new node (trivial Ω.M folding or an existing structural twin);
  /// std::nullopt otherwise. Never modifies the network. Rewriting uses
  /// this to accept reshaped forms only when they are free.
  [[nodiscard]] std::optional<Signal> find_maj(Signal a, Signal b,
                                               Signal c) const;

  // Derived operators, all expressed through create_maj. They build
  // AIG-style structures: AND gates ⟨ab0⟩ with only the constant-0 fanin,
  // ORs via De Morgan, so complements sit on edges. This matches the
  // paper's transposed starting networks ("MIGs that only have the
  // constant 0 child") and leaves complement optimization to rewriting.
  Signal create_and(Signal a, Signal b);
  Signal create_or(Signal a, Signal b);
  Signal create_nand(Signal a, Signal b) { return !create_and(a, b); }
  Signal create_nor(Signal a, Signal b) { return !create_or(a, b); }
  /// XOR via (a ∧ b̄) ∨ (ā ∧ b): 3 MAJ nodes.
  Signal create_xor(Signal a, Signal b);
  Signal create_xnor(Signal a, Signal b) { return !create_xor(a, b); }
  /// if-then-else: sel ? t : e  (3 MAJ nodes).
  Signal create_ite(Signal sel, Signal t, Signal e);
  /// Three-input XOR using the classic 2-node MAJ decomposition:
  /// a⊕b⊕c = ⟨¬⟨abc⟩ ⟨ab̄c... see implementation; verified by tests.
  Signal create_xor3(Signal a, Signal b, Signal c);
  /// Full adder: returns {sum, carry} using 1 MAJ for carry + XOR3 for sum.
  struct FullAdder {
    Signal sum;
    Signal carry;
  };
  FullAdder create_full_adder(Signal a, Signal b, Signal c);

  // ---- queries -----------------------------------------------------------

  /// Total number of nodes including the constant node and PIs.
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] std::uint32_t num_pis() const noexcept {
    return static_cast<std::uint32_t>(pis_.size());
  }
  [[nodiscard]] std::uint32_t num_pos() const noexcept {
    return static_cast<std::uint32_t>(pos_.size());
  }
  /// Number of majority gates (the paper's #N).
  [[nodiscard]] std::uint32_t num_gates() const noexcept { return num_gates_; }

  [[nodiscard]] NodeKind kind(node n) const { return nodes_[n].kind; }
  [[nodiscard]] bool is_constant(node n) const {
    return nodes_[n].kind == NodeKind::constant;
  }
  [[nodiscard]] bool is_pi(node n) const {
    return nodes_[n].kind == NodeKind::pi;
  }
  [[nodiscard]] bool is_gate(node n) const {
    return nodes_[n].kind == NodeKind::gate;
  }

  /// Fanins of a gate (exactly three, in creation order — meaningful for
  /// the paper's naïve left-to-right slot assignment).
  [[nodiscard]] const std::array<Signal, 3>& fanins(node n) const {
    assert(is_gate(n));
    return nodes_[n].fanin;
  }

  /// For a PI node: its input position (0-based).
  [[nodiscard]] std::uint32_t pi_index(node n) const {
    assert(is_pi(n));
    return nodes_[n].aux;
  }

  [[nodiscard]] node pi_at(std::uint32_t i) const { return pis_[i]; }
  [[nodiscard]] Signal po_at(std::uint32_t i) const { return pos_[i]; }
  [[nodiscard]] const std::string& pi_name(std::uint32_t i) const {
    return pi_names_[i];
  }
  [[nodiscard]] const std::string& po_name(std::uint32_t i) const {
    return po_names_[i];
  }

  /// Number of structural-hashing hits since construction (for tests and
  /// micro-benchmarks).
  [[nodiscard]] std::uint64_t strash_hits() const noexcept {
    return strash_hits_;
  }

  // ---- iteration ----------------------------------------------------------

  template <typename Fn>
  void foreach_pi(Fn&& fn) const {
    for (const auto n : pis_) {
      fn(n);
    }
  }

  template <typename Fn>
  void foreach_po(Fn&& fn) const {
    for (std::uint32_t i = 0; i < pos_.size(); ++i) {
      fn(pos_[i], i);
    }
  }

  /// Gates in ascending index order (a topological order).
  template <typename Fn>
  void foreach_gate(Fn&& fn) const {
    for (node n = 0; n < nodes_.size(); ++n) {
      if (nodes_[n].kind == NodeKind::gate) {
        fn(n);
      }
    }
  }

  /// All nodes (constant, PIs, gates) in index order.
  template <typename Fn>
  void foreach_node(Fn&& fn) const {
    for (node n = 0; n < nodes_.size(); ++n) {
      fn(n);
    }
  }

  // ---- structural properties ----------------------------------------------

  /// Level of every node (constant/PIs at 0; gate = 1 + max fanin level).
  [[nodiscard]] std::vector<std::uint32_t> levels() const;
  /// Depth = maximum PO level.
  [[nodiscard]] std::uint32_t depth() const;

 private:
  struct Node {
    std::array<Signal, 3> fanin{};
    std::uint32_t aux = 0;  ///< PI position for PI nodes
    NodeKind kind = NodeKind::gate;
  };

  /// One structural-hash slot: the fanins sorted by raw value and the
  /// gate they build. Node 0 (the constant) is never a gate, so `gate == 0`
  /// marks an empty slot.
  struct StrashSlot {
    std::uint32_t a = 0, b = 0, c = 0;
    node gate = 0;
  };

  /// Slot holding the sorted key (a, b, c), or the empty slot where it
  /// would go. Requires a non-empty table.
  [[nodiscard]] std::size_t strash_probe(std::uint32_t a, std::uint32_t b,
                                         std::uint32_t c) const noexcept;
  /// Rehashes every gate into a table of `capacity` slots (a power of two).
  void strash_rehash(std::size_t capacity);

  std::vector<Node> nodes_;
  std::vector<node> pis_;
  std::vector<Signal> pos_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> po_names_;
  std::vector<StrashSlot> strash_;  ///< size 0 or a power of two
  std::uint32_t num_gates_ = 0;
  std::uint64_t strash_hits_ = 0;
};

}  // namespace plim::mig
