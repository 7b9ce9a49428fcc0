#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mig/mig.hpp"

namespace plim::mig {

/// Fanout count of every node: gate parents (reachable or not) plus PO
/// references. Passes that only ask "is this the last use?" need nothing
/// more than this array.
[[nodiscard]] std::vector<std::uint32_t> fanout_counts(const Mig& mig);

/// Precomputed fanout information for a Mig, stored as CSR: one row of
/// parent gates per node, back to back in a single array.
///
/// The view is a snapshot: it is not updated when the network changes.
/// The PLiM compiler (releasing-children heuristic, destination overwrite
/// safety), the conditional inverter pass (complement-transfer
/// profitability) and `shuffle_topological` consume this.
class FanoutView {
 public:
  explicit FanoutView(const Mig& mig);

  /// Gate nodes that use `n` as a fanin, in ascending index order (each
  /// parent listed once; a gate cannot reference the same child twice
  /// thanks to Ω.M folding).
  [[nodiscard]] std::span<const node> parents(node n) const {
    return {parents_.data() + offsets_[n], offsets_[n + 1] - offsets_[n]};
  }

  /// Number of primary outputs that reference `n`.
  [[nodiscard]] std::uint32_t num_po_refs(node n) const {
    return po_refs_[n];
  }

  /// Total fanout = parent gates + PO references.
  [[nodiscard]] std::uint32_t fanout_count(node n) const {
    return offsets_[n + 1] - offsets_[n] + po_refs_[n];
  }

 private:
  std::vector<std::uint32_t> offsets_;  ///< row n is [offsets_[n], offsets_[n+1])
  std::vector<node> parents_;
  std::vector<std::uint32_t> po_refs_;
};

}  // namespace plim::mig
