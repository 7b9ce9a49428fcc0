#pragma once

#include <cstdint>

namespace plim::sched {

/// The placement cost model of the scheduler's bank assignment: "what
/// does it cost to put this cluster in bank b?", plus the bus and
/// duplication economics the list scheduler and refinement price.
///
/// Costs are expressed in *instructions*: a cross-bank value transfer
/// materializes as `transfer_instructions` RM3 operations in the
/// consuming bank (reset + OR-copy), and load imbalance is measured in
/// surplus instructions over the least-loaded bank.
struct CostModel {
  /// Maximum cross-bank copies the inter-bank bus carries per lockstep
  /// step; 0 models an unbounded (idealized) bus.
  std::uint32_t bus_width = 0;

  /// Instructions one cross-bank transfer costs in the consuming bank
  /// (reset + OR-copy with the remote cell as operand A).
  std::uint32_t transfer_instructions = 2;

  /// Remote values whose producing instruction chain is at most this long
  /// (and reads only inputs and constants) are *recomputed* in the
  /// consuming bank instead of copied over the bus: same instruction
  /// count, but no bus slot and no cross-bank dependence. 0 disables
  /// duplication.
  std::uint32_t duplicate_max_instructions = 2;

  /// Cost of placing a cluster onto a bank currently carrying `bank_load`
  /// instructions (least-loaded bank: `min_load`) when the move needs
  /// `transfers` cross-bank copies: the copies' instructions plus the
  /// bank's surplus load, both in instructions and weighed alike. The
  /// load term prices the transfers' landing cost too: every copy
  /// materializes as `transfer_instructions` RM3 ops *in the consuming
  /// bank*, so a lightly loaded bank that needs many transfers is not
  /// actually cheap. Without this, wide circuits over-fragment — clusters
  /// chase the emptiest bank, each dragging a transfer chain behind it
  /// (the adder-at-8-banks utilization collapse).
  [[nodiscard]] double placement_cost(std::uint32_t transfers,
                                      std::uint64_t bank_load,
                                      std::uint64_t min_load) const {
    const auto effective =
        bank_load + std::uint64_t{transfer_instructions} * transfers;
    const auto excess = effective > min_load ? effective - min_load : 0;
    return static_cast<double>(transfer_instructions) *
               static_cast<double>(transfers) +
           static_cast<double>(excess);
  }

  /// Whether recomputing a producer chain of `chain_instructions` beats
  /// copying its value over the bus.
  [[nodiscard]] bool should_duplicate(
      std::uint32_t chain_instructions) const {
    return chain_instructions <= duplicate_max_instructions;
  }
};

}  // namespace plim::sched
