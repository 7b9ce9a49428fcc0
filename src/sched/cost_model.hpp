#pragma once

#include <cstdint>

namespace plim::sched {

/// Instructions one cross-bank transfer costs in the consuming bank: the
/// reset plus the OR-copy (remote cell as operand A) that the scheduler
/// emits for every copy. Costs are expressed in instructions throughout.
inline constexpr std::uint32_t kTransferInstructions = 2;

/// The settable part of the scheduler's cost model: the inter-bank bus.
/// Transfer, placement and duplication prices are fixed (below).
struct CostModel {
  /// Maximum cross-bank copies the inter-bank bus carries per lockstep
  /// step; 0 models an unbounded (idealized) bus.
  std::uint32_t bus_width = 0;
};

/// Cost of placing a cluster onto a bank currently carrying `bank_load`
/// instructions (least-loaded bank: `min_load`) when the move needs
/// `transfers` cross-bank copies: the copies' instructions plus the
/// bank's surplus load, both in instructions and weighed alike. The load
/// term prices the transfers' landing cost too: every copy materializes
/// as kTransferInstructions RM3 ops *in the consuming bank*, so a lightly
/// loaded bank that needs many transfers is not actually cheap. Without
/// this, wide circuits over-fragment — clusters chase the emptiest bank,
/// each dragging a transfer chain behind it (the adder-at-8-banks
/// utilization collapse).
[[nodiscard]] inline double placement_cost(std::uint32_t transfers,
                                           std::uint64_t bank_load,
                                           std::uint64_t min_load) {
  const auto effective =
      bank_load + std::uint64_t{kTransferInstructions} * transfers;
  const auto excess = effective > min_load ? effective - min_load : 0;
  return static_cast<double>(kTransferInstructions) *
             static_cast<double>(transfers) +
         static_cast<double>(excess);
}

/// Whether a remote value is *recomputed* in the consuming bank instead
/// of copied over the bus: its producing instruction chain (which reads
/// only inputs and constants) is no longer than a transfer, so it costs
/// no more instructions, and it needs no bus slot and no cross-bank
/// dependence.
[[nodiscard]] inline bool should_duplicate(std::uint32_t chain_instructions) {
  return chain_instructions <= kTransferInstructions;
}

}  // namespace plim::sched
