#include "sched/incremental.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace plim::sched {

IncrementalEval::IncrementalEval(const DependenceGraph& graph,
                                 const CostModel& cost, std::uint32_t banks)
    : graph_(graph),
      banks_(banks),
      transfer_instructions_(cost.transfer_instructions) {
  def_mark_.assign(graph.num_read_defs(), 0);
  old_bank_.assign(graph.num_segments(), 0);
  seg_mark_.assign(graph.num_segments(), 0);
  bank_eff_.assign(banks_, 0);
  banks_before_.reserve(banks_);
  banks_after_.reserve(banks_);
}

void IncrementalEval::anchor(const std::vector<std::uint32_t>& seg_bank,
                             const RefineEval& exact) {
  bank_eff_.assign(banks_, 0);
  for (std::uint32_t s = 0; s < seg_bank.size(); ++s) {
    bank_eff_[seg_bank[s]] += graph_.segment_size(s);
  }
  // One copy (transfer_instructions RM3 ops) per distinct (def, consuming
  // bank) pair lands in the consuming bank.
  for (std::uint32_t d = 0; d < graph_.num_read_defs(); ++d) {
    const auto pb = seg_bank[graph_.producer_segment(d)];
    banks_after_.clear();
    for (const auto rs : graph_.reader_segments(d)) {
      const auto b = seg_bank[rs];
      if (b != pb && std::find(banks_after_.begin(), banks_after_.end(), b) ==
                         banks_after_.end()) {
        banks_after_.push_back(b);
        bank_eff_[b] += transfer_instructions_;
      }
    }
  }
  const auto peak =
      *std::max_element(bank_eff_.begin(), bank_eff_.end());
  transfers_ = exact.transfers;
  chain_ = exact.chain;
  const auto bound =
      std::max<std::uint64_t>(chain_, peak);
  overhead_ = exact.steps > bound
                  ? static_cast<std::uint32_t>(exact.steps - bound)
                  : 0;
}

IncrementalEval::Estimate IncrementalEval::estimate(
    const std::vector<std::uint32_t>& trial,
    const std::vector<MovedSeg>& moved) const {
  std::int64_t transfer_delta = 0;
  bank_delta_.clear();
  const auto bump = [&](std::uint32_t bank, std::int64_t delta) {
    for (auto& [b, d] : bank_delta_) {
      if (b == bank) {
        d += delta;
        return;
      }
    }
    bank_delta_.emplace_back(bank, delta);
  };

  // Overlay: the moved segments' previous banks, stamped so lookups stay
  // O(1) without clearing between trials.
  ++stamp_;
  for (const auto& [seg, from] : moved) {
    seg_mark_[seg] = stamp_;
    old_bank_[seg] = from;
  }
  const auto bank_before = [&](std::uint32_t s) {
    return seg_mark_[s] == stamp_ ? old_bank_[s] : trial[s];
  };

  // Raw instruction load follows the moved segments.
  for (const auto& [seg, from] : moved) {
    const auto to = trial[seg];
    if (to == from) {
      continue;
    }
    const auto size = std::int64_t{graph_.segment_size(seg)};
    bump(from, -size);
    bump(to, size);
  }

  // Re-cost every def the moved segments produce or read: only these can
  // change their distinct-consuming-bank copy sets. def_mark_ dedups
  // defs shared between moved segments; it is stamped with the *same*
  // stamp_ epoch (distinct arrays, no collision).
  const auto visit_def = [&](std::uint32_t d) {
    if (def_mark_[d] == stamp_) {
      return;
    }
    def_mark_[d] = stamp_;
    const auto ps = graph_.producer_segment(d);
    const auto pb0 = bank_before(ps);
    const auto pb1 = trial[ps];
    banks_before_.clear();
    banks_after_.clear();
    for (const auto rs : graph_.reader_segments(d)) {
      const auto b0 = bank_before(rs);
      const auto b1 = trial[rs];
      if (b0 != pb0 && std::find(banks_before_.begin(), banks_before_.end(),
                                 b0) == banks_before_.end()) {
        banks_before_.push_back(b0);
      }
      if (b1 != pb1 && std::find(banks_after_.begin(), banks_after_.end(),
                                 b1) == banks_after_.end()) {
        banks_after_.push_back(b1);
      }
    }
    transfer_delta += static_cast<std::int64_t>(banks_after_.size()) -
                      static_cast<std::int64_t>(banks_before_.size());
    for (const auto b : banks_after_) {
      if (std::find(banks_before_.begin(), banks_before_.end(), b) ==
          banks_before_.end()) {
        bump(b, std::int64_t{transfer_instructions_});
      }
    }
    for (const auto b : banks_before_) {
      if (std::find(banks_after_.begin(), banks_after_.end(), b) ==
          banks_after_.end()) {
        bump(b, -std::int64_t{transfer_instructions_});
      }
    }
  };
  for (const auto& [seg, from] : moved) {
    (void)from;
    for (const auto d : graph_.defs_produced_by(seg)) {
      visit_def(d);
    }
    for (const auto d : graph_.defs_read_by(seg)) {
      visit_def(d);
    }
  }

  std::uint64_t peak = 0;
  for (std::uint32_t b = 0; b < banks_; ++b) {
    auto load = static_cast<std::int64_t>(bank_eff_[b]);
    for (const auto& [bb, dd] : bank_delta_) {
      if (bb == b) {
        load += dd;
      }
    }
    peak = std::max(peak, static_cast<std::uint64_t>(std::max<std::int64_t>(
                              load, 0)));
  }
  Estimate est;
  // Steps: the anchored schedule's packing overhead rides on top of
  // whichever bound binds — the chain (invariant under this model) or
  // the peak effective load the move just changed.
  est.steps = overhead_ + static_cast<std::uint32_t>(
                              std::max<std::uint64_t>(chain_, peak));
  const auto xfer = static_cast<std::int64_t>(transfers_) + transfer_delta;
  est.transfers = static_cast<std::uint32_t>(std::max<std::int64_t>(xfer, 0));
  return est;
}

}  // namespace plim::sched
