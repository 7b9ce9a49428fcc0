#include "mig/views.hpp"

namespace plim::mig {

std::vector<std::uint32_t> fanout_counts(const Mig& mig) {
  std::vector<std::uint32_t> count(mig.size(), 0);
  mig.foreach_gate([&](node n) {
    for (const auto f : mig.fanins(n)) {
      ++count[f.index()];
    }
  });
  mig.foreach_po([&](Signal f, std::uint32_t) { ++count[f.index()]; });
  return count;
}

FanoutView::FanoutView(const Mig& mig)
    : offsets_(mig.size() + 1, 0), po_refs_(mig.size(), 0) {
  // Count each row, prefix-sum into row ends, then fill every row from
  // its end walking the gates downwards: rows list parents ascending and
  // each offsets_[n] ends at its row's start.
  mig.foreach_gate([&](node n) {
    for (const auto f : mig.fanins(n)) {
      ++offsets_[f.index()];
    }
  });
  for (std::size_t n = 1; n < offsets_.size(); ++n) {
    offsets_[n] += offsets_[n - 1];
  }
  parents_.resize(offsets_.back());
  for (node n = mig.size(); n-- > 0;) {
    if (mig.is_gate(n)) {
      for (const auto f : mig.fanins(n)) {
        parents_[--offsets_[f.index()]] = n;
      }
    }
  }
  mig.foreach_po([&](Signal f, std::uint32_t) { ++po_refs_[f.index()]; });
}

}  // namespace plim::mig
