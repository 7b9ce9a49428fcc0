#include "core/allocator.hpp"

#include <algorithm>

namespace plim::core {

std::optional<std::uint32_t> RramAllocator::take_free() {
  if (policy_ == AllocationPolicy::fresh || free_.empty()) {
    return std::nullopt;
  }
  std::uint32_t cell;
  if (policy_ == AllocationPolicy::fifo) {
    cell = free_.front();
    free_.pop_front();
  } else {
    cell = free_.back();
    free_.pop_back();
  }
  return cell;
}

bool RramAllocator::evict_until_free() {
  // Under `fresh`, released cells are never reused, so evicting live
  // values can never satisfy a pending request — fail immediately
  // instead of looping while the handler sheds cells for nothing.
  if (!evict_ || policy_ == AllocationPolicy::fresh) {
    return false;
  }
  while (free_.empty()) {
    if (!evict_()) {
      return false;
    }
    ++evictions_;
  }
  return true;
}

std::uint32_t RramAllocator::request() {
  auto cell = take_free();
  if (!cell) {
    if (!cap_ || next_ < *cap_) {
      cell = next_++;
    } else if (evict_until_free()) {
      cell = take_free();
    } else {
      throw RramCapExceeded(*cap_);
    }
  }
  ++live_;
  peak_ = std::max(peak_, live_);
  return *cell;
}

void RramAllocator::release(std::uint32_t cell) {
  free_.push_back(cell);
  --live_;
}

}  // namespace plim::core
