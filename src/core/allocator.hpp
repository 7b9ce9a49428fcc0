#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

namespace plim::core {

/// Reuse discipline for released RRAM cells (§4.2.3 of the paper).
enum class AllocationPolicy : std::uint8_t {
  /// The oldest released cell is reused first. This is the paper's
  /// endurance-aware choice: recently released cells rest longest, so
  /// writes spread evenly over the array (wear levelling).
  fifo,
  /// The most recently released cell is reused first (stack discipline);
  /// minimizes address churn but concentrates wear. Ablation baseline.
  lifo,
  /// Never reuse: every request allocates a fresh cell. Ablation baseline
  /// showing how much the free list saves (#R explodes without it).
  fresh,
};

/// Thrown when an `rram_cap` constraint (future-work extension of the
/// paper) is violated during compilation and no eviction handler could
/// recover capacity. Carries the violated cap and, when the thrower knows
/// it, the honest live-set lower bound — the smallest capacity *any*
/// compilation strategy could work in — so callers can distinguish a
/// recoverable squeeze from genuine infeasibility.
class RramCapExceeded : public std::runtime_error {
 public:
  explicit RramCapExceeded(std::uint32_t cap,
                           std::uint32_t live_lower_bound = 0)
      : std::runtime_error(
            "RRAM capacity exceeded (cap = " + std::to_string(cap) +
            (live_lower_bound > 0
                 ? ", live-set lower bound = " + std::to_string(live_lower_bound)
                 : std::string{}) +
            ")"),
        cap_(cap),
        live_lower_bound_(live_lower_bound) {}

  [[nodiscard]] std::uint32_t cap() const noexcept { return cap_; }
  /// 0 when the thrower could not compute a bound.
  [[nodiscard]] std::uint32_t live_lower_bound() const noexcept {
    return live_lower_bound_;
  }

 private:
  std::uint32_t cap_;
  std::uint32_t live_lower_bound_;
};

/// Called when a request would exceed the capacity: the handler should
/// `release()` at least one live cell and return true, or return false
/// when it cannot — the request then fails with RramCapExceeded.
/// Handlers must not request cells.
using EvictionHandler = std::function<bool()>;

/// The RRAM allocation interface of §4.2.3 over the paper's flat
/// single-bank array: `request` returns a ready cell (reusing released
/// ones per policy), `release` returns a cell to the free list. Under an
/// `rram_cap`, an optional eviction handler turns the hard capacity
/// cliff into a callback: the compiler picks a victim live cell to spill
/// (recompute-on-evict) instead of aborting.
class RramAllocator {
 public:
  explicit RramAllocator(AllocationPolicy policy = AllocationPolicy::fifo,
                         std::optional<std::uint32_t> cap = std::nullopt)
      : policy_(policy), cap_(cap) {}

  /// Returns a cell id ready for use. When a fresh cell would exceed the
  /// configured capacity, the eviction handler (if any) is consulted
  /// until a reusable cell appears; RramCapExceeded is thrown only when
  /// no handler is set or the handler gives up.
  [[nodiscard]] std::uint32_t request();

  /// Returns a cell to the free list. The caller guarantees the cell's
  /// value is dead.
  void release(std::uint32_t cell);

  /// Installs (or clears, with nullptr) the capacity-pressure callback.
  void set_eviction_handler(EvictionHandler handler) {
    evict_ = std::move(handler);
  }
  /// Evictions the handler performed on this allocator's behalf.
  [[nodiscard]] std::uint32_t evictions() const noexcept {
    return evictions_;
  }

  /// Total distinct cells ever allocated — the paper's #R metric.
  [[nodiscard]] std::uint32_t total_allocated() const noexcept {
    return next_;
  }
  /// Cells currently holding live values.
  [[nodiscard]] std::uint32_t live() const noexcept { return live_; }
  /// High-water mark of live cells.
  [[nodiscard]] std::uint32_t peak_live() const noexcept { return peak_; }

  [[nodiscard]] AllocationPolicy policy() const noexcept { return policy_; }

 private:
  /// Pops a reusable cell per the configured policy (FIFO: oldest
  /// released, LIFO: newest; nullopt under `fresh` or when the free list
  /// is empty) — the one place the reuse discipline lives.
  [[nodiscard]] std::optional<std::uint32_t> take_free();
  /// Runs the eviction handler until it surrenders or a released cell
  /// appears on the free list. Returns true in the latter case. Under
  /// the `fresh` policy eviction is pointless (released cells are never
  /// reused) and the call fails immediately.
  bool evict_until_free();

  AllocationPolicy policy_;
  std::optional<std::uint32_t> cap_;
  EvictionHandler evict_;
  std::deque<std::uint32_t> free_;
  std::uint32_t next_ = 0;
  std::uint32_t live_ = 0;
  std::uint32_t peak_ = 0;
  std::uint32_t evictions_ = 0;
};

}  // namespace plim::core
