#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "driver/driver.hpp"
#include "serve/structural_hash.hpp"

namespace plim::serve {

/// Memory-bounded LRU cache of compiled programs, one entry per
/// request key (see request_key: a BLIF file's bytes, a benchmark's
/// name or an in-memory network's structure and port names, ⊕ Options).
///
/// Entries are immutable shared outcomes: a hit hands back the same
/// CompileOutcome object the miss stored, so a hit costs a digest, one
/// map probe and a shared_ptr copy instead of a recompile.
///
/// Thread-safe (one mutex — every operation is O(1) map/list surgery,
/// never a compile). Only successful outcomes are cached; failures stay
/// cheap to reproduce and may be transient (a BLIF file can appear).
class CompileCache {
 public:
  /// `max_bytes` bounds the *estimated* resident size (approx_bytes of
  /// every cached outcome). 0 disables caching: lookups miss and inserts
  /// are dropped — one code path for plimc --cache-mb 0.
  explicit CompileCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// The cached outcome for `key`, refreshed to most-recently-used; null
  /// on miss. Counts a hit or a miss.
  [[nodiscard]] std::shared_ptr<const CompileOutcome> lookup(
      const CacheKey& key);

  /// Stores `outcome` under `key`, evicting least-recently-used entries
  /// until the estimate fits `max_bytes`. An outcome larger than the
  /// whole budget is not admitted (it would evict everything for one
  /// entry nothing else can share). Re-inserting an existing key
  /// refreshes recency and replaces the value.
  void insert(const CacheKey& key,
              std::shared_ptr<const CompileOutcome> outcome);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;      ///< current estimated resident size
    std::size_t max_bytes = 0;  ///< configured bound

    [[nodiscard]] double hit_rate() const {
      const auto total = hits + misses;
      return total > 0 ? static_cast<double>(hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
  };
  [[nodiscard]] Stats stats() const;

  /// Estimated resident bytes of one outcome: the serial program, the
  /// parallel schedule (slots + sync tokens) and a fixed overhead for
  /// stats/diagnostics. An estimate, not an accounting — the bound it
  /// feeds is a sizing knob, not a hard rlimit.
  [[nodiscard]] static std::size_t approx_bytes(const CompileOutcome& outcome);

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const CompileOutcome> outcome;
    std::size_t bytes = 0;
  };
  using Lru = std::list<Entry>;

  /// Unlinks `entry` from the index and the LRU list.
  void erase(Lru::iterator entry);

  std::size_t max_bytes_;
  mutable std::mutex mutex_;
  Lru lru_;  ///< front = most recently used
  std::unordered_map<CacheKey, Lru::iterator, CacheKeyHash> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace plim::serve
