#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "driver/driver.hpp"
#include "serve/structural_hash.hpp"

namespace plim::serve {

/// Memory-bounded LRU cache of compiled programs with two indexes.
///
/// - The structural index keys each entry by the structural hash of
///   (MIG, Options), so the same circuit in any bytes, as a named
///   benchmark or as an in-memory MIG shares one entry.
/// - The content index maps content keys (a BLIF file's bytes or a
///   benchmark's name, ⊕ Options) to entries. A request whose content
///   was seen before is answered without a parse, an MIG build or a
///   structural hash. A content key is an alias of the entry its
///   request found or filled: it dies with that entry (eviction or
///   replacement), and an entry keeps only its kMaxAliases newest ones.
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
  /// Content aliases one entry keeps; a newer one drops the oldest.
  static constexpr std::size_t kMaxAliases = 4;

  /// `max_bytes` bounds the *estimated* resident size (approx_bytes of
  /// every cached outcome). 0 disables caching: lookups miss, inserts
  /// and aliases are dropped — one code path for plimc --cache-mb 0.
  explicit CompileCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// The cached outcome for `key`, refreshed to most-recently-used; null
  /// on miss. Counts a hit or a miss.
  [[nodiscard]] std::shared_ptr<const CompileOutcome> lookup(
      const StructuralKey& key);

  /// The outcome of the entry `content` is an alias of, refreshed to
  /// most-recently-used; null when it is no alias. A hit counts as a hit
  /// and a content hit; a miss counts nothing, because the structural
  /// lookup that follows it counts the request.
  [[nodiscard]] std::shared_ptr<const CompileOutcome> lookup_content(
      const ContentKey& content);

  /// Stores `outcome` under `key`, evicting least-recently-used entries
  /// until the estimate fits `max_bytes`. An outcome larger than the
  /// whole budget is not admitted (it would evict everything for one
  /// entry nothing else can share). Re-inserting an existing key
  /// refreshes recency and replaces the value, dropping its aliases.
  void insert(const StructuralKey& key,
              std::shared_ptr<const CompileOutcome> outcome);

  /// Makes `content` an alias of the entry under `key`. A no-op when no
  /// such entry exists (never admitted, evicted meanwhile, or caching
  /// disabled) or `content` is already an alias.
  void add_alias(const ContentKey& content, const StructuralKey& key);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t content_hits = 0;  ///< of `hits`: answered by content
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t aliases = 0;    ///< content keys currently indexed
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
    StructuralKey key;
    std::shared_ptr<const CompileOutcome> outcome;
    std::size_t bytes = 0;
    std::array<ContentKey, kMaxAliases> aliases;  ///< oldest first
    std::size_t num_aliases = 0;
  };
  using Lru = std::list<Entry>;

  /// Unlinks `entry` from both indexes and the LRU list.
  void erase(Lru::iterator entry);

  std::size_t max_bytes_;
  mutable std::mutex mutex_;
  Lru lru_;  ///< front = most recently used
  std::unordered_map<StructuralKey, Lru::iterator, StructuralKeyHash> index_;
  std::unordered_map<ContentKey, Lru::iterator, StructuralKeyHash> aliases_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t content_hits_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace plim::serve
