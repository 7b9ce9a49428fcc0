#include "serve/cache.hpp"

#include <iterator>

namespace plim::serve {

std::shared_ptr<const CompileOutcome> CompileCache::lookup(
    const CacheKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->outcome;
}

void CompileCache::erase(Lru::iterator entry) {
  bytes_ -= entry->bytes;
  index_.erase(entry->key);
  lru_.erase(entry);
}

void CompileCache::insert(const CacheKey& key,
                          std::shared_ptr<const CompileOutcome> outcome) {
  if (outcome == nullptr) {
    return;
  }
  const auto bytes = approx_bytes(*outcome);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (bytes > max_bytes_) {
    return;  // oversized (or caching disabled): never admitted
  }
  if (const auto it = index_.find(key); it != index_.end()) {
    erase(it->second);
  }
  lru_.push_front(Entry{key, std::move(outcome), bytes});
  index_[key] = lru_.begin();
  bytes_ += bytes;
  ++insertions_;
  while (bytes_ > max_bytes_ && lru_.size() > 1) {
    erase(std::prev(lru_.end()));
    ++evictions_;
  }
}

CompileCache::Stats CompileCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  s.max_bytes = max_bytes_;
  return s;
}

std::size_t CompileCache::approx_bytes(const CompileOutcome& outcome) {
  constexpr std::size_t kEntryOverhead = 1024;  // stats, diags, bookkeeping
  std::size_t bytes = kEntryOverhead;
  bytes += outcome.program.num_instructions() * sizeof(arch::Instruction);
  if (outcome.parallel) {
    const auto& parallel = *outcome.parallel;
    for (std::uint32_t s = 0; s < parallel.num_steps(); ++s) {
      // A slot is an instruction plus its bank tag; 2x instruction size
      // is a fair flat estimate.
      bytes += parallel.step(s).size() * 2 * sizeof(arch::Instruction);
    }
    bytes += parallel.sync_edges().size() * 4 * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace plim::serve
