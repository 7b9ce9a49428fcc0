#include "serve/cache.hpp"

#include <algorithm>

namespace plim::serve {

std::shared_ptr<const CompileOutcome> CompileCache::lookup(
    const StructuralKey& key) {
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

std::shared_ptr<const CompileOutcome> CompileCache::lookup_content(
    const ContentKey& content) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = aliases_.find(content);
  if (it == aliases_.end()) {
    return nullptr;
  }
  ++hits_;
  ++content_hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->outcome;
}

void CompileCache::erase(Lru::iterator entry) {
  for (std::size_t a = 0; a < entry->num_aliases; ++a) {
    aliases_.erase(entry->aliases[a]);
  }
  bytes_ -= entry->bytes;
  index_.erase(entry->key);
  lru_.erase(entry);
}

void CompileCache::insert(const StructuralKey& key,
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
  lru_.push_front(Entry{key, std::move(outcome), bytes, {}, 0});
  index_[key] = lru_.begin();
  bytes_ += bytes;
  ++insertions_;
  while (bytes_ > max_bytes_ && lru_.size() > 1) {
    erase(std::prev(lru_.end()));
    ++evictions_;
  }
}

void CompileCache::add_alias(const ContentKey& content,
                             const StructuralKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return;
  }
  const auto entry = it->second;
  if (!aliases_.try_emplace(content, entry).second) {
    return;
  }
  if (entry->num_aliases == kMaxAliases) {
    aliases_.erase(entry->aliases[0]);
    std::rotate(entry->aliases.begin(), entry->aliases.begin() + 1,
                entry->aliases.end());
    --entry->num_aliases;
  }
  entry->aliases[entry->num_aliases++] = content;
}

CompileCache::Stats CompileCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.content_hits = content_hits_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.aliases = aliases_.size();
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
