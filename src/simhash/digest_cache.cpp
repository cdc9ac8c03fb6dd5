#include "simhash/digest_cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace cryptodrop::simhash {

DigestCache::DigestCache(std::size_t capacity)
    : per_shard_capacity_(std::max<std::size_t>(1, (capacity + kShards - 1) / kShards)) {}

DigestCache::Shard& DigestCache::shard_for(const Bytes* key) {
  // Heap addresses share their low (alignment) bits; a Fibonacci hash
  // spreads them and the top bits pick the shard.
  static_assert(std::has_single_bit(kShards));
  const auto address = reinterpret_cast<std::uintptr_t>(key);
  const std::uint64_t mixed = static_cast<std::uint64_t>(address) * 0x9E3779B97F4A7C15ull;
  return shards_[mixed >> (64 - std::countr_zero(kShards))];
}

// cryptodrop:hot
std::optional<SimilarityDigest> DigestCache::get_or_compute(
    const std::shared_ptr<const Bytes>& content) {
  assert(content != nullptr);
  const Bytes* key = content.get();
  Shard& shard = shard_for(key);

  {
    std::lock_guard lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->digest;
    }
    ++shard.misses;
  }

  // Compute outside the lock: digests of large files are the expensive
  // part, and two threads racing on the same content just do the work
  // twice — both arrive at the identical deterministic digest. The
  // caller's reference keeps the bytes immutable meanwhile.
  std::optional<SimilarityDigest> digest = SimilarityDigest::compute(ByteView(*content));

  std::lock_guard lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Lost the race; the existing entry is equivalent.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->digest;
  }
  shard.lru.push_front(Entry{content, digest});
  shard.index.emplace(key, shard.lru.begin());
  // Orphans first: a pin that is its object's last owner can never be
  // looked up again (nothing else can name the object), so its entry
  // goes before any live entry. The new entry is safe: `content` is
  // still held by the caller.
  for (auto entry = shard.lru.begin(); entry != shard.lru.end();) {
    if (entry->pin.use_count() == 1) {
      shard.index.erase(entry->pin.get());
      entry = shard.lru.erase(entry);
    } else {
      ++entry;
    }
  }
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().pin.get());
    shard.lru.pop_back();
    ++shard.evictions;
  }
  return digest;
}

void DigestCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
}

DigestCacheStats DigestCache::stats() const {
  DigestCacheStats out;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.evictions += shard.evictions;
    out.entries += shard.lru.size();
  }
  return out;
}

DigestCache& DigestCache::global() {
  static DigestCache cache;
  return cache;
}

}  // namespace cryptodrop::simhash
