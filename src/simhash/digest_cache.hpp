// Process-wide cache of similarity digests keyed by content object.
//
// Digesting a file is the engine's most expensive measurement (rolling-
// hash feature selection over the whole content). The experiment zoo
// drives hundreds of trials over clones of one corpus, and the VFS's
// copy-on-write content sharing means every trial's pristine baselines
// are the *same* `shared_ptr<const Bytes>` objects — so the digest of
// each corpus file needs to be computed exactly once, process-wide.
// Keying by identity loses no hits worth having and hashes nothing:
// on the Table-I campaign replay (perfbench) all 3,541 baseline lookups
// that hit were such a shared object, and equal content in a separate
// buffer practically never recurs.
//
// The key is the object's address, and every entry pins a strong
// reference to it. The pin keeps the address from being reused and
// makes `vfs::FileSystem::write` copy instead of mutating in place (its
// fast path needs the node to be the sole owner), so the bytes behind a
// key never change while the entry exists: an identity hit can never
// be stale. An entry whose pin is the last owner can never be hit
// again; each insert reclaims the shard's such orphans before it
// evicts any live entry by LRU.
//
// The cache is sharded (16 ways, by a hash of the address) so
// concurrent trials do not serialize on one mutex, and bounded per shard
// with LRU eviction. Negative results — content too small or too
// featureless to digest — are cached too; they recur just as often and
// are cheap.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/ranked_mutex.hpp"
#include "simhash/similarity.hpp"

namespace cryptodrop::simhash {

/// Aggregated counters across all shards (see stats()).
struct DigestCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< Live entries pushed out by the LRU bound.
  std::size_t entries = 0;
};

/// The sharded, LRU-bounded digest cache described above.
class DigestCache {
 public:
  /// Total entries across all shards (rounded up to a per-shard bound).
  explicit DigestCache(std::size_t capacity = kDefaultCapacity);

  DigestCache(const DigestCache&) = delete;
  DigestCache& operator=(const DigestCache&) = delete;

  /// Returns the cached digest of the content object `content` (which
  /// must not be null), computing it and pinning `content` on miss. A
  /// nullopt digest (content not digestible) is a valid cached value.
  std::optional<SimilarityDigest> get_or_compute(
      const std::shared_ptr<const Bytes>& content);

  /// Drops every entry and its pin (stats are kept).
  void clear();

  /// Snapshot of the hit/miss/eviction counters.
  [[nodiscard]] DigestCacheStats stats() const;

  /// The cache shared by every engine with `share_digest_cache` set.
  static DigestCache& global();

  static constexpr std::size_t kDefaultCapacity = 8192;

 private:
  static constexpr std::size_t kShards = 16;

  /// One cached digest and the pin that keeps its key's bytes fixed.
  struct Entry {
    std::shared_ptr<const Bytes> pin;  ///< Keeps the key's bytes immutable.
    std::optional<SimilarityDigest> digest;
  };

  /// One lock's worth of entries, LRU-ordered, indexed by address.
  struct Shard {
    /// Rank 30: acquired under an engine file shard on digest misses.
    mutable common::RankedMutex<common::lockrank::kDigestCache> mu;
    /// Most-recently-used entries at the front.
    std::list<Entry> lru;
    std::unordered_map<const Bytes*, std::list<Entry>::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// The shard owning `key` (by a hash of the address).
  Shard& shard_for(const Bytes* key);

  std::size_t per_shard_capacity_;
  std::array<Shard, kShards> shards_;
};

}  // namespace cryptodrop::simhash
