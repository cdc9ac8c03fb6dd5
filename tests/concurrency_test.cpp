// Concurrency coverage for the sharded AnalysisEngine (DESIGN.md §9).
//
// The event streams here are driven straight through the Filter
// interface from multiple threads — the multi-threaded-VFS scenario the
// scoreboard/file shards exist for. The streams stick to read, write
// and remove events, which never consult the attached FileSystem, so no
// engine is attached to one (the in-memory FileSystem itself stays
// single-threaded by contract).
//
// Build with -DCRYPTODROP_SANITIZE=thread to run this file (and the
// whole suite) under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/engine.hpp"
#include "simhash/digest_cache.hpp"

namespace cryptodrop::core {
namespace {

constexpr const char* kRoot = "users/victim/documents";

std::string doc(vfs::ProcessId pid, std::size_t i) {
  return std::string(kRoot) + "/t" + std::to_string(pid) + "/f" +
         std::to_string(i) + ".txt";
}

vfs::OperationEvent event(vfs::OpType op, vfs::ProcessId pid, vfs::FileId file,
                          std::string path, ByteView data = {}) {
  vfs::OperationEvent ev;
  ev.op = op;
  ev.pid = pid;
  ev.process_name = "worker" + std::to_string(pid);
  ev.path = std::move(path);
  ev.file_id = file;
  ev.data = data;
  return ev;
}

/// One thread's deterministic workload: alternating plaintext reads and
/// high-entropy writes (entropy-delta scoring), plus removals (deletion
/// scoring). Payload buffers live in the struct so event ByteViews stay
/// valid for the test's lifetime.
struct ThreadScript {
  vfs::ProcessId pid = 0;
  std::vector<Bytes> payloads;
  std::vector<vfs::OperationEvent> events;

  explicit ThreadScript(vfs::ProcessId p, std::size_t rounds) : pid(p) {
    Rng rng(1000 + p);
    payloads.reserve(rounds * 2);
    for (std::size_t i = 0; i < rounds; ++i) {
      payloads.push_back(to_bytes(synth_prose(rng, 6000)));
      payloads.push_back(rng.bytes(6000));  // ciphertext stand-in
    }
    for (std::size_t i = 0; i < rounds; ++i) {
      const vfs::FileId id = p * 10000 + i + 1;
      events.push_back(event(vfs::OpType::read, p, id, doc(p, i),
                             ByteView(payloads[i * 2])));
      events.push_back(event(vfs::OpType::write, p, id, doc(p, i),
                             ByteView(payloads[i * 2 + 1])));
      events.push_back(event(vfs::OpType::remove, p, id, doc(p, i)));
    }
  }

  void run(AnalysisEngine& engine) const {
    for (const vfs::OperationEvent& ev : events) {
      // Mirror the VFS: pre callback, apply, post callback on success.
      if (engine.pre_operation(ev) == vfs::Verdict::allow) {
        engine.post_operation(ev, Status::ok());
      }
    }
  }
};

ScoringConfig stress_config() {
  ScoringConfig config;
  config.protected_root = kRoot;
  config.enable_family_scoring = false;  // no FileSystem attached
  config.score_threshold = 1'000'000;
  config.union_threshold = 1'000'000;
  config.record_timeline = false;  // op_seq interleaving is schedule-dependent
  return config;
}

TEST(EngineConcurrency, ParallelDriversMatchSerialReplay) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 40;

  std::vector<ThreadScript> scripts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    scripts.emplace_back(static_cast<vfs::ProcessId>(t + 1), kRounds);
  }

  AnalysisEngine parallel(stress_config());
  {
    std::vector<std::thread> pool;
    for (const ThreadScript& script : scripts) {
      pool.emplace_back([&script, &parallel] { script.run(parallel); });
    }
    for (std::thread& t : pool) t.join();
  }

  AnalysisEngine serial(stress_config());
  for (const ThreadScript& script : scripts) script.run(serial);

  const EngineSnapshot got = parallel.snapshot();
  const EngineSnapshot want = serial.snapshot();
  EXPECT_EQ(got.observed_ops, want.observed_ops);
  ASSERT_EQ(got.processes.size(), kThreads);
  ASSERT_EQ(want.processes.size(), kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    const ProcessReport& g = got.processes[i];
    const ProcessReport& w = want.processes[i];
    EXPECT_EQ(g.pid, w.pid);
    // Distinct pids have independent scoreboard state, so cross-thread
    // interleaving must not be observable in any per-process number.
    EXPECT_EQ(g.score, w.score) << "pid " << g.pid;
    EXPECT_EQ(g.entropy_events, w.entropy_events) << "pid " << g.pid;
    EXPECT_EQ(g.deletion_events, w.deletion_events) << "pid " << g.pid;
    EXPECT_EQ(g.funneling_events, w.funneling_events) << "pid " << g.pid;
    EXPECT_DOUBLE_EQ(g.read_entropy_mean, w.read_entropy_mean) << "pid " << g.pid;
    EXPECT_DOUBLE_EQ(g.write_entropy_mean, w.write_entropy_mean) << "pid " << g.pid;
    EXPECT_EQ(g.suspended, w.suspended);
  }
}

TEST(EngineConcurrency, SharedPidScoresCommutativelyAndAlertsOnce) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRemoves = 50;

  ScoringConfig config = stress_config();
  // Deletion points are order-independent (fixed 14 per event), so the
  // contended total is exact; the threshold sits mid-stream so exactly
  // one of the racing threads must win the suspension.
  config.score_threshold = static_cast<int>(kThreads * kRemoves * 14 / 2);
  config.union_threshold = config.score_threshold;
  AnalysisEngine engine(config);

  std::atomic<int> alert_count{0};
  engine.set_alert_callback([&](const Alert& alert) {
    ++alert_count;
    EXPECT_EQ(alert.pid, 1u);
    EXPECT_GE(alert.score, alert.threshold);
  });

  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &engine] {
      for (std::size_t i = 0; i < kRemoves; ++i) {
        const vfs::FileId id = t * 1000 + i + 1;
        const vfs::OperationEvent ev =
            event(vfs::OpType::remove, /*pid=*/1, id, doc(1, t * 1000 + i));
        (void)engine.pre_operation(ev);
        engine.post_operation(ev, Status::ok());
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(alert_count.load(), 1);
  const ProcessReport report = engine.snapshot().report_for(1);
  EXPECT_TRUE(report.suspended);
  EXPECT_EQ(report.deletion_events, kThreads * kRemoves);
  EXPECT_EQ(report.score, static_cast<int>(kThreads * kRemoves * 14));
}

TEST(EngineConcurrency, SnapshotsAreInternallyConsistentUnderLoad) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kRemoves = 300;

  ScoringConfig config = stress_config();
  config.record_timeline = true;  // per-pid timeline: schedule-independent sums
  AnalysisEngine engine(config);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([t, &engine] {
      const auto pid = static_cast<vfs::ProcessId>(t + 1);
      for (std::size_t i = 0; i < kRemoves; ++i) {
        const vfs::OperationEvent ev =
            event(vfs::OpType::remove, pid, t * 1000 + i + 1, doc(pid, i));
        (void)engine.pre_operation(ev);
        engine.post_operation(ev, Status::ok());
      }
    });
  }

  std::thread reader([&] {
    std::uint64_t last_ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const EngineSnapshot snap = engine.snapshot();
      EXPECT_GE(snap.observed_ops, last_ops);  // ops never run backwards
      last_ops = snap.observed_ops;
      for (const ProcessReport& report : snap.processes) {
        // A torn read would break score == sum(timeline points).
        int total = 0;
        for (const ScoreEvent& ev : report.timeline) total += ev.points;
        EXPECT_EQ(report.score, total) << "pid " << report.pid;
        EXPECT_EQ(report.deletion_events, report.timeline.size());
      }
    }
  });

  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  const EngineSnapshot final_snap = engine.snapshot();
  ASSERT_EQ(final_snap.processes.size(), kWriters);
  for (const ProcessReport& report : final_snap.processes) {
    EXPECT_EQ(report.deletion_events, kRemoves);
  }
}

TEST(EngineConcurrency, DigestCacheIsSharedSafelyAcrossThreads) {
  simhash::DigestCache cache(/*capacity=*/64);
  Rng rng(7);
  const auto big = std::make_shared<const Bytes>(to_bytes(synth_prose(rng, 4096)));
  const auto small = std::make_shared<const Bytes>(to_bytes("too small for sdhash"));

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLookups = 50;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = 0; i < kLookups; ++i) {
        const auto digest = cache.get_or_compute(big);
        ASSERT_TRUE(digest.has_value());
        // Cached digest must be the digest of *this* content.
        const auto direct = simhash::SimilarityDigest::compute(ByteView(*big));
        EXPECT_EQ(digest->compare(*direct), 100);
        // Negative results (undigestable content) are cached too.
        EXPECT_FALSE(cache.get_or_compute(small).has_value());
      }
    });
  }
  for (std::thread& t : pool) t.join();

  const simhash::DigestCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kLookups * 2);
  // Every lookup after the initial fills (racing threads may each miss
  // once per key before the first insert lands) is a hit.
  EXPECT_GE(stats.hits, kThreads * kLookups * 2 - 2 * kThreads);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(EngineConcurrency, DigestCacheEvictsAtCapacity) {
  simhash::DigestCache cache(/*capacity=*/16);  // 1 entry per shard
  Rng rng(11);
  // Kept alive: only live entries are evicted by the LRU bound.
  std::vector<std::shared_ptr<const Bytes>> contents;
  for (int i = 0; i < 64; ++i) {
    contents.push_back(std::make_shared<const Bytes>(rng.bytes(1024)));
    (void)cache.get_or_compute(contents.back());
  }
  const simhash::DigestCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 64u);
  EXPECT_LE(stats.entries, 16u);
  EXPECT_EQ(stats.evictions, 64u - stats.entries);
}

TEST(EngineConcurrency, DigestCacheReclaimsOrphansBeforeLiveEntries) {
  simhash::DigestCache cache(/*capacity=*/32);  // 2 entries per shard
  Rng rng(13);
  const auto live = std::make_shared<const Bytes>(to_bytes(synth_prose(rng, 4096)));
  const auto live_digest = cache.get_or_compute(live);
  ASSERT_TRUE(live_digest.has_value());

  // Content dropped after its lookup leaves an entry whose pin is the
  // object's last owner. It stays until the next insert into its shard.
  auto dropped = std::make_shared<const Bytes>(rng.bytes(1024));
  (void)cache.get_or_compute(dropped);
  dropped.reset();
  EXPECT_EQ(cache.stats().entries, 2u);

  for (int i = 0; i < 64; ++i) {
    (void)cache.get_or_compute(std::make_shared<const Bytes>(rng.bytes(1024)));
  }
  const simhash::DigestCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 66u);
  // Each insert reclaimed its shard's orphans first, so the live entry
  // always had room: nothing was LRU-evicted, and at most the latest
  // orphan per shard remains next to the live entry.
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 1u + 16u);
  const auto again = cache.get_or_compute(live);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(*again == *live_digest);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Without capacity pressure the same sweep makes the entry count drop
  // once the content objects are gone.
  simhash::DigestCache roomy;
  std::vector<std::shared_ptr<const Bytes>> batch;
  for (int i = 0; i < 48; ++i) {
    batch.push_back(std::make_shared<const Bytes>(rng.bytes(64)));
    (void)roomy.get_or_compute(batch.back());
  }
  EXPECT_EQ(roomy.stats().entries, 48u);
  batch.clear();
  for (int i = 0; i < 64; ++i) {
    (void)roomy.get_or_compute(std::make_shared<const Bytes>(rng.bytes(64)));
  }
  EXPECT_LT(roomy.stats().entries, 48u);
  EXPECT_EQ(roomy.stats().evictions, 0u);
}

}  // namespace
}  // namespace cryptodrop::core
