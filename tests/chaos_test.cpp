// Chaos campaigns (ctest label: chaos): the zoo and the benign suite
// replayed over a faulted substrate. The detector's results must hold —
// full TPR, no new false positives, comparable files lost — and the
// whole campaign must stay bit-identical at any job count, fault stream
// included.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/text.hpp"
#include "core/engine.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "sim/benign/benign.hpp"
#include "sim/ransomware/families.hpp"
#include "simhash/digest_cache.hpp"
#include "vfs/filesystem.hpp"

namespace cryptodrop::harness {
namespace {

constexpr double kFaultRate = 0.10;
constexpr std::uint64_t kFaultSeed = 2016;

class ChaosTest : public ::testing::Test {
 protected:
  static Environment* env;

  static void SetUpTestSuite() {
    corpus::CorpusSpec spec;
    spec.total_files = 400;
    spec.total_dirs = 40;
    spec.compute_hashes = false;
    env = new Environment(make_environment(spec, 123));
  }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }

  /// An even slice through the Table-I zoo (preserves family variety).
  static std::vector<sim::SampleSpec> zoo_subset(std::size_t count) {
    const std::vector<sim::SampleSpec> all = sim::table1_samples(1);
    std::vector<sim::SampleSpec> picked;
    const double stride =
        static_cast<double>(all.size()) / static_cast<double>(count);
    for (std::size_t i = 0; i < count; ++i) {
      picked.push_back(all[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
    }
    return picked;
  }

  /// The paper's scoring over a uniformly faulted volume.
  static RunPlan chaos_plan() {
    RunPlan plan;
    plan.faults.emplace();
    plan.faults->plan = vfs::FaultPlan::uniform(kFaultRate, kFaultSeed);
    return plan;
  }
};

Environment* ChaosTest::env = nullptr;

std::uint64_t total_faults(const obs::MetricsSnapshot& snap) {
  std::uint64_t total = 0;
  for (const obs::CounterSnapshot& c : snap.counters) {
    if (c.name.rfind("faults_injected_total.", 0) == 0) total += c.value;
  }
  return total;
}

TEST_F(ChaosTest, ZooKeepsFullTPRUnderFaults) {
  const auto specs = zoo_subset(10);
  const auto results = run_campaign(*env, specs, chaos_plan());
  ASSERT_EQ(results.size(), specs.size());
  std::size_t detected = 0;
  for (const auto& r : results) {
    EXPECT_TRUE(r.detected) << r.family << " escaped under faults";
    detected += r.detected ? 1 : 0;
  }
  EXPECT_EQ(detected, specs.size());  // 100% TPR at a 10% fault rate
  // Fault counts are metrics; -DCRYPTODROP_NO_METRICS compiles them out
  // (the faults themselves are still injected).
  if (obs::kMetricsEnabled) {
    EXPECT_GT(total_faults(merged_metrics(results)), 0u)
        << "campaign ran fault-free; the chaos plan was not applied";
  }
}

TEST_F(ChaosTest, FilesLostStaysComparableToFaultFree) {
  const auto specs = zoo_subset(10);
  const auto faulted = run_campaign(*env, specs, chaos_plan());
  const auto clean = run_campaign(*env, specs, {});
  const double faulted_median = median(files_lost_values(faulted));
  const double clean_median = median(files_lost_values(clean));
  // Faults can nudge loss both ways (failed encryption writes lose
  // fewer files; delayed detection loses more) but must not change its
  // order of magnitude.
  EXPECT_LE(faulted_median, clean_median * 2.0 + 4.0);
  EXPECT_GE(faulted_median + 4.0, clean_median / 2.0);
}

TEST_F(ChaosTest, BenignSuiteAddsNoNewFalsePositives) {
  const auto workloads = sim::all_benign_workloads();
  const auto faulted = run_benign_suite(*env, workloads, 9, chaos_plan());
  const auto clean = run_benign_suite(*env, workloads, 9, {});
  ASSERT_EQ(faulted.size(), clean.size());
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    EXPECT_EQ(faulted[i].app, clean[i].app);
    if (faulted[i].detected && !faulted[i].expected_false_positive) {
      EXPECT_TRUE(clean[i].detected)
          << faulted[i].app << " became a false positive only under faults";
    }
  }
}

TEST_F(ChaosTest, CampaignIsBitIdenticalAcrossJobCounts) {
  const auto specs = zoo_subset(8);
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 3;
  const auto r1 = run_campaign(*env, specs, chaos_plan(), serial);
  const auto r3 = run_campaign(*env, specs, chaos_plan(), parallel);
  ASSERT_EQ(r1.size(), r3.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].detected, r3[i].detected) << i;
    EXPECT_EQ(r1[i].files_lost, r3[i].files_lost) << i;
    EXPECT_EQ(r1[i].final_score, r3[i].final_score) << i;
    EXPECT_EQ(r1[i].union_triggered, r3[i].union_triggered) << i;
  }
  // The full counter picture — engine counters and injected-fault
  // counters alike — is part of the determinism contract.
  const obs::MetricsSnapshot m1 = merged_metrics(r1);
  const obs::MetricsSnapshot m3 = merged_metrics(r3);
  ASSERT_EQ(m1.counters.size(), m3.counters.size());
  for (std::size_t i = 0; i < m1.counters.size(); ++i) {
    EXPECT_EQ(m1.counters[i].name, m3.counters[i].name);
    EXPECT_EQ(m1.counters[i].value, m3.counters[i].value) << m1.counters[i].name;
  }
  if (obs::kMetricsEnabled) {
    EXPECT_GT(total_faults(m1), 0u);
  }
}

TEST_F(ChaosTest, BenignSuiteIsBitIdenticalAcrossJobCounts) {
  const auto workloads = sim::all_benign_workloads();
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 3;
  const auto r1 = run_benign_suite(*env, workloads, 9, chaos_plan(), serial);
  const auto r3 = run_benign_suite(*env, workloads, 9, chaos_plan(), parallel);
  ASSERT_EQ(r1.size(), r3.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].detected, r3[i].detected) << r1[i].app;
    EXPECT_EQ(r1[i].final_score, r3[i].final_score) << r1[i].app;
  }
  const obs::MetricsSnapshot m1 = merged_metrics(r1);
  const obs::MetricsSnapshot m3 = merged_metrics(r3);
  ASSERT_EQ(m1.counters.size(), m3.counters.size());
  for (std::size_t i = 0; i < m1.counters.size(); ++i) {
    EXPECT_EQ(m1.counters[i].value, m3.counters[i].value) << m1.counters[i].name;
  }
}

TEST_F(ChaosTest, DigestCacheNeverStaleAfterTruncateThenRewrite) {
  // Regression guard for the close-path digest-retention optimisation:
  // the engine now keeps the freshly measured digest as the next
  // baseline, and the shared DigestCache is keyed by content object —
  // neither may ever hand back the *old* content's digest after a
  // truncate-then-rewrite, or the similarity indicator would compare
  // ransomware output against itself and stay silent.
  core::ScoringConfig config;
  config.protected_root = "users/victim/documents";
  config.score_threshold = 1000000;  // indicators only; no suspension
  config.union_threshold = 1000000;
  config.share_digest_cache = true;

  Rng rng(777);
  const Bytes prose = to_bytes(synth_prose(rng, 30000));
  const Bytes noise = rng.bytes(30000);
  const std::string path = "users/victim/documents/ledger.txt";

  for (int round = 0; round < 2; ++round) {
    // Two rounds over the same content through one process-wide cache:
    // round 2 replays round 1's exact bytes (each round in fresh
    // buffers, which the identity-keyed cache must treat as new).
    vfs::FileSystem fs;
    core::AnalysisEngine engine(config);
    fs.attach_filter(&engine);
    const vfs::ProcessId pid = fs.register_process("subject");
    ASSERT_TRUE(fs.put_file_raw(path, prose).is_ok());
    ASSERT_TRUE(fs.read_file(pid, path).is_ok());

    // Truncate-then-rewrite with unrelated bytes: the baseline digest
    // (captured pre-truncate) must be compared against the *new*
    // content's digest, never a stale cached one.
    auto h = fs.open(pid, path, vfs::kWrite | vfs::kTruncate);
    ASSERT_TRUE(h.is_ok());
    ASSERT_TRUE(fs.write(pid, h.value(), ByteView(noise)).is_ok());
    ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
    EXPECT_EQ(engine.process_report(pid).similarity_drop_events, 1u)
        << "round " << round;

    // Rewrite back to the original prose: the retained baseline is now
    // the noise digest, so similarity must drop again — a stale "prose"
    // baseline would instead report a perfect match here.
    auto h2 = fs.open(pid, path, vfs::kWrite | vfs::kTruncate);
    ASSERT_TRUE(h2.is_ok());
    ASSERT_TRUE(fs.write(pid, h2.value(), ByteView(prose)).is_ok());
    ASSERT_TRUE(fs.close(pid, h2.value()).is_ok());
    EXPECT_EQ(engine.process_report(pid).similarity_drop_events, 2u)
        << "round " << round;
  }

  // Cache-level check of the same hazard, keyed by content object.
  simhash::DigestCache cache(64);
  const auto prose_object = std::make_shared<const Bytes>(prose);
  const auto before = cache.get_or_compute(prose_object);
  const auto after = cache.get_or_compute(std::make_shared<const Bytes>(noise));
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(after.has_value());
  EXPECT_FALSE(*before == *after);
  const auto fresh = simhash::SimilarityDigest::compute(ByteView(noise));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(*after == *fresh);
  const auto replay = cache.get_or_compute(prose_object);
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(*replay == *before);
}

TEST_F(ChaosTest, DigestCachePinSurvivesWriteAfterEngineIsGone) {
  // The shared cache keys digests by buffer identity, which is only
  // sound if a pinned buffer's bytes never change. The pin must outlive
  // the engine that digested the buffer and force FileSystem::write's
  // copy-on-write path even when the file node is otherwise the
  // buffer's only owner.
  core::ScoringConfig config;
  config.protected_root = "users/victim/documents";
  config.score_threshold = 1000000;  // indicators only; no suspension
  config.union_threshold = 1000000;
  config.share_digest_cache = true;

  Rng rng(778);
  const Bytes prose = to_bytes(synth_prose(rng, 30000));
  const Bytes noise = rng.bytes(30000);
  const std::string path = "users/victim/documents/draft.txt";

  vfs::FileSystem base;
  ASSERT_TRUE(base.put_file_raw(path, prose).is_ok());
  const Bytes* pinned = base.read_unfiltered(path).get();
  {
    // A trial on a copy-on-write clone: its engine digests the shared
    // buffer as the baseline of the file being rewritten.
    vfs::FileSystem trial = base.clone();
    core::AnalysisEngine engine(config);
    trial.attach_filter(&engine);
    const vfs::ProcessId pid = trial.register_process("subject");
    auto h = trial.open(pid, path, vfs::kWrite | vfs::kTruncate);
    ASSERT_TRUE(h.is_ok());
    ASSERT_TRUE(trial.write(pid, h.value(), ByteView(noise)).is_ok());
    ASSERT_TRUE(trial.close(pid, h.value()).is_ok());
    ASSERT_EQ(engine.process_report(pid).similarity_drop_events, 1u);
  }  // engine and clone are gone: `base` and the cache's pin remain

  const vfs::ProcessId pid = base.register_process("editor");
  auto h = base.open(pid, path, vfs::kWrite);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(base.write(pid, h.value(), ByteView(noise)).is_ok());
  ASSERT_TRUE(base.close(pid, h.value()).is_ok());

  const std::shared_ptr<const Bytes> written = base.read_unfiltered(path);
  ASSERT_NE(written, nullptr);
  EXPECT_NE(written.get(), pinned) << "write mutated a pinned buffer in place";
  // Checked before the next insert, which may reclaim the now-orphaned pin.
  EXPECT_EQ(*pinned, prose);
  const auto looked_up = simhash::DigestCache::global().get_or_compute(written);
  const auto fresh = simhash::SimilarityDigest::compute(ByteView(*written));
  ASSERT_TRUE(looked_up.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(*looked_up == *fresh);
}

TEST_F(ChaosTest, InvalidPlanIsRejectedBeforeAnyTrialRuns) {
  RunPlan plan;
  plan.faults.emplace();
  plan.faults->plan.write.io_error = 7.0;
  EXPECT_THROW(run_campaign(*env, zoo_subset(2), plan), std::invalid_argument);
  EXPECT_THROW(run_benign_suite(*env, sim::all_benign_workloads(), 9, plan),
               std::invalid_argument);
}

}  // namespace
}  // namespace cryptodrop::harness
