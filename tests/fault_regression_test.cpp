// Failure-path regressions: reputation points may only be assessed for
// operations that actually happened. A write denied by a lower filter
// or failed by an injected fault must add zero points and zero
// entropy-mean weight; truncate is a scored modification; the entropy
// floor (EntropyConfig::min_score_bytes) keeps sub-threshold
// writes pointless; and the FaultPlan itself is validated, seeded and
// replayable.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/engine.hpp"
#include "harness/runner.hpp"
#include "sim/benign/benign.hpp"
#include "vfs/fault_filter.hpp"
#include "vfs/filesystem.hpp"

namespace cryptodrop {
namespace {

using core::AnalysisEngine;
using core::ScoringConfig;

constexpr const char* kRoot = "users/victim/documents";

/// A stricter filter below the engine: denies every write in pre, so
/// the engine sees the failed outcome in its post callback.
class DenyWritesFilter : public vfs::Filter {
 public:
  vfs::Verdict pre_operation(const vfs::OperationEvent& event) override {
    return event.op == vfs::OpType::write ? vfs::Verdict::deny
                                          : vfs::Verdict::allow;
  }
};

std::uint64_t counter_value(const AnalysisEngine& engine, std::string_view name) {
  const obs::CounterSnapshot* c = engine.metrics_snapshot().counter(name);
  return c == nullptr ? 0 : c->value;
}

// The behavior under test (denied writes score nothing, truncate is
// scored, fault replay) holds in every build; the *counter* assertions
// need recording, which -DCRYPTODROP_NO_METRICS compiles out, so those
// are gated on obs::kMetricsEnabled.
constexpr bool kCounted = obs::kMetricsEnabled;

class FaultRegressionTest : public ::testing::Test {
 protected:
  vfs::FileSystem fs;
  ScoringConfig config;
  std::unique_ptr<AnalysisEngine> engine;
  vfs::ProcessId pid = 0;
  Rng rng{42};

  void SetUp() override { config.protected_root = kRoot; }

  void attach() {
    config.union_threshold = std::min(config.union_threshold, config.score_threshold);
    ASSERT_TRUE(config.validate().is_ok());
    engine = std::make_unique<AnalysisEngine>(config);
    fs.attach_filter(engine.get());
    pid = fs.register_process("suspect");
  }

  std::string doc(const std::string& name) { return std::string(kRoot) + "/" + name; }

  void put_prose(const std::string& path, std::size_t n) {
    ASSERT_TRUE(fs.put_file_raw(path, to_bytes(synth_prose(rng, n))).is_ok());
  }
};

// --- writes that never happened score nothing ---------------------------

TEST_F(FaultRegressionTest, DeniedWriteAddsNoPointsAndNoEntropyWeight) {
  attach();
  DenyWritesFilter deny;
  fs.attach_filter(&deny);  // below the engine

  put_prose(doc("a.txt"), 20000);
  ASSERT_TRUE(fs.read_file(pid, doc("a.txt")).is_ok());
  const auto original = fs.read_unfiltered(doc("a.txt"));
  ASSERT_NE(original, nullptr);

  // Ten high-entropy overwrite attempts, all denied below the engine.
  auto h = fs.open(pid, doc("a.txt"), vfs::kWrite);
  ASSERT_TRUE(h.is_ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fs.write(pid, h.value(), rng.bytes(8192)).code(),
              Errc::access_denied);
  }
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  EXPECT_EQ(engine->score(pid), 0);
  EXPECT_EQ(counter_value(*engine, "indicator_events_total.entropy_delta"), 0u);
  EXPECT_EQ(*fs.read_unfiltered(doc("a.txt")), *original);

  // If any denied write had fed the write-entropy mean, rewriting the
  // file's own prose (delta ~ 0 on honest means) would now earn entropy
  // points against the polluted mean.
  fs.detach_filter(&deny);
  ASSERT_TRUE(fs.write_file(pid, doc("a.txt"), ByteView(*original)).is_ok());
  EXPECT_EQ(counter_value(*engine, "indicator_events_total.entropy_delta"), 0u);
  EXPECT_EQ(engine->score(pid), 0);

  fs.detach_filter(engine.get());
}

TEST_F(FaultRegressionTest, FaultedWriteAddsNoPointsAndNoEntropyWeight) {
  attach();
  vfs::FaultPlan plan;
  plan.seed = 7;
  plan.write.io_error = 1.0;  // every write fails below the engine
  vfs::FaultInjectionFilter faults(plan);
  fs.attach_filter(&faults);

  put_prose(doc("a.txt"), 20000);
  ASSERT_TRUE(fs.read_file(pid, doc("a.txt")).is_ok());
  const auto original = fs.read_unfiltered(doc("a.txt"));

  auto h = fs.open(pid, doc("a.txt"), vfs::kWrite);
  ASSERT_TRUE(h.is_ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fs.write(pid, h.value(), rng.bytes(8192)).code(), Errc::io_error);
  }
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  EXPECT_EQ(engine->score(pid), 0);
  EXPECT_EQ(counter_value(*engine, "indicator_events_total.entropy_delta"), 0u);
  if (kCounted) {
    EXPECT_EQ(faults.faults_injected(vfs::FaultKind::io_error), 10u);
  }
  EXPECT_EQ(*fs.read_unfiltered(doc("a.txt")), *original);

  fs.detach_filter(&faults);
  ASSERT_TRUE(fs.write_file(pid, doc("a.txt"), ByteView(*original)).is_ok());
  EXPECT_EQ(counter_value(*engine, "indicator_events_total.entropy_delta"), 0u);
  EXPECT_EQ(engine->score(pid), 0);

  fs.detach_filter(engine.get());
}

TEST_F(FaultRegressionTest, ShortWriteScoresOnlyTheSurvivingPrefix) {
  attach();
  vfs::FaultPlan plan;
  plan.seed = 11;
  plan.write.short_write = 1.0;
  vfs::FaultInjectionFilter faults(plan);
  fs.attach_filter(&faults);

  auto h = fs.open(pid, doc("out.bin"), vfs::kCreate);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.write(pid, h.value(), rng.bytes(8192)).is_ok());
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());

  // The file holds a strict prefix of the requested bytes; the engine
  // survived scoring a post event whose data is smaller than `length`.
  const auto content = fs.read_unfiltered(doc("out.bin"));
  ASSERT_NE(content, nullptr);
  EXPECT_GT(content->size(), 0u);
  EXPECT_LT(content->size(), 8192u);
  if (kCounted) {
    EXPECT_EQ(faults.faults_injected(vfs::FaultKind::short_write), 1u);
  }

  fs.detach_filter(&faults);
  fs.detach_filter(engine.get());
}

// --- truncate is a scored modification ----------------------------------

TEST_F(FaultRegressionTest, TruncateThenRewriteIsCaught) {
  // The truncate-then-rewrite encryptor: clear the file, write
  // ciphertext, close. The pre-image is snapshotted at the truncate, so
  // type-change and similarity-drop fire exactly as for an in-place
  // overwrite.
  config.score_threshold = 60;
  attach();
  for (int i = 0; i < 20; ++i) put_prose(doc("f" + std::to_string(i) + ".txt"), 15000);

  for (int i = 0; i < 20 && !engine->is_suspended(pid); ++i) {
    const std::string path = doc("f" + std::to_string(i) + ".txt");
    auto data = fs.read_file(pid, path);
    if (!data.is_ok()) break;
    auto h = fs.open(pid, path, vfs::kWrite);
    if (!h.is_ok()) break;
    ASSERT_TRUE(fs.truncate(pid, h.value(), 0).is_ok());
    (void)fs.write(pid, h.value(), rng.bytes(data.value().size()));
    ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  }
  EXPECT_TRUE(engine->is_suspended(pid));
  if (kCounted) {
    EXPECT_GT(counter_value(*engine, "indicator_events_total.type_change"), 0u);
  }
  fs.detach_filter(engine.get());
}

TEST_F(FaultRegressionTest, TruncateToZeroIsObservedWithoutCrashing) {
  // Truncate-to-zero and close: the post-image is empty, so similarity
  // digesting degrades (nothing to digest) instead of crashing, and the
  // degraded-measurement counter says so.
  attach();
  put_prose(doc("a.txt"), 15000);
  auto h = fs.open(pid, doc("a.txt"), vfs::kWrite);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.truncate(pid, h.value(), 0).is_ok());
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  EXPECT_EQ(fs.read_unfiltered(doc("a.txt"))->size(), 0u);
  if (kCounted) {
    EXPECT_GE(counter_value(*engine, "baselines_captured_total"), 1u);
    EXPECT_GE(counter_value(*engine, "degraded_measurements_total"), 1u);
  }
  fs.detach_filter(engine.get());
}

// --- entropy floor cutoff -----------------------------------------------

TEST_F(FaultRegressionTest, EntropyMinScoreBytesGatesTinyWrites) {
  // Same tiny-high-entropy-write workload under two configs: the default
  // floor (1 byte) assesses entropy points, a 128-byte floor assesses
  // none — the one-point floor of scaled_entropy_points no longer turns
  // dribbles of random bytes into reputation.
  auto entropy_events_for = [&](std::size_t min_bytes) {
    vfs::FileSystem local_fs;
    ScoringConfig cfg;
    cfg.protected_root = kRoot;
    cfg.entropy.min_score_bytes = min_bytes;
    cfg.union_threshold = std::min(cfg.union_threshold, cfg.score_threshold);
    AnalysisEngine eng(cfg);
    local_fs.attach_filter(&eng);
    const vfs::ProcessId p = local_fs.register_process("dribbler");
    Rng local_rng(5);
    EXPECT_TRUE(local_fs
                    .put_file_raw(std::string(kRoot) + "/a.txt",
                                  to_bytes(synth_prose(local_rng, 20000)))
                    .is_ok());
    EXPECT_TRUE(local_fs.read_file(p, std::string(kRoot) + "/a.txt").is_ok());
    auto h = local_fs.open(p, std::string(kRoot) + "/drip.bin", vfs::kCreate);
    EXPECT_TRUE(h.is_ok());
    // 64 random bytes measure ~5.8 bits/byte — above the prose read
    // mean, below the full-points size: exactly the floor-point regime.
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(local_fs.write(p, h.value(), local_rng.bytes(64)).is_ok());
    }
    EXPECT_TRUE(local_fs.close(p, h.value()).is_ok());
    const std::uint64_t events =
        counter_value(eng, "indicator_events_total.entropy_delta");
    local_fs.detach_filter(&eng);
    return events;
  };
  if (kCounted) {
    EXPECT_GT(entropy_events_for(1), 0u);
  }
  EXPECT_EQ(entropy_events_for(128), 0u);
}

TEST(EntropyFloorSuiteTest, RaisedFloorAddsNoBenignFalsePositives) {
  // The floor only removes points, so the benign suite's false-positive
  // set must not grow when it is raised to a realistic sector-ish size.
  corpus::CorpusSpec spec;
  spec.total_files = 300;
  spec.total_dirs = 30;
  spec.compute_hashes = false;
  const harness::Environment env = harness::make_environment(spec, 123);
  const auto workloads = sim::all_benign_workloads();

  core::ScoringConfig raised;
  raised.entropy.min_score_bytes = 64;
  const auto defaults = harness::run_benign_suite(env, workloads, 9, {});
  const auto floored =
      harness::run_benign_suite(env, workloads, 9, {raised});
  ASSERT_EQ(defaults.size(), floored.size());
  for (std::size_t i = 0; i < floored.size(); ++i) {
    EXPECT_LE(floored[i].final_score, defaults[i].final_score)
        << floored[i].app;
    if (floored[i].detected) {
      EXPECT_TRUE(defaults[i].detected)
          << floored[i].app << " became a false positive under the floor";
    }
  }
}

TEST_F(FaultRegressionTest, EntropyMinScoreBytesIsValidated) {
  ScoringConfig cfg;
  cfg.entropy.min_score_bytes = cfg.entropy.full_points_bytes + 1;
  EXPECT_FALSE(cfg.validate().is_ok());
  cfg.entropy.min_score_bytes = cfg.entropy.full_points_bytes;
  EXPECT_TRUE(cfg.validate().is_ok());
}

// --- FaultPlan mechanics ------------------------------------------------

TEST(FaultPlanTest, ValidateRejectsOutOfRangeRates) {
  EXPECT_TRUE(vfs::FaultPlan{}.validate().is_ok());
  EXPECT_TRUE(vfs::FaultPlan::uniform(0.25, 9).validate().is_ok());
  vfs::FaultPlan bad;
  bad.write.io_error = 1.5;
  EXPECT_FALSE(bad.validate().is_ok());
  bad.write.io_error = -0.1;
  EXPECT_FALSE(bad.validate().is_ok());
  bad.write.io_error = 0.0;
  bad.close.delay_post = 2.0;
  EXPECT_FALSE(bad.validate().is_ok());
  EXPECT_THROW(vfs::FaultInjectionFilter{bad}, std::invalid_argument);
}

TEST(FaultPlanTest, UniformQuartersTheDenialRate) {
  const vfs::FaultPlan plan = vfs::FaultPlan::uniform(0.2, 1);
  EXPECT_DOUBLE_EQ(plan.write.io_error, 0.2);
  EXPECT_DOUBLE_EQ(plan.write.short_write, 0.2);
  EXPECT_DOUBLE_EQ(plan.read.short_write, 0.0);
  EXPECT_DOUBLE_EQ(plan.open.access_denied, 0.05);
  EXPECT_DOUBLE_EQ(plan.close.delay_post, 0.2);
}

TEST(FaultPlanTest, ReseededMixesSaltDeterministically) {
  vfs::FaultPlan plan = vfs::FaultPlan::uniform(0.1, 99);
  EXPECT_EQ(plan.reseeded(5).seed, plan.reseeded(5).seed);
  EXPECT_NE(plan.reseeded(5).seed, plan.reseeded(6).seed);
  EXPECT_NE(plan.reseeded(5).seed, plan.seed);
  // Only the seed changes; the schedule survives.
  EXPECT_DOUBLE_EQ(plan.reseeded(5).write.io_error, plan.write.io_error);
}

TEST(FaultPlanTest, SameSeedSameFaultSequence) {
  // Two filters from the same plan over the same op stream inject the
  // same faults at the same ops — the replayability contract.
  auto run_once = [](std::uint64_t seed) {
    vfs::FileSystem fs;
    vfs::FaultPlan plan = vfs::FaultPlan::uniform(0.3, seed);
    vfs::FaultInjectionFilter filter(plan);
    fs.attach_filter(&filter);
    const vfs::ProcessId p = fs.register_process("w");
    Rng rng(1);
    std::vector<int> outcomes;
    for (int i = 0; i < 50; ++i) {
      const std::string path = "dir/f" + std::to_string(i);
      outcomes.push_back(static_cast<int>(fs.write_file(p, path, rng.bytes(64)).code()));
    }
    fs.detach_filter(&filter);
    return std::pair{outcomes, filter.faults_injected()};
  };
  const auto [outcomes_a, injected_a] = run_once(77);
  const auto [outcomes_b, injected_b] = run_once(77);
  const auto [outcomes_c, injected_c] = run_once(78);
  EXPECT_EQ(outcomes_a, outcomes_b);
  EXPECT_EQ(injected_a, injected_b);
  if (kCounted) {
    EXPECT_GT(injected_a, 0u);
  }
  EXPECT_NE(outcomes_a, outcomes_c);
}

TEST(FaultPlanTest, FaultKindNamesAreStable) {
  EXPECT_EQ(vfs::fault_kind_name(vfs::FaultKind::io_error), "io_error");
  EXPECT_EQ(vfs::fault_kind_name(vfs::FaultKind::access_denied), "access_denied");
  EXPECT_EQ(vfs::fault_kind_name(vfs::FaultKind::short_write), "short_write");
  EXPECT_EQ(vfs::fault_kind_name(vfs::FaultKind::delay_post), "delay_post");
}

}  // namespace
}  // namespace cryptodrop
