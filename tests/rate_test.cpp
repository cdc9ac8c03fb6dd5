// Tests for the virtual clock and the §V-F burst-rate indicator
// extension (off by default; the paper flags it as future work and warns
// about the slow-attacker evasion, both of which are covered here).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/engine.hpp"
#include "harness/experiment.hpp"
#include "vfs/filesystem.hpp"

namespace cryptodrop {
namespace {

constexpr const char* kRoot = "users/victim/documents";

// --- virtual clock ------------------------------------------------------

TEST(VirtualClock, StartsAtZeroAndAdvances) {
  vfs::FileSystem fs;
  EXPECT_EQ(fs.now_micros(), 0u);
  fs.advance_time(1000);
  EXPECT_EQ(fs.now_micros(), 1000u);
}

TEST(VirtualClock, EveryFilteredOpCosts) {
  vfs::FileSystem fs;
  const vfs::ProcessId pid = fs.register_process("p");
  const std::uint64_t before = fs.now_micros();
  ASSERT_TRUE(fs.write_file(pid, "a.txt", to_bytes("x")).is_ok());
  // write_file = open + write + close = 3 ops.
  EXPECT_EQ(fs.now_micros(), before + 3 * vfs::FileSystem::kOpCostMicros);
}

TEST(VirtualClock, EventsCarryTimestamps) {
  vfs::FileSystem fs;
  struct TimestampFilter : vfs::Filter {
    std::vector<std::uint64_t> stamps;
    vfs::Verdict pre_operation(const vfs::OperationEvent& event) override {
      stamps.push_back(event.timestamp);
      return vfs::Verdict::allow;
    }
  } filter;
  fs.attach_filter(&filter);
  const vfs::ProcessId pid = fs.register_process("p");
  ASSERT_TRUE(fs.write_file(pid, "a.txt", to_bytes("x")).is_ok());
  fs.advance_time(5000);
  ASSERT_TRUE(fs.write_file(pid, "b.txt", to_bytes("y")).is_ok());
  ASSERT_GE(filter.stamps.size(), 6u);
  EXPECT_GT(filter.stamps[3], filter.stamps[2] + 4000);  // the think gap
  for (std::size_t i = 1; i < filter.stamps.size(); ++i) {
    EXPECT_GT(filter.stamps[i], filter.stamps[i - 1]);
  }
  fs.detach_filter(&filter);
}

// --- burst-rate indicator ----------------------------------------------

class RateTest : public ::testing::Test {
 protected:
  vfs::FileSystem fs;
  core::ScoringConfig config;
  std::unique_ptr<core::AnalysisEngine> engine;
  vfs::ProcessId pid = 0;
  Rng rng{17};

  void SetUp() override {
    config.protected_root = kRoot;
    config.score_threshold = 1000000;
    config.union_threshold = 1000000;
    config.enable_rate_indicator = true;
    config.rate_window_micros = 10'000'000;
    config.rate_min_files = 10;
  }

  void attach() {
    engine = std::make_unique<core::AnalysisEngine>(config);
    fs.attach_filter(engine.get());
    pid = fs.register_process("subject");
  }

  std::string doc(int i) { return std::string(kRoot) + "/f" + std::to_string(i) + ".txt"; }

  void put_files(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(fs.put_file_raw(doc(i), to_bytes(synth_prose(rng, 2000))).is_ok());
    }
  }

  void modify(int i) {
    ASSERT_TRUE(fs.write_file(pid, doc(i), to_bytes(synth_prose(rng, 2000))).is_ok());
  }
};

TEST_F(RateTest, OffByDefault) {
  core::ScoringConfig defaults;
  EXPECT_FALSE(defaults.enable_rate_indicator);
}

TEST_F(RateTest, BurstModifierAccumulatesRatePoints) {
  attach();
  put_files(30);
  for (int i = 0; i < 30; ++i) modify(i);  // back-to-back: all in window
  const core::ProcessReport report = engine->process_report(pid);
  // Files 10..29 each scored as they joined the bursting window.
  EXPECT_EQ(report.rate_events, 21u);
}

TEST_F(RateTest, SlowAttackerSlipsUnderTheWindow) {
  // §V-F: "it can change its rate of attack to overcome the window".
  attach();
  put_files(30);
  for (int i = 0; i < 30; ++i) {
    fs.advance_time(2'000'000);  // 2 s between files: < 10 files per 10 s
    modify(i);
  }
  EXPECT_EQ(engine->process_report(pid).rate_events, 0u);
}

TEST_F(RateTest, ChunkedWritesToOneFileDoNotCount) {
  attach();
  put_files(1);
  auto h = fs.open(pid, doc(0), vfs::kRead | vfs::kWrite);
  ASSERT_TRUE(h.is_ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fs.write(pid, h.value(), rng.bytes(512)).is_ok());
  }
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  EXPECT_EQ(engine->process_report(pid).rate_events, 0u);
}

TEST_F(RateTest, DeletionsCountTowardTheBurst) {
  attach();
  put_files(20);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fs.remove(pid, doc(i)).is_ok());
  }
  EXPECT_GT(engine->process_report(pid).rate_events, 0u);
}

TEST_F(RateTest, DisabledFlagSilencesIt) {
  config.enable_rate_indicator = false;
  attach();
  put_files(30);
  for (int i = 0; i < 30; ++i) modify(i);
  EXPECT_EQ(engine->process_report(pid).rate_events, 0u);
}

TEST_F(RateTest, WindowExpiryResetsTheCount) {
  attach();
  put_files(30);
  for (int i = 0; i < 8; ++i) modify(i);   // below threshold
  fs.advance_time(20'000'000);             // window fully drains
  for (int i = 8; i < 16; ++i) modify(i);  // below threshold again
  EXPECT_EQ(engine->process_report(pid).rate_events, 0u);
}

// --- end-to-end with the simulators ---------------------------------------

class RateIntegrationTest : public ::testing::Test {
 protected:
  static harness::Environment* env;

  static void SetUpTestSuite() {
    corpus::CorpusSpec spec;
    spec.total_files = 600;
    spec.total_dirs = 60;
    spec.compute_hashes = false;
    env = new harness::Environment(harness::make_environment(spec, 808));
  }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }
};

harness::Environment* RateIntegrationTest::env = nullptr;

TEST_F(RateIntegrationTest, RateIndicatorAcceleratesBulkEncryptors) {
  sim::SampleSpec ctb;
  ctb.family = "CTB-Locker";
  ctb.behavior = sim::BehaviorClass::B;
  ctb.profile = sim::family_profile("CTB-Locker", sim::BehaviorClass::B);
  ctb.seed = 5;
  core::ScoringConfig with_rate;
  with_rate.enable_rate_indicator = true;
  const auto fast = harness::run_sample(*env, ctb, {with_rate});
  const auto stock = harness::run_sample(*env, ctb, {});
  EXPECT_TRUE(fast.detected);
  EXPECT_LE(fast.files_lost, stock.files_lost);
}

TEST_F(RateIntegrationTest, PacedBenignAppsDoNotTripTheRateIndicator) {
  core::ScoringConfig with_rate;
  with_rate.enable_rate_indicator = true;
  std::size_t false_positives = 0;
  for (const sim::BenignWorkload& workload : sim::all_benign_workloads()) {
    const auto r = harness::run_workload(*env, workload, 21, {with_rate});
    if (r.detected && !r.expected_false_positive) ++false_positives;
  }
  EXPECT_EQ(false_positives, 0u);
}

TEST_F(RateIntegrationTest, SlowedRansomwareEvadesRateButNotPrimaries) {
  sim::SampleSpec spec;
  spec.family = "Evader";
  spec.behavior = sim::BehaviorClass::A;
  spec.profile = sim::family_profile("TeslaCrypt", sim::BehaviorClass::A);
  spec.profile.evasion.think_micros_per_file = 3'000'000;  // 3 s per file
  spec.seed = 6;
  core::ScoringConfig with_rate;
  with_rate.enable_rate_indicator = true;
  const auto r = harness::run_sample(*env, spec, {with_rate});
  EXPECT_EQ(r.report.rate_events, 0u);  // the §V-F evasion works...
  EXPECT_TRUE(r.detected);              // ...and buys the attacker nothing.
}

}  // namespace
}  // namespace cryptodrop
