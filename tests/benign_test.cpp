// Tests for the benign workload simulators and the false-positive
// contract: exactly one expected detection (7-zip), no benign union.
#include <gtest/gtest.h>

#include <set>

#include "harness/experiment.hpp"
#include "sim/benign/benign.hpp"

namespace cryptodrop::sim {
namespace {

/// Shared mid-size environment (built once; workloads run on clones).
class BenignTest : public ::testing::Test {
 protected:
  static harness::Environment* env;

  static void SetUpTestSuite() {
    corpus::CorpusSpec spec;
    spec.total_files = 600;
    spec.total_dirs = 60;
    spec.compute_hashes = false;
    env = new harness::Environment(harness::make_environment(spec, 77));
  }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }

  harness::BenignRunResult run(const std::string& name,
                               core::ScoringConfig config = {}) {
    return harness::run_workload(*env, benign_workload(name), 11, {config});
  }
};

harness::Environment* BenignTest::env = nullptr;

TEST_F(BenignTest, ThirtyWorkloadsRegistered) {
  const auto workloads = all_benign_workloads();
  EXPECT_EQ(workloads.size(), 30u);
  std::set<std::string> names;
  for (const auto& w : workloads) names.insert(w.name);
  EXPECT_EQ(names.size(), 30u);  // unique
  // Spot-check the paper's list.
  EXPECT_TRUE(names.contains("7-zip"));
  EXPECT_TRUE(names.contains("Adobe Lightroom"));
  EXPECT_TRUE(names.contains("Microsoft Word"));
  EXPECT_TRUE(names.contains("VLC Media Player"));
}

TEST_F(BenignTest, Figure6SetIsTheFiveAnalyzedApps) {
  const auto five = figure6_workloads();
  ASSERT_EQ(five.size(), 5u);
  EXPECT_EQ(five[0].name, "Adobe Lightroom");
  EXPECT_EQ(five[4].name, "Microsoft Excel");
}

TEST_F(BenignTest, UnknownWorkloadThrows) {
  EXPECT_THROW(benign_workload("Solitaire"), std::out_of_range);
}

TEST_F(BenignTest, OnlySevenZipIsMarkedExpectedFalsePositive) {
  for (const auto& w : all_benign_workloads()) {
    EXPECT_EQ(w.expected_false_positive, w.name == "7-zip") << w.name;
  }
}

TEST_F(BenignTest, WordScoresZero) {
  const auto r = run("Microsoft Word");
  EXPECT_EQ(r.final_score, 0);
  EXPECT_FALSE(r.detected);
}

TEST_F(BenignTest, ImageMagickScoresZero) {
  const auto r = run("ImageMagick");
  EXPECT_EQ(r.final_score, 0);
  EXPECT_FALSE(r.detected);
}

TEST_F(BenignTest, ExcelScoresHighButBelowThreshold) {
  // Figure 6: Excel's safe-saves put it near (paper: 150) but under 200.
  const auto r = run("Microsoft Excel");
  EXPECT_GT(r.final_score, 60);
  EXPECT_LT(r.final_score, 200);
  EXPECT_FALSE(r.detected);
}

TEST_F(BenignTest, ITunesScoresLow) {
  const auto r = run("iTunes");
  EXPECT_LT(r.final_score, 60);
  EXPECT_FALSE(r.detected);
}

TEST_F(BenignTest, LightroomScoresModerately) {
  const auto r = run("Adobe Lightroom");
  EXPECT_LT(r.final_score, 200);
  EXPECT_FALSE(r.detected);
}

TEST_F(BenignTest, SevenZipIsTheExpectedFalsePositive) {
  const auto r = run("7-zip");
  EXPECT_TRUE(r.detected);
  EXPECT_TRUE(r.expected_false_positive);
  // Detected via accumulation, not union (§V-F: "no application
  // exhibited all three primary indicators").
  EXPECT_FALSE(r.union_triggered);
}

TEST_F(BenignTest, NoBenignWorkloadTriggersUnion) {
  for (const auto& w : all_benign_workloads()) {
    const auto r = run(w.name);
    EXPECT_FALSE(r.union_triggered) << w.name;
  }
}

TEST_F(BenignTest, ExactlyOneFalsePositiveAtPaperThreshold) {
  std::size_t detections = 0;
  for (const auto& w : all_benign_workloads()) {
    const auto r = run(w.name);
    if (r.detected) {
      ++detections;
      EXPECT_TRUE(r.expected_false_positive) << w.name;
    }
  }
  EXPECT_EQ(detections, 1u);
}

TEST_F(BenignTest, PureScannerScoresZero) {
  const auto r = run("Avast Anti-Virus");
  EXPECT_EQ(r.final_score, 0);
  // Funneling must not fire without writes under the root.
  EXPECT_EQ(r.report.funneling_events, 0u);
}

TEST_F(BenignTest, PureWriterScoresZero) {
  // uTorrent streams a high-entropy download but never reads: the
  // entropy delta can't arm without a read mean.
  const auto r = run("uTorrent");
  EXPECT_EQ(r.final_score, 0);
  EXPECT_EQ(r.report.entropy_events, 0u);
}

TEST_F(BenignTest, TrayAppsNeverTouchTheRoot) {
  for (const char* name : {"F.lux", "Skype", "Spotify",
                           "Private Internet Access VPN", "Piriform CCleaner"}) {
    const auto r = run(name);
    EXPECT_EQ(r.final_score, 0) << name;
    EXPECT_EQ(r.report.read_extensions.size() + r.report.write_extensions.size(), 0u)
        << name;
  }
}

TEST_F(BenignTest, HigherThresholdClearsSevenZip) {
  // The Figure-6 sweep direction: raising the non-union threshold trades
  // detection speed for fewer FPs.
  core::ScoringConfig lenient;
  lenient.score_threshold = 100000;
  lenient.union_threshold = 100000;
  const auto r = run("7-zip", lenient);
  EXPECT_FALSE(r.detected);
  EXPECT_GT(r.final_score, 200);  // would have been caught at the default
}

TEST_F(BenignTest, WorkloadsAreDeterministicPerSeed) {
  const auto r1 = run("Microsoft Excel");
  const auto r2 = run("Microsoft Excel");
  EXPECT_EQ(r1.final_score, r2.final_score);
}

}  // namespace
}  // namespace cryptodrop::sim
