// End-to-end integration tests: full stack (corpus -> VFS -> engine ->
// simulators) reproducing the paper's headline claims at reduced scale.
#include <gtest/gtest.h>

#include <map>

#include "common/stats.hpp"
#include "harness/experiment.hpp"

namespace cryptodrop {
namespace {

using harness::Environment;
using harness::RansomwareRunResult;

class IntegrationTest : public ::testing::Test {
 protected:
  static Environment* env;

  static void SetUpTestSuite() {
    corpus::CorpusSpec spec;
    spec.total_files = 800;
    spec.total_dirs = 80;
    spec.compute_hashes = false;
    env = new Environment(harness::make_environment(spec, 2016));
  }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }
};

Environment* IntegrationTest::env = nullptr;

TEST_F(IntegrationTest, HundredPercentDetectionOneSamplePerFamily) {
  // The headline claim (§V-B): every sample is detected, protecting the
  // vast majority of the corpus.
  std::map<std::string, sim::SampleSpec> first_of_family;
  for (const sim::SampleSpec& s : sim::table1_samples(5)) {
    first_of_family.try_emplace(s.family, s);
  }
  ASSERT_EQ(first_of_family.size(), 15u);  // 14 families + Ransom-FUE
  for (const auto& [family, spec] : first_of_family) {
    const RansomwareRunResult r =
        harness::run_sample(*env, spec, {});
    EXPECT_TRUE(r.detected) << family;
    EXPECT_LT(r.files_lost, env->corpus.file_count() / 10) << family;
  }
}

TEST_F(IntegrationTest, MedianLossIsSmallAcrossMixedSamples) {
  // 30 samples drawn across the Table-I set: the median loss should be
  // in the paper's order of magnitude (~0.2% of files; allow <2%).
  const auto all = sim::table1_samples(6);
  std::vector<double> losses;
  for (std::size_t i = 0; i < all.size(); i += all.size() / 30) {
    const auto r = harness::run_sample(*env, all[i], {});
    EXPECT_TRUE(r.detected);
    losses.push_back(static_cast<double>(r.files_lost));
  }
  const double med = median(losses);
  EXPECT_LE(med, env->corpus.file_count() * 0.02);
  EXPECT_GE(med, 1.0);
}

TEST_F(IntegrationTest, WithoutCryptoDropEverythingIsLost) {
  // The counterfactual the paper argues against: no monitor, total loss.
  vfs::FileSystem fs = env->base_fs.clone();
  const vfs::ProcessId pid = fs.register_process("malware");
  sim::RansomwareProfile profile =
      sim::family_profile("TeslaCrypt", sim::BehaviorClass::A);
  profile.target_extensions.clear();  // attack every file type
  sim::RansomwareSample sample(profile, 1);
  const sim::SampleRun run = sample.run(fs, pid, env->corpus.root);
  EXPECT_TRUE(run.ran_to_completion);
  // Read-only corpus files can still be renamed/overwritten? No: Class A
  // opens for write, which read-only files refuse — they survive.
  std::size_t read_only = 0;
  for (const auto& e : env->corpus.manifest) read_only += e.read_only ? 1 : 0;
  EXPECT_EQ(corpus::count_files_lost(fs, env->corpus),
            env->corpus.file_count() - read_only);
}

TEST_F(IntegrationTest, UnionDetectionIsFasterThanNonUnion) {
  // §V-B.2: union indication accelerates detection. Compare the same
  // TeslaCrypt sample with union enabled vs. disabled.
  sim::SampleSpec spec;
  spec.family = "TeslaCrypt";
  spec.behavior = sim::BehaviorClass::A;
  spec.profile = sim::family_profile("TeslaCrypt", sim::BehaviorClass::A);
  spec.seed = 77;

  core::ScoringConfig with_union;
  core::ScoringConfig without_union;
  without_union.enable_union = false;
  const auto fast = harness::run_sample(*env, spec, {with_union});
  const auto slow = harness::run_sample(*env, spec, {without_union});
  EXPECT_TRUE(fast.detected);
  EXPECT_TRUE(slow.detected);
  EXPECT_LE(fast.files_lost, slow.files_lost);
}

TEST_F(IntegrationTest, ClassBSamplesLoseMoreFilesThanClassA) {
  // §V-B.1: Class B (smallest-documents-first CTB-Locker) had the
  // highest files-lost numbers.
  sim::SampleSpec ctb;
  ctb.family = "CTB-Locker";
  ctb.behavior = sim::BehaviorClass::B;
  ctb.profile = sim::family_profile("CTB-Locker", sim::BehaviorClass::B);
  ctb.seed = 31;

  sim::SampleSpec xorist;
  xorist.family = "Xorist";
  xorist.behavior = sim::BehaviorClass::A;
  xorist.profile = sim::family_profile("Xorist", sim::BehaviorClass::A);
  xorist.seed = 32;

  const auto slow = harness::run_sample(*env, ctb, {});
  const auto fast = harness::run_sample(*env, xorist, {});
  EXPECT_TRUE(slow.detected);
  EXPECT_TRUE(fast.detected);
  EXPECT_GT(slow.files_lost, fast.files_lost);
}

TEST_F(IntegrationTest, CtbLockerSmallFileAblation) {
  // §V-C: removing sub-512-byte files from the corpus made CTB-Locker
  // detectable much earlier (29 -> 7 in the paper).
  sim::SampleSpec ctb;
  ctb.family = "CTB-Locker";
  ctb.behavior = sim::BehaviorClass::B;
  ctb.profile = sim::family_profile("CTB-Locker", sim::BehaviorClass::B);
  ctb.seed = 33;

  corpus::CorpusSpec filtered = env->spec;
  filtered.min_file_size = 512;
  const Environment env_filtered = harness::make_environment(filtered, 2016);

  const auto with_small = harness::run_sample(*env, ctb, {});
  const auto without_small =
      harness::run_sample(env_filtered, ctb, {});
  EXPECT_TRUE(with_small.detected);
  EXPECT_TRUE(without_small.detected);
  EXPECT_LT(without_small.files_lost, with_small.files_lost);
}

TEST_F(IntegrationTest, MoveOverClassCTriggersUnionDeleteVariantDoesNot) {
  // §V-B.2's Class C split, end to end.
  sim::SampleSpec mover;
  mover.family = "Virlock";
  mover.behavior = sim::BehaviorClass::C;
  mover.profile = sim::family_profile("Virlock", sim::BehaviorClass::C);
  mover.profile.delete_original = false;
  mover.seed = 41;

  sim::SampleSpec deleter;
  deleter.family = "CryptoDefense";
  deleter.behavior = sim::BehaviorClass::C;
  deleter.profile = sim::family_profile("CryptoDefense", sim::BehaviorClass::C);
  deleter.profile.delete_original = true;
  deleter.seed = 42;

  const auto linked = harness::run_sample(*env, mover, {});
  const auto evader = harness::run_sample(*env, deleter, {});
  EXPECT_TRUE(linked.detected);
  EXPECT_TRUE(linked.union_triggered);
  EXPECT_TRUE(evader.detected);
  EXPECT_FALSE(evader.union_triggered);
  // Evaders are still caught quickly via entropy + deletion points.
  EXPECT_LT(evader.files_lost, 25u);
}

TEST_F(IntegrationTest, SuspendedSampleCannotResumeDamage) {
  // After detection, re-running the same (suspended) process achieves
  // nothing further; loss count is frozen.
  vfs::FileSystem fs = env->base_fs.clone();
  core::AnalysisEngine engine((core::ScoringConfig()));
  fs.attach_filter(&engine);
  const vfs::ProcessId pid = fs.register_process("malware");
  sim::RansomwareProfile profile = sim::family_profile("Filecoder", sim::BehaviorClass::A);
  sim::RansomwareSample sample(profile, 51);
  (void)sample.run(fs, pid, env->corpus.root);
  ASSERT_TRUE(engine.is_suspended(pid));
  const std::size_t lost_before = corpus::count_files_lost(fs, env->corpus);
  sim::RansomwareSample retry(profile, 52);
  const sim::SampleRun second = retry.run(fs, pid, env->corpus.root);
  EXPECT_FALSE(second.ran_to_completion);
  EXPECT_EQ(corpus::count_files_lost(fs, env->corpus), lost_before);
  fs.detach_filter(&engine);
}

TEST_F(IntegrationTest, MultipleProcessesOneInfectedOneClean) {
  // A benign editor keeps working while the malware next to it is caught.
  vfs::FileSystem fs = env->base_fs.clone();
  core::AnalysisEngine engine((core::ScoringConfig()));
  fs.attach_filter(&engine);
  const vfs::ProcessId evil = fs.register_process("malware");
  const vfs::ProcessId good = fs.register_process("editor");

  sim::RansomwareProfile profile = sim::family_profile("CryptoWall", sim::BehaviorClass::A);
  sim::RansomwareSample sample(profile, 61);
  (void)sample.run(fs, evil, env->corpus.root);
  ASSERT_TRUE(engine.is_suspended(evil));

  // The editor appends to a surviving text file.
  for (const auto& entry : env->corpus.manifest) {
    if (entry.kind != corpus::FileKind::txt || entry.read_only) continue;
    if (!fs.exists(entry.path)) continue;
    auto data = fs.read_file(good, entry.path);
    if (!data) continue;
    Bytes next = std::move(data).value();
    append(next, std::string_view("\nappended by editor"));
    EXPECT_TRUE(fs.write_file(good, entry.path, ByteView(next)).is_ok());
    break;
  }
  EXPECT_FALSE(engine.is_suspended(good));
  fs.detach_filter(&engine);
}

}  // namespace
}  // namespace cryptodrop
