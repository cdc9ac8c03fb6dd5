// Tests for the §III-F evasion techniques, family-level scoring, dynamic
// scoring (§V-C future work), and shadow-copy behavior.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace cryptodrop {
namespace {

class EvasionTest : public ::testing::Test {
 protected:
  static harness::Environment* env;

  static void SetUpTestSuite() {
    corpus::CorpusSpec spec;
    spec.total_files = 600;
    spec.total_dirs = 60;
    spec.compute_hashes = false;
    env = new harness::Environment(harness::make_environment(spec, 555));
  }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }

  static sim::SampleSpec evader(std::uint64_t seed) {
    sim::SampleSpec spec;
    spec.family = "Evader";
    spec.behavior = sim::BehaviorClass::A;
    spec.profile = sim::family_profile("TeslaCrypt", sim::BehaviorClass::A);
    spec.profile.family = "Evader";
    spec.profile.target_extensions.clear();
    spec.seed = seed;
    return spec;
  }
};

harness::Environment* EvasionTest::env = nullptr;

// --- §III-F technique-by-technique -----------------------------------------

TEST_F(EvasionTest, HeaderPreservationSuppressesTypeChange) {
  sim::SampleSpec spec = evader(1);
  spec.profile.evasion.preserve_header_bytes = 16 * 1024;
  const auto r = harness::run_sample(*env, spec, {});
  // Magic bytes survive, so the type-change indicator goes nearly silent
  // (small text files can still flip: the appended key blob makes a
  // fully-preserved text file stop looking like text)...
  EXPECT_LE(r.report.type_change_events, 2u);
  const auto baseline =
      harness::run_sample(*env, evader(1), {});
  EXPECT_LT(r.report.type_change_events, baseline.report.type_change_events + 1);
  // ...but similarity and entropy still catch the transformation.
  EXPECT_TRUE(r.detected);
}

TEST_F(EvasionTest, HeaderPreservationCostsRecoverableData) {
  sim::SampleSpec spec = evader(2);
  spec.profile.evasion.preserve_header_bytes = 16 * 1024;
  const auto r = harness::run_sample(*env, spec, {});
  EXPECT_LT(r.sample.bytes_destroyed, r.sample.bytes_touched);
}

TEST_F(EvasionTest, DecoyWritesSuppressEntropyDelta) {
  sim::SampleSpec spec = evader(3);
  spec.profile.evasion.decoy_writes_per_file = 3;
  spec.profile.evasion.decoy_bytes = 256 * 1024;
  const auto r = harness::run_sample(*env, spec, {});
  const auto baseline =
      harness::run_sample(*env, evader(3), {});
  // Heavy prose decoys keep Pwrite near Pread: far fewer entropy events
  // per attacked file than the undisguised run.
  const double evaded_rate =
      static_cast<double>(r.report.entropy_events) /
      static_cast<double>(std::max<std::size_t>(r.sample.files_attacked, 1));
  const double base_rate =
      static_cast<double>(baseline.report.entropy_events) /
      static_cast<double>(std::max<std::size_t>(baseline.sample.files_attacked, 1));
  EXPECT_LT(evaded_rate, base_rate);
  // Type change + similarity still detect it.
  EXPECT_TRUE(r.detected);
}

TEST_F(EvasionTest, PartialEncryptionReducesDestructionAndSignal) {
  sim::SampleSpec spec = evader(4);
  spec.profile.evasion.preserve_fraction = 0.6;
  const auto r = harness::run_sample(*env, spec, {});
  // ~60% of every file survives for the victim.
  EXPECT_LT(r.sample.bytes_destroyed, r.sample.bytes_touched / 2);
}

TEST_F(EvasionTest, KitchenSinkEvaderStillPaysInData) {
  // Even the combined §III-F evader either gets detected or leaves the
  // majority of each file recoverable — the paper's trade-off argument.
  sim::SampleSpec spec = evader(5);
  spec.profile.evasion.preserve_header_bytes = 16 * 1024;
  spec.profile.evasion.preserve_fraction = 0.5;
  spec.profile.evasion.pad_low_entropy_bytes = 64 * 1024;
  spec.profile.evasion.decoy_writes_per_file = 2;
  const auto r = harness::run_sample(*env, spec, {});
  const double destroyed = static_cast<double>(r.sample.bytes_destroyed) /
                           static_cast<double>(std::max<std::uint64_t>(r.sample.bytes_touched, 1));
  EXPECT_TRUE(r.detected || destroyed < 0.55)
      << "undetected evader destroyed " << destroyed;
}

// --- process-splitting vs family scoring ------------------------------------

TEST_F(EvasionTest, FamilyScoringStopsWorkerSplitEvasion) {
  sim::SampleSpec spec = evader(6);
  spec.profile.worker_processes = 8;
  const auto split = harness::run_sample(*env, spec, {});
  const auto solo = harness::run_sample(*env, evader(6), {});
  EXPECT_TRUE(split.detected);
  // Splitting across 8 workers buys nothing against family scoring:
  // losses stay in the same small band as the single-process run.
  EXPECT_LE(split.files_lost, solo.files_lost + 6);
}

TEST_F(EvasionTest, WithoutFamilyScoringWorkersMultiplyDamage) {
  sim::SampleSpec spec = evader(7);
  spec.profile.worker_processes = 8;
  core::ScoringConfig no_family;
  no_family.enable_family_scoring = false;
  const auto split = harness::run_sample(*env, spec, {no_family});
  const auto with_family =
      harness::run_sample(*env, spec, {});
  EXPECT_GT(split.files_lost, with_family.files_lost * 3);
}

TEST(FamilyScoring, ChildOpsAccrueToRoot) {
  vfs::FileSystem fs;
  core::AnalysisEngine engine{core::ScoringConfig{}};
  fs.attach_filter(&engine);
  const vfs::ProcessId parent = fs.register_process("dropper");
  const vfs::ProcessId child = fs.register_process("worker", parent);
  const vfs::ProcessId grandchild = fs.register_process("worker2", child);
  ASSERT_TRUE(fs.put_file_raw("users/victim/documents/a.txt",
                              to_bytes(std::string(2000, 'x'))).is_ok());
  ASSERT_TRUE(fs.remove(grandchild, "users/victim/documents/a.txt").is_ok());
  // The deletion points land on the family root.
  EXPECT_GT(engine.score(parent), 0);
  EXPECT_EQ(engine.score(parent), engine.score(child));
  EXPECT_EQ(engine.score(parent), engine.score(grandchild));
  fs.detach_filter(&engine);
}

TEST(FamilyScoring, SuspensionCoversTheWholeTree) {
  vfs::FileSystem fs;
  core::ScoringConfig config;
  config.score_threshold = 10;
  config.union_threshold = 10;
  core::AnalysisEngine engine(config);
  fs.attach_filter(&engine);
  const vfs::ProcessId parent = fs.register_process("dropper");
  const vfs::ProcessId child = fs.register_process("worker", parent);
  ASSERT_TRUE(fs.put_file_raw("users/victim/documents/a.txt",
                              to_bytes(std::string(2000, 'x'))).is_ok());
  ASSERT_TRUE(fs.remove(child, "users/victim/documents/a.txt").is_ok());
  ASSERT_TRUE(engine.is_suspended(child));
  EXPECT_TRUE(engine.is_suspended(parent));
  // A freshly spawned sibling is born suspended too.
  const vfs::ProcessId sibling = fs.register_process("worker2", parent);
  EXPECT_EQ(fs.write_file(sibling, "users/victim/documents/b.txt",
                          to_bytes("x")).code(),
            Errc::access_denied);
  fs.detach_filter(&engine);
}

TEST(FamilyScoring, UnrelatedProcessesUnaffected) {
  vfs::FileSystem fs;
  core::ScoringConfig config;
  config.score_threshold = 10;
  config.union_threshold = 10;
  core::AnalysisEngine engine(config);
  fs.attach_filter(&engine);
  const vfs::ProcessId bad = fs.register_process("bad");
  const vfs::ProcessId good = fs.register_process("good");
  ASSERT_TRUE(fs.put_file_raw("users/victim/documents/a.txt",
                              to_bytes(std::string(2000, 'x'))).is_ok());
  ASSERT_TRUE(fs.remove(bad, "users/victim/documents/a.txt").is_ok());
  ASSERT_TRUE(engine.is_suspended(bad));
  EXPECT_FALSE(engine.is_suspended(good));
  EXPECT_TRUE(fs.write_file(good, "users/victim/documents/b.txt",
                            to_bytes("fine")).is_ok());
  fs.detach_filter(&engine);
}

TEST(FamilyScoring, VfsParentTracking) {
  vfs::FileSystem fs;
  const vfs::ProcessId a = fs.register_process("a");
  const vfs::ProcessId b = fs.register_process("b", a);
  const vfs::ProcessId c = fs.register_process("c", b);
  EXPECT_EQ(fs.process_parent(a), 0u);
  EXPECT_EQ(fs.process_parent(b), a);
  EXPECT_EQ(fs.process_family_root(c), a);
  EXPECT_EQ(fs.process_family_root(a), a);
  // Unknown parent ids are detached instead of dangling.
  const vfs::ProcessId d = fs.register_process("d", 9999);
  EXPECT_EQ(fs.process_parent(d), 0u);
}

// --- dynamic scoring (§V-C) -----------------------------------------------

TEST_F(EvasionTest, DynamicScoringAcceleratesCtbLocker) {
  sim::SampleSpec ctb;
  ctb.family = "CTB-Locker";
  ctb.behavior = sim::BehaviorClass::B;
  ctb.profile = sim::family_profile("CTB-Locker", sim::BehaviorClass::B);
  ctb.seed = 8;

  core::ScoringConfig dynamic;
  dynamic.enable_dynamic_scoring = true;
  const auto boosted = harness::run_sample(*env, ctb, {dynamic});
  const auto stock = harness::run_sample(*env, ctb, {});
  EXPECT_TRUE(boosted.detected);
  EXPECT_LT(boosted.files_lost, stock.files_lost);
}

TEST_F(EvasionTest, DynamicScoringKeepsBenignSuiteClean) {
  // The paper worries dynamic scoring "may have an adverse effect on
  // false positives" — verify the thirty-app suite stays at one FP.
  core::ScoringConfig dynamic;
  dynamic.enable_dynamic_scoring = true;
  std::size_t false_positives = 0;
  for (const sim::BenignWorkload& workload : sim::all_benign_workloads()) {
    const auto r = harness::run_workload(*env, workload, 11, {dynamic});
    if (r.detected) {
      ++false_positives;
      EXPECT_TRUE(r.expected_false_positive) << r.app;
    }
  }
  EXPECT_EQ(false_positives, 1u);
}

TEST(DynamicScoring, BoostsTypeChangeOnlyWhenSimilarityUnavailable) {
  vfs::FileSystem fs;
  core::ScoringConfig config;
  config.score_threshold = 1000000;
  config.union_threshold = 1000000;
  config.enable_dynamic_scoring = true;
  core::AnalysisEngine engine(config);
  fs.attach_filter(&engine);
  const vfs::ProcessId pid = fs.register_process("p");
  Rng rng(9);

  // Small file: similarity unavailable -> boosted type-change points.
  ASSERT_TRUE(fs.put_file_raw("users/victim/documents/small.txt",
                              to_bytes(std::string(200, 'a') + "bcdef")).is_ok());
  auto h = fs.open(pid, "users/victim/documents/small.txt", vfs::kRead | vfs::kWrite);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.write(pid, h.value(), rng.bytes(205)).is_ok());
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  const int boosted = engine.score(pid);
  EXPECT_EQ(boosted, static_cast<int>(config.points_type_change *
                                      config.dynamic_unavailable_boost));
  fs.detach_filter(&engine);
}

// --- shadow copies ---------------------------------------------------------

TEST_F(EvasionTest, ShadowCopyDeletionIsIgnoredByTheEngine) {
  // Populate the shadow-storage area, then run a sample that wipes it
  // first: those deletions are outside the documents root and score
  // nothing (the paper explicitly ignores them).
  vfs::FileSystem fs = env->base_fs.clone();
  Rng rng(10);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fs.put_file_raw("system volume information/shadow/snap" +
                                    std::to_string(i) + ".vss",
                                rng.bytes(4096)).is_ok());
  }
  core::ScoringConfig config;
  core::AnalysisEngine engine(config);
  fs.attach_filter(&engine);
  const vfs::ProcessId pid = fs.register_process("tesla");
  sim::RansomwareProfile profile = sim::family_profile("TeslaCrypt", sim::BehaviorClass::A);
  profile.delete_shadow_copies = true;
  profile.max_files = 0;  // only the shadow wipe, no document attack
  sim::RansomwareSample sample(profile, 11);
  (void)sample.run(fs, pid, env->corpus.root);
  EXPECT_TRUE(fs.list_files_recursive("system volume information/shadow").empty());
  EXPECT_EQ(engine.score(pid), 0);
  fs.detach_filter(&engine);
}

// --- destroyed-bytes accounting --------------------------------------------

TEST_F(EvasionTest, BaselineDestroysEverythingItTouches) {
  const auto r = harness::run_sample(*env, evader(12), {});
  EXPECT_GT(r.sample.bytes_touched, 0u);
  EXPECT_EQ(r.sample.bytes_destroyed, r.sample.bytes_touched);
}

}  // namespace
}  // namespace cryptodrop
