// Tests for the Related-Work baseline comparators.
#include <gtest/gtest.h>

#include "baselines/integrity_monitor.hpp"
#include "baselines/signature_av.hpp"
#include "harness/experiment.hpp"

namespace cryptodrop::baselines {
namespace {

// --- signature AV ----------------------------------------------------------

TEST(SignatureAv, FingerprintsAreStableAndVariantSensitive) {
  sim::SampleSpec a;
  a.family = "TeslaCrypt";
  a.seed = 1;
  sim::SampleSpec b = a;
  EXPECT_EQ(sample_fingerprint(a), sample_fingerprint(b));
  b.seed = 2;  // repacked variant
  EXPECT_NE(sample_fingerprint(a), sample_fingerprint(b));
  b.seed = 1;
  b.family = "CryptoWall";
  EXPECT_NE(sample_fingerprint(a), sample_fingerprint(b));
}

TEST(SignatureAv, MorphNeverMatchesOriginal) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    sim::SampleSpec spec;
    spec.family = "PoshCoder";
    spec.seed = seed;
    EXPECT_NE(sample_fingerprint(spec), morphed_fingerprint(spec));
  }
}

TEST(SignatureAv, BlocksExactlyWhatItLearned) {
  const auto specs = sim::table1_samples(1);
  SignatureAv av;
  av.learn_from(specs, 1.0, 7);
  EXPECT_EQ(av.signature_count(), specs.size());
  for (const sim::SampleSpec& spec : specs) {
    EXPECT_TRUE(av.blocks(spec));
    EXPECT_FALSE(av.blocks(morphed_fingerprint(spec)));
  }
}

TEST(SignatureAv, PartialCoverageMissesTheRest) {
  const auto specs = sim::table1_samples(2);
  SignatureAv av;
  av.learn_from(specs, 0.5, 9);
  std::size_t blocked = 0;
  for (const sim::SampleSpec& spec : specs) blocked += av.blocks(spec) ? 1 : 0;
  EXPECT_GT(blocked, specs.size() * 40 / 100);
  EXPECT_LT(blocked, specs.size() * 60 / 100);
}

TEST(SignatureAv, EmptyDatabaseBlocksNothing) {
  SignatureAv av;
  sim::SampleSpec spec;
  spec.family = "Anything";
  spec.seed = 42;
  EXPECT_FALSE(av.blocks(spec));
}

// --- integrity monitor -------------------------------------------------------

class IntegrityTest : public ::testing::Test {
 protected:
  vfs::FileSystem fs;
  vfs::ProcessId pid = 0;
  static constexpr const char* kRoot = "users/victim/documents";

  void SetUp() override {
    pid = fs.register_process("app");
    ASSERT_TRUE(fs.put_file_raw(doc("a.txt"), to_bytes("original a")).is_ok());
    ASSERT_TRUE(fs.put_file_raw(doc("b.txt"), to_bytes("original b")).is_ok());
    ASSERT_TRUE(fs.put_file_raw("elsewhere/c.txt", to_bytes("outside")).is_ok());
  }

  static std::string doc(const std::string& name) {
    return std::string(kRoot) + "/" + name;
  }
};

TEST_F(IntegrityTest, QuietWhenNothingChanges) {
  IntegrityMonitor monitor({});
  fs.attach_filter(&monitor);
  ASSERT_TRUE(fs.read_file(pid, doc("a.txt")).is_ok());
  EXPECT_EQ(monitor.alert_count(), 0u);
  fs.detach_filter(&monitor);
}

TEST_F(IntegrityTest, AlertsOnAnyModification) {
  IntegrityMonitor monitor({});
  fs.attach_filter(&monitor);
  ASSERT_TRUE(fs.write_file(pid, doc("a.txt"), to_bytes("legit edit")).is_ok());
  ASSERT_EQ(monitor.alert_count(), 1u);
  EXPECT_EQ(monitor.alerts()[0].path, doc("a.txt"));
  EXPECT_EQ(monitor.alerts()[0].kind, IntegrityAlert::Kind::modified);
  // This is the §II criticism: it cannot tell this benign save from
  // ransomware — same alert either way.
  fs.detach_filter(&monitor);
}

TEST_F(IntegrityTest, AlertsOnDeletion) {
  IntegrityMonitor monitor({});
  fs.attach_filter(&monitor);
  ASSERT_TRUE(fs.remove(pid, doc("b.txt")).is_ok());
  ASSERT_EQ(monitor.alert_count(), 1u);
  EXPECT_EQ(monitor.alerts()[0].kind, IntegrityAlert::Kind::deleted);
  fs.detach_filter(&monitor);
}

TEST_F(IntegrityTest, SilentOutsideTheProtectedRoot) {
  IntegrityMonitor monitor({});
  fs.attach_filter(&monitor);
  ASSERT_TRUE(fs.write_file(pid, "elsewhere/c.txt", to_bytes("changed")).is_ok());
  ASSERT_TRUE(fs.remove(pid, "elsewhere/c.txt").is_ok());
  EXPECT_EQ(monitor.alert_count(), 0u);
  fs.detach_filter(&monitor);
}

TEST_F(IntegrityTest, CleanRenameWithinRootIsTracked) {
  IntegrityMonitor monitor({});
  fs.attach_filter(&monitor);
  ASSERT_TRUE(fs.rename(pid, doc("a.txt"), doc("renamed.txt")).is_ok());
  EXPECT_EQ(monitor.alert_count(), 0u);  // content intact
  // Modifying it under the new name still alerts.
  ASSERT_TRUE(fs.write_file(pid, doc("renamed.txt"), to_bytes("new content")).is_ok());
  EXPECT_EQ(monitor.alert_count(), 1u);
  fs.detach_filter(&monitor);
}

TEST_F(IntegrityTest, ReplacementViaRenameAlerts) {
  IntegrityMonitor monitor({});
  fs.attach_filter(&monitor);
  ASSERT_TRUE(fs.write_file(pid, doc("new.tmp"), to_bytes("ciphertext!")).is_ok());
  ASSERT_TRUE(fs.rename(pid, doc("new.tmp"), doc("a.txt")).is_ok());
  ASSERT_GE(monitor.alert_count(), 1u);
  fs.detach_filter(&monitor);
}

TEST_F(IntegrityTest, SuspendOnAlertStopsTheProcess) {
  IntegrityMonitor::Options options;
  options.suspend_on_alert = true;
  IntegrityMonitor monitor(options);
  fs.attach_filter(&monitor);
  ASSERT_TRUE(fs.write_file(pid, doc("a.txt"), to_bytes("x")).is_ok());
  ASSERT_TRUE(monitor.is_suspended(pid));
  EXPECT_EQ(fs.write_file(pid, doc("b.txt"), to_bytes("y")).code(),
            Errc::access_denied);
  EXPECT_EQ(to_string(ByteView(*fs.read_unfiltered(doc("b.txt")))), "original b");
  fs.detach_filter(&monitor);
}

TEST_F(IntegrityTest, RebaselineAcceptsCurrentState) {
  IntegrityMonitor monitor({});
  fs.attach_filter(&monitor);
  ASSERT_TRUE(fs.write_file(pid, doc("a.txt"), to_bytes("v2")).is_ok());
  EXPECT_EQ(monitor.alert_count(), 1u);
  monitor.rebaseline();
  // Same content: no new alert until it changes again.
  ASSERT_TRUE(fs.read_file(pid, doc("a.txt")).is_ok());
  EXPECT_EQ(monitor.alert_count(), 1u);
  ASSERT_TRUE(fs.write_file(pid, doc("a.txt"), to_bytes("v3")).is_ok());
  EXPECT_EQ(monitor.alert_count(), 2u);
  fs.detach_filter(&monitor);
}

// --- the comparison the paper argues (§II) ---------------------------------

TEST(BaselineComparison, TripwireIsNoisyWhereCryptoDropIsQuiet) {
  corpus::CorpusSpec spec;
  spec.total_files = 300;
  spec.total_dirs = 30;
  spec.compute_hashes = false;
  harness::Environment env = harness::make_environment(spec, 404);

  // Microsoft Word under both monitors.
  std::size_t tripwire_alerts = 0;
  {
    vfs::FileSystem fs = env.base_fs.clone();
    IntegrityMonitor monitor({});
    fs.attach_filter(&monitor);
    const vfs::ProcessId pid = fs.register_process("Microsoft Word");
    sim::WorkloadContext ctx{fs, pid, env.corpus.root, Rng(5)};
    sim::benign_workload("Microsoft Word").run(ctx);
    tripwire_alerts = monitor.alert_count();
    fs.detach_filter(&monitor);
  }
  const auto cryptodrop =
      harness::run_workload(env, sim::benign_workload("Microsoft Word"), 5, {});
  EXPECT_GT(tripwire_alerts, 0u);       // every save is an "intrusion"
  EXPECT_EQ(cryptodrop.final_score, 0); // CryptoDrop: nothing suspicious
}

}  // namespace
}  // namespace cryptodrop::baselines
