// Tests for the experiment harness: environment construction, sample
// runs, aggregation (Table I rows, Figure 3/5 data), and text tables.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"

namespace cryptodrop::harness {
namespace {

class HarnessTest : public ::testing::Test {
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

  sim::SampleSpec spec_for(const std::string& family, sim::BehaviorClass cls,
                           std::uint64_t seed) {
    sim::SampleSpec s;
    s.family = family;
    s.behavior = cls;
    s.profile = sim::family_profile(family, cls);
    s.profile.behavior = cls;
    s.seed = seed;
    return s;
  }
};

Environment* HarnessTest::env = nullptr;

TEST_F(HarnessTest, EnvironmentMatchesSpec) {
  EXPECT_EQ(env->corpus.file_count(), 400u);
  EXPECT_EQ(env->base_fs.file_count(), 400u);
  EXPECT_EQ(env->corpus.root, env->spec.root);
}

TEST_F(HarnessTest, RunDetectsAndCountsLoss) {
  const auto r = run_sample(*env, spec_for("TeslaCrypt", sim::BehaviorClass::A, 9), {});
  EXPECT_TRUE(r.detected);
  EXPECT_GT(r.files_lost, 0u);
  EXPECT_LT(r.files_lost, env->corpus.file_count() / 4);
  EXPECT_FALSE(r.sample.ran_to_completion);
  EXPECT_GT(r.final_score, 0);
}

TEST_F(HarnessTest, RunLeavesBaseEnvironmentPristine) {
  (void)run_sample(*env, spec_for("Xorist", sim::BehaviorClass::A, 10), {});
  EXPECT_EQ(corpus::count_files_lost(env->base_fs, env->corpus), 0u);
  EXPECT_EQ(env->base_fs.file_count(), 400u);
}

TEST_F(HarnessTest, RunsAreIndependentAndDeterministic) {
  const auto spec = spec_for("CryptoWall", sim::BehaviorClass::C, 11);
  const auto r1 = run_sample(*env, spec, {});
  const auto r2 = run_sample(*env, spec, {});
  EXPECT_EQ(r1.files_lost, r2.files_lost);
  EXPECT_EQ(r1.final_score, r2.final_score);
  EXPECT_EQ(r1.union_triggered, r2.union_triggered);
}

TEST_F(HarnessTest, DirectoriesTouchedAreUnderRoot) {
  const auto r = run_sample(*env, spec_for("GPcode", sim::BehaviorClass::A, 12), {});
  EXPECT_FALSE(r.directories_touched.empty());
  for (const std::string& dir : r.directories_touched) {
    EXPECT_TRUE(vfs::path_is_under(dir, env->corpus.root)) << dir;
  }
}

TEST_F(HarnessTest, ExtensionsAccessedAreCorpusExtensions) {
  const auto r = run_sample(*env, spec_for("TeslaCrypt", sim::BehaviorClass::A, 13), {});
  EXPECT_FALSE(r.extensions_accessed.empty());
  // Artifact extensions (.vvv, note .txt is a corpus ext though) must be
  // filtered to the corpus mix.
  for (const std::string& ext : r.extensions_accessed) {
    EXPECT_NE(ext, "vvv");
  }
}

// Figures 4 and 5 pinned on one small, fully known run. The sample is
// Class B: it renames each target out of the documents tree into a
// staging directory, encrypts the staged copy there and renames it back,
// so a target's only in-tree operations are the two renames — the first
// one's source and the second one's destination — and every read and
// write lands outside the root. It drops a .txt ransom note in each
// directory before attacking there. Suspension comes on the fifth
// rename back; the sample's next operation, the note drop in
// documents/dysyrhgsc, is denied and gives up.
TEST(HarnessStatistics, FiguresFourAndFiveCountRenamesButNotNotesOrDeniedOps) {
  corpus::CorpusSpec corpus;
  corpus.total_files = 60;
  corpus.total_dirs = 8;
  corpus.compute_hashes = false;
  const Environment env = make_environment(corpus, 123);
  sim::SampleSpec spec;
  spec.family = "Filecoder";
  spec.behavior = sim::BehaviorClass::B;
  spec.profile = sim::family_profile("Filecoder", sim::BehaviorClass::B);
  spec.profile.behavior = sim::BehaviorClass::B;
  spec.profile.note_first = true;
  spec.seed = 5;

  const RansomwareRunResult r = run_sample(env, spec, {});
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.sample.ops_denied, 1u);
  EXPECT_EQ(r.sample.files_completed, r.sample.files_attacked);
  EXPECT_EQ(r.sample.files_attacked, 5u);

  // Parents of rename sources and destinations under the root. Not the
  // staging directory (outside the root), and not documents/dysyrhgsc:
  // the only operation there was denied.
  const std::string root = env.corpus.root;
  EXPECT_EQ(r.directories_touched,
            (std::set<std::string>{root, root + "/dysyrhgsc/jtpd/hhe",
                                   root + "/dysyrhgsc/soxmardf",
                                   root + "/dysyrhgsc/vlfw"}));
  // Extensions of the renamed corpus files. No "txt" — a corpus
  // extension — although a .txt note landed in every directory: notes
  // are not in the pristine manifest.
  EXPECT_EQ(r.extensions_accessed,
            (std::set<std::string>{"doc", "docx", "gif", "xlsx"}));
}

TEST_F(HarnessTest, CampaignRunsAllSpecsWithProgress) {
  std::vector<sim::SampleSpec> specs = {
      spec_for("Xorist", sim::BehaviorClass::A, 20),
      spec_for("Virlock", sim::BehaviorClass::C, 21),
      spec_for("CTB-Locker", sim::BehaviorClass::B, 22),
  };
  std::size_t calls = 0;
  RunnerOptions serial;
  serial.jobs = 1;
  serial.progress = [&](std::size_t done, std::size_t total) {
    ++calls;
    EXPECT_LE(done, total);
  };
  const auto results = run_campaign(*env, specs, {}, serial);
  EXPECT_EQ(results.size(), 3u);
  EXPECT_EQ(calls, 3u);
  for (const auto& r : results) EXPECT_TRUE(r.detected);
}

TEST_F(HarnessTest, AggregateTable1GroupsByFamily) {
  std::vector<RansomwareRunResult> results;
  auto mk = [](const std::string& family, sim::BehaviorClass cls, std::size_t lost) {
    RansomwareRunResult r;
    r.family = family;
    r.behavior = cls;
    r.files_lost = lost;
    return r;
  };
  results.push_back(mk("X", sim::BehaviorClass::A, 4));
  results.push_back(mk("X", sim::BehaviorClass::A, 8));
  results.push_back(mk("X", sim::BehaviorClass::B, 9));
  results.push_back(mk("Y", sim::BehaviorClass::C, 3));
  const auto rows = aggregate_table1(results);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].family, "X");
  EXPECT_EQ(rows[0].class_a, 2u);
  EXPECT_EQ(rows[0].class_b, 1u);
  EXPECT_EQ(rows[0].total, 3u);
  EXPECT_DOUBLE_EQ(rows[0].median_files_lost, 8.0);
  EXPECT_EQ(rows[1].family, "Y");
  EXPECT_EQ(rows[1].class_c, 1u);
  EXPECT_DOUBLE_EQ(rows[1].median_files_lost, 3.0);
}

TEST_F(HarnessTest, FilesLostValuesPreserveOrder) {
  std::vector<RansomwareRunResult> results(3);
  results[0].files_lost = 5;
  results[1].files_lost = 1;
  results[2].files_lost = 9;
  const auto values = files_lost_values(results);
  EXPECT_EQ(values, (std::vector<double>{5, 1, 9}));
}

TEST_F(HarnessTest, ExtensionFrequencySortsByCount) {
  std::vector<RansomwareRunResult> results(3);
  results[0].extensions_accessed = {"pdf", "txt"};
  results[1].extensions_accessed = {"pdf"};
  results[2].extensions_accessed = {"pdf", "txt", "jpg"};
  const auto freq = extension_frequency(results);
  ASSERT_EQ(freq.size(), 3u);
  EXPECT_EQ(freq[0].first, "pdf");
  EXPECT_EQ(freq[0].second, 3u);
  EXPECT_EQ(freq[1].first, "txt");
  EXPECT_EQ(freq[2].first, "jpg");
}

TEST_F(HarnessTest, SmallCorpusSpecHelper) {
  const auto spec = small_corpus_spec(50, 8);
  EXPECT_EQ(spec.total_files, 50u);
  EXPECT_EQ(spec.total_dirs, 8u);
}

// --- text table rendering -----------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"Name", "Count"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("Name   Count"), std::string::npos);
  EXPECT_NE(out.find("alpha  1"), std::string::npos);
  EXPECT_NE(out.find("b      22"), std::string::npos);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable table({"A", "B", "C"});
  table.add_row({"x"});
  EXPECT_NO_THROW((void)table.to_string());
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(fmt_double(6.5, 1), "6.5");
  EXPECT_EQ(fmt_double(10.0, 1), "10");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.3028), "30.28%");
  EXPECT_EQ(fmt_percent(1.0, 0), "100%");
}

}  // namespace
}  // namespace cryptodrop::harness
