// Parameterized property sweeps across the system's invariants:
// detection holds for every family x class combination, VFS invariants
// hold under randomized operation sequences, and scoring is monotone.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "harness/experiment.hpp"

namespace cryptodrop {
namespace {

harness::Environment& shared_env() {
  static harness::Environment env = [] {
    corpus::CorpusSpec spec;
    spec.total_files = 500;
    spec.total_dirs = 50;
    spec.compute_hashes = false;
    return harness::make_environment(spec, 31337);
  }();
  return env;
}

// --- detection holds for every (family, class) pair in the Table-I set ----

struct FamilyClassCase {
  std::string family;
  sim::BehaviorClass behavior;
};

class FamilyClassDetectionTest : public ::testing::TestWithParam<FamilyClassCase> {};

TEST_P(FamilyClassDetectionTest, DetectedWithBoundedLoss) {
  const auto& param = GetParam();
  sim::SampleSpec spec;
  spec.family = param.family;
  spec.behavior = param.behavior;
  spec.profile = sim::family_profile(param.family, param.behavior);
  spec.profile.behavior = param.behavior;
  spec.seed = seed_from_string(param.family) ^ static_cast<std::uint64_t>(param.behavior);
  const auto r = harness::run_sample(shared_env(), spec, {});
  EXPECT_TRUE(r.detected);
  // Bounded loss: well under 15% of the corpus for every combination.
  EXPECT_LT(r.files_lost, shared_env().corpus.file_count() * 15 / 100);
  EXPECT_FALSE(r.sample.ran_to_completion);
}

std::vector<FamilyClassCase> all_family_class_cases() {
  std::map<std::string, std::set<sim::BehaviorClass>> seen;
  for (const sim::SampleSpec& s : sim::table1_samples(1)) {
    seen[s.family].insert(s.behavior);
  }
  std::vector<FamilyClassCase> cases;
  for (const auto& [family, classes] : seen) {
    for (sim::BehaviorClass cls : classes) cases.push_back({family, cls});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Table1Pairs, FamilyClassDetectionTest,
    ::testing::ValuesIn(all_family_class_cases()),
    [](const ::testing::TestParamInfo<FamilyClassCase>& info) {
      std::string name = info.param.family + "_" +
                         std::string(sim::behavior_class_name(info.param.behavior));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- threshold monotonicity: lower threshold never loses more files ----------

class ThresholdSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdSweepTest, DetectionAtThreshold) {
  sim::SampleSpec spec;
  spec.family = "TeslaCrypt";
  spec.behavior = sim::BehaviorClass::A;
  spec.profile = sim::family_profile("TeslaCrypt", sim::BehaviorClass::A);
  spec.seed = 4242;
  core::ScoringConfig config;
  config.score_threshold = GetParam();
  config.union_threshold = std::min(config.union_threshold, GetParam());
  const auto r = harness::run_sample(shared_env(), spec, {config});
  EXPECT_TRUE(r.detected);
  // Stash for the monotonicity check below via static map.
  static std::map<int, std::size_t>& losses = *new std::map<int, std::size_t>();
  losses[GetParam()] = r.files_lost;
  for (auto it = losses.begin(); it != losses.end(); ++it) {
    for (auto jt = std::next(it); jt != losses.end(); ++jt) {
      EXPECT_LE(it->second, jt->second)
          << "threshold " << it->first << " vs " << jt->first;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweepTest,
                         ::testing::Values(50, 100, 200, 400));

// --- randomized VFS workload invariants ------------------------------------

class VfsFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VfsFuzzTest, RandomOperationSequencePreservesInvariants) {
  vfs::FileSystem fs;
  Rng rng(GetParam());
  const vfs::ProcessId pid = fs.register_process("fuzzer");
  std::vector<std::string> known_paths;
  std::vector<vfs::Handle> open_handles;

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t action = rng.uniform(0, 9);
    switch (action) {
      case 0: {  // create file
        const std::string path =
            "d" + std::to_string(rng.uniform(0, 5)) + "/f" + std::to_string(rng.uniform(0, 30));
        if (fs.write_file(pid, path, rng.bytes(rng.uniform(0, 2000))).is_ok()) {
          known_paths.push_back(path);
        }
        break;
      }
      case 1: {  // open
        if (known_paths.empty()) break;
        auto h = fs.open(pid, rng.pick(known_paths),
                         rng.chance(0.5) ? vfs::kRead : (vfs::kRead | vfs::kWrite));
        if (h) open_handles.push_back(h.value());
        break;
      }
      case 2: {  // read through a handle
        if (open_handles.empty()) break;
        (void)fs.read(pid, rng.pick(open_handles), rng.uniform(0, 512));
        break;
      }
      case 3: {  // write through a handle
        if (open_handles.empty()) break;
        (void)fs.write(pid, rng.pick(open_handles), rng.bytes(rng.uniform(0, 512)));
        break;
      }
      case 4: {  // close
        if (open_handles.empty()) break;
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform(0, open_handles.size() - 1));
        (void)fs.close(pid, open_handles[i]);
        open_handles.erase(open_handles.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 5: {  // remove
        if (known_paths.empty()) break;
        (void)fs.remove(pid, rng.pick(known_paths));
        break;
      }
      case 6: {  // rename
        if (known_paths.empty()) break;
        const std::string to =
            "d" + std::to_string(rng.uniform(0, 5)) + "/r" + std::to_string(rng.uniform(0, 30));
        if (fs.rename(pid, rng.pick(known_paths), to).is_ok()) {
          known_paths.push_back(to);
        }
        break;
      }
      case 7:  // mkdir
        (void)fs.mkdir(pid, "d" + std::to_string(rng.uniform(0, 8)));
        break;
      case 8: {  // seek
        if (open_handles.empty()) break;
        (void)fs.seek(pid, rng.pick(open_handles), rng.uniform(0, 4096));
        break;
      }
      case 9: {  // clone mid-stream: must not disturb the original
        vfs::FileSystem snapshot = fs.clone();
        EXPECT_EQ(snapshot.file_count(), fs.file_count());
        EXPECT_EQ(snapshot.open_handle_count(), 0u);
        break;
      }
    }

    // Invariants after every step:
    EXPECT_LE(fs.open_handle_count(), open_handles.size());
    for (const std::string& path : fs.list_files_recursive("")) {
      auto info = fs.stat(path);
      ASSERT_TRUE(info.is_ok()) << path;
      auto data = fs.read_unfiltered(path);
      ASSERT_NE(data, nullptr) << path;
      EXPECT_EQ(data->size(), info.value().size) << path;
    }
  }
  // Drain remaining handles; every close of a live handle succeeds once.
  for (const vfs::Handle& h : open_handles) (void)fs.close(pid, h);
  EXPECT_EQ(fs.open_handle_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VfsFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- engine never flags a no-op or read-only process -------------------------

class ReadOnlyProcessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReadOnlyProcessTest, PureReadersScoreZero) {
  vfs::FileSystem fs = shared_env().base_fs.clone();
  core::AnalysisEngine engine((core::ScoringConfig()));
  fs.attach_filter(&engine);
  const vfs::ProcessId pid = fs.register_process("reader");
  Rng rng(GetParam());
  const auto files = fs.list_files_recursive(shared_env().corpus.root);
  for (int i = 0; i < 60; ++i) {
    (void)fs.read_file(pid, rng.pick(files));
  }
  EXPECT_EQ(engine.score(pid), 0);
  EXPECT_FALSE(engine.is_suspended(pid));
  fs.detach_filter(&engine);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadOnlyProcessTest,
                         ::testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace cryptodrop
