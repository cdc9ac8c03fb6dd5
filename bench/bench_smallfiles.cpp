// §V-C reproduction: the CTB-Locker small-file experiment.
//
// Paper reference: a CTB-Locker sample lost 29 files against the full
// corpus; 26 of the lost files were < 512 bytes (sdhash cannot score
// them, so union detection was impossible until past that threshold).
// Re-running with all sub-512-byte files removed dropped the loss to 7.
// This bench also sweeps the entropy-delta threshold (the paper's 0.1)
// to show the design point.
#include "bench_common.hpp"

#include "common/stats.hpp"
#include "vfs/path.hpp"

using namespace cryptodrop;

namespace {

harness::RansomwareRunResult run_ctb(const harness::Environment& env,
                                     std::uint64_t seed,
                                     const core::ScoringConfig& config = {}) {
  sim::SampleSpec spec;
  spec.family = "CTB-Locker";
  spec.behavior = sim::BehaviorClass::B;
  spec.profile = sim::family_profile("CTB-Locker", sim::BehaviorClass::B);
  spec.seed = seed;
  return harness::run_sample(env, spec, {config});
}

}  // namespace

int main(int argc, char** argv) {
  const auto scale = benchutil::parse_scale(argc, argv);
  const harness::Environment env = benchutil::build_environment(scale);

  corpus::CorpusSpec filtered_spec;
  filtered_spec.total_files = scale.corpus_files;
  filtered_spec.total_dirs = scale.corpus_dirs;
  filtered_spec.min_file_size = 512;
  filtered_spec.compute_hashes = false;
  std::fprintf(stderr, "[bench] building filtered corpus (no files < 512 B)...\n");
  const harness::Environment env_filtered =
      harness::make_environment(filtered_spec, scale.corpus_seed);

  std::printf("== §V-C: CTB-Locker vs small files ==\n\n");

  std::vector<double> with_small, without_small;
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    const auto a = run_ctb(env, seed);
    const auto b = run_ctb(env_filtered, seed);
    with_small.push_back(static_cast<double>(a.files_lost));
    without_small.push_back(static_cast<double>(b.files_lost));

    if (seed == 1) {
      // Detail for the first sample: how many lost files were tiny?
      std::size_t tiny_lost = 0;
      vfs::FileSystem fs = env.base_fs.clone();
      core::AnalysisEngine engine{core::ScoringConfig{}};
      fs.attach_filter(&engine);
      const vfs::ProcessId pid = fs.register_process("ctb");
      sim::RansomwareSample sample(sim::family_profile("CTB-Locker", sim::BehaviorClass::B), seed);
      (void)sample.run(fs, pid, env.corpus.root);
      for (std::size_t idx : corpus::lost_file_indices(fs, env.corpus)) {
        if (env.corpus.manifest[idx].size < 512) ++tiny_lost;
      }
      fs.detach_filter(&engine);
      std::printf("sample #1: files lost %zu, of which < 512 B: %zu   [paper: 29, of which 26]\n\n",
                  static_cast<std::size_t>(a.files_lost), tiny_lost);
    }
  }

  harness::TextTable table({"Corpus", "Median files lost (9 samples)"});
  table.add_row({"full (with sub-512B files)", harness::fmt_double(median(with_small), 1)});
  table.add_row({"filtered (>= 512B only)", harness::fmt_double(median(without_small), 1)});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("[paper: 29 -> 7 for the re-run sample]\n\n");

  // Companion sweep: the entropy-delta threshold design point (§IV-C.1).
  std::printf("entropy-delta threshold sweep (TeslaCrypt sample, full corpus):\n");
  std::printf("%-12s %-12s %s\n", "threshold", "files lost", "entropy events");
  for (double threshold : {0.02, 0.05, 0.1, 0.2, 0.5, 1.0}) {
    core::ScoringConfig config;
    config.entropy.delta_threshold = threshold;
    sim::SampleSpec tesla;
    tesla.family = "TeslaCrypt";
    tesla.behavior = sim::BehaviorClass::A;
    tesla.profile = sim::family_profile("TeslaCrypt", sim::BehaviorClass::A);
    tesla.seed = 7;
    const auto r = harness::run_sample(env, tesla, {config});
    std::printf("%-12.2f %-12zu %llu%s\n", threshold, r.files_lost,
                static_cast<unsigned long long>(r.report.entropy_events),
                threshold == 0.1 ? "   <- paper's threshold" : "");
  }
  return 0;
}
