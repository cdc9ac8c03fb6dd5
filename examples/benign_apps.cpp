// Benign application gallery: runs all thirty benign workloads from the
// paper's false-positive study against the monitored corpus and prints
// each application's final reputation score. The only detection should
// be 7-zip — the paper's single (expected) false positive.
//
// Run: ./build/examples/benign_apps [corpus_files]
#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hpp"
#include "harness/table.hpp"

using namespace cryptodrop;

int main(int argc, char** argv) {
  std::size_t corpus_files = 1200;
  if (argc > 1) corpus_files = static_cast<std::size_t>(std::strtoul(argv[1], nullptr, 10));

  corpus::CorpusSpec spec;
  spec.total_files = corpus_files;
  spec.total_dirs = std::max<std::size_t>(corpus_files / 10, 16);
  std::printf("building %zu-file corpus...\n", spec.total_files);
  const harness::Environment env = harness::make_environment(spec, /*seed=*/2016);

  const harness::RunPlan plan;  // the paper's scoring, fault-free
  harness::TextTable table({"Application", "Score", "Detected", "Union"});
  std::size_t false_positives = 0;
  for (const sim::BenignWorkload& workload : sim::all_benign_workloads()) {
    const harness::BenignRunResult r =
        harness::run_workload(env, workload, /*seed=*/99, plan);
    if (r.detected) ++false_positives;
    table.add_row({r.app, std::to_string(r.final_score),
                   r.detected ? (r.expected_false_positive ? "yes (expected)" : "YES")
                              : "no",
                   r.union_triggered ? "YES" : "no"});
  }
  std::printf("\n%s\nfalse positives: %zu (paper: 1, 7-zip)\n",
              table.to_string().c_str(), false_positives);
  return 0;
}
