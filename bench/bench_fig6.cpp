// Figure 6 reproduction: false positives vs. non-union detection
// threshold for the five analyzed benign applications.
//
// Paper reference: final scores Adobe Lightroom 107, ImageMagick 0,
// iTunes 16, Microsoft Word 0, Microsoft Excel 150; at the experiments'
// threshold of 200 none of the five is a false positive.
#include "bench_common.hpp"

using namespace cryptodrop;

int main(int argc, char** argv) {
  const auto scale = benchutil::parse_scale(argc, argv);
  const harness::Environment env = benchutil::build_environment(scale);

  // Run each app without suspension (huge threshold) to get its full
  // score trajectory; sweep thresholds analytically afterwards (scores
  // only increase, so FP at threshold t <=> final score >= t).
  core::ScoringConfig unbounded;
  unbounded.score_threshold = 1 << 30;
  unbounded.union_threshold = 1 << 30;

  struct AppScore {
    std::string name;
    int score;
    int paper_score;
  };
  const std::map<std::string, int> paper_scores = {
      {"Adobe Lightroom", 107}, {"ImageMagick", 0}, {"iTunes", 16},
      {"Microsoft Word", 0},    {"Microsoft Excel", 150},
  };

  std::vector<AppScore> apps;
  std::fprintf(stderr, "[bench] running %zu apps on %zu workers...\n",
               sim::figure6_workloads().size(),
               harness::effective_jobs(scale.jobs));
  const auto results = harness::run_benign_suite(
      env, sim::figure6_workloads(), /*seed=*/9, benchutil::run_plan(scale, unbounded),
      benchutil::runner_options(scale));
  benchutil::maybe_write_metrics(scale, results);
  benchutil::maybe_write_trace(scale, results);
  for (const auto& r : results) {
    apps.push_back({r.app, r.final_score, paper_scores.at(r.app)});
  }

  std::printf("== Figure 6: false positives vs non-union threshold ==\n\n");
  harness::TextTable scores({"Application", "Final score", "Paper score"});
  for (const AppScore& app : apps) {
    scores.add_row({app.name, std::to_string(app.score), std::to_string(app.paper_score)});
  }
  std::printf("%s\n", scores.to_string().c_str());

  std::printf("%-10s %-16s %s\n", "threshold", "false positives", "flagged apps");
  for (int threshold : {10, 25, 50, 75, 100, 125, 150, 175, 200, 250, 300, 400}) {
    int fps = 0;
    std::string flagged;
    for (const AppScore& app : apps) {
      if (app.score >= threshold) {
        ++fps;
        flagged += app.name + "; ";
      }
    }
    std::printf("%-10d %-16d %s%s\n", threshold, fps,
                threshold == 200 ? "<- experiment threshold  " : "",
                flagged.c_str());
  }
  std::printf("\n[paper: 0 false positives among these five at threshold 200]\n");

  int fps_at_200 = 0;
  for (const AppScore& app : apps) fps_at_200 += app.score >= 200 ? 1 : 0;
  return fps_at_200 == 0 ? 0 : 1;
}
