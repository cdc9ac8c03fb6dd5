// Threshold-selection and entropy-backend ROC study.
//
// Part 1 (§IV-B): "This scoring mechanism allows us to keep our scoring
// thresholds low without incurring significant false positives." Sweeps
// the non-union threshold and reports both sides of the trade: median
// files lost across a sampled malware campaign (lower threshold =
// earlier detection) and the number of benign-suite applications whose
// final score would cross it.
//
// Part 2 (DESIGN.md §14): one run emits a per-backend ROC table — every
// entropy backend (shannon, chi_square, serial_correlation, daa, plus
// an equal-weight ensemble of all four) scored against the full family
// zoo and the 30-app benign suite with suspension disabled, so each
// trial's final score ranks it. TPR/FPR come from sweeping a threshold
// over those scores; AUC is the threshold-free Mann-Whitney statistic
// P(malicious score > benign score). The second AUC column restricts
// the benign side to the compressed-corpus writers (apps whose
// shannon-measured write mean is >= 6 bits/byte — archivers, browsers
// downloading media, image editors), the population arXiv 2210.13376
// says plain Shannon entropy confuses with ciphertext.
//
// Extra flags on top of bench_common:
//   --quick            tiny corpus/sample sanity mode (the per-backend
//                      ctest entries run this; exit 1 = backend broken)
//   --entropy-backend  restrict part 2 to one backend
#include "bench_common.hpp"

#include <algorithm>
#include <cstring>

#include "common/stats.hpp"
#include "entropy/backend.hpp"

using namespace cryptodrop;

namespace {

/// One backend configuration under study: a label and the entropy block
/// it runs with.
struct BackendRun {
  std::string label;
  core::EntropyConfig entropy;
};

/// Mann-Whitney AUC: P(pos > neg) with ties counted half. The ROC-curve
/// area without choosing thresholds; 0.5 = the scores do not separate
/// the classes at all.
double mann_whitney_auc(const std::vector<int>& pos, const std::vector<int>& neg) {
  if (pos.empty() || neg.empty()) return 0.5;
  double acc = 0.0;
  for (int p : pos) {
    for (int n : neg) {
      if (p > n) {
        acc += 1.0;
      } else if (p == n) {
        acc += 0.5;
      }
    }
  }
  return acc / (static_cast<double>(pos.size()) * static_cast<double>(neg.size()));
}

double rate_at_least(const std::vector<int>& scores, int threshold) {
  if (scores.empty()) return 0.0;
  std::size_t n = 0;
  for (int s : scores) n += s >= threshold ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(scores.size());
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the flags bench_common does not know before scale parsing
  // (its parser would read "--quick" as a positional corpus size).
  bool quick = false;
  std::string only_backend;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--entropy-backend") == 0 && i + 1 < argc) {
      only_backend = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  auto scale = benchutil::parse_scale(static_cast<int>(rest.size()), rest.data());
  if (quick) {
    scale.corpus_files = std::min<std::size_t>(scale.corpus_files, 500);
    scale.max_samples = std::min<std::size_t>(scale.max_samples, 16);
  }
  if (scale.max_samples > 80) scale.max_samples = 80;
  const harness::Environment env = benchutil::build_environment(scale);
  const auto specs = benchutil::campaign_specs(scale);

  // The backends under study, shannon first (its benign run defines the
  // compressed-writer subset used by every row's second AUC column).
  std::vector<BackendRun> runs;
  for (entropy::BackendKind kind : entropy::all_backend_kinds()) {
    BackendRun run;
    run.label = std::string(entropy::backend_name(kind));
    run.entropy.backend = kind;
    runs.push_back(std::move(run));
  }
  {
    BackendRun run;
    run.label = "ensemble";
    for (entropy::BackendKind kind : entropy::all_backend_kinds()) {
      run.entropy.ensemble.members.push_back(core::EnsembleMember{kind, 1.0});
    }
    runs.push_back(std::move(run));
  }
  if (!only_backend.empty()) {
    std::erase_if(runs, [&](const BackendRun& r) { return r.label != only_backend; });
    if (runs.empty()) {
      std::fprintf(stderr, "unknown --entropy-backend `%s`\n", only_backend.c_str());
      return 2;
    }
  }

  // --- part 2 data: unbounded-score runs per backend --------------------
  // Suspension off: every trial runs to completion and its final score
  // ranks it, which is what a score-based ROC needs.
  struct RunData {
    std::vector<int> malicious;
    std::vector<int> benign;
    std::vector<int> benign_compressed;
    std::size_t detected_at_paper = 0;  // separate run at threshold 200
  };
  std::vector<RunData> data(runs.size());
  std::vector<std::string> compressed_apps;  // shannon-defined subset
  std::vector<std::pair<std::string, int>> shannon_benign_scores;

  for (std::size_t i = 0; i < runs.size(); ++i) {
    core::ScoringConfig unbounded;
    unbounded.score_threshold = 1 << 30;
    unbounded.union_threshold = 1 << 30;
    unbounded.entropy = runs[i].entropy;
    std::fprintf(stderr, "[bench] backend %s: campaign (%zu samples)...\n",
                 runs[i].label.c_str(), specs.size());
    const auto campaign = harness::run_campaign(
        env, specs, benchutil::run_plan(scale, unbounded), benchutil::runner_options(scale));
    for (const auto& r : campaign) data[i].malicious.push_back(r.final_score);

    std::fprintf(stderr, "[bench] backend %s: benign suite...\n",
                 runs[i].label.c_str());
    const auto benign = harness::run_benign_suite(
        env, sim::all_benign_workloads(), /*seed=*/9, benchutil::run_plan(scale, unbounded),
        benchutil::runner_options(scale));
    if (runs[i].label == "shannon") {
      for (const auto& r : benign) {
        shannon_benign_scores.emplace_back(r.app, r.final_score);
        if (r.report.write_entropy_mean >= 6.0) compressed_apps.push_back(r.app);
      }
    }
    for (const auto& r : benign) {
      data[i].benign.push_back(r.final_score);
      if (std::find(compressed_apps.begin(), compressed_apps.end(), r.app) !=
          compressed_apps.end()) {
        data[i].benign_compressed.push_back(r.final_score);
      }
    }

    // Detection rate with suspension live at the paper's threshold.
    core::ScoringConfig paper;
    paper.entropy = runs[i].entropy;
    std::fprintf(stderr, "[bench] backend %s: paper-threshold campaign...\n",
                 runs[i].label.c_str());
    const auto live = harness::run_campaign(env, specs, benchutil::run_plan(scale, paper),
                                            benchutil::runner_options(scale));
    for (const auto& r : live) data[i].detected_at_paper += r.detected ? 1 : 0;
  }

  // --- part 2 report ----------------------------------------------------
  std::printf("== per-backend ROC vs the family zoo (%zu samples, %zu benign apps) ==\n",
              specs.size(), data[0].benign.size());
  std::printf("compressed-writer benign subset (shannon write mean >= 6): ");
  for (const auto& app : compressed_apps) std::printf("%s; ", app.c_str());
  std::printf("\n\n");

  harness::TextTable summary({"Backend", "AUC (all benign)",
                              "AUC (compressed benign)", "TPR@200 (live)",
                              "Benign FPs@200"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    int fps = 0;
    for (int s : data[i].benign) fps += s >= 200 ? 1 : 0;
    // The compressed column needs shannon's benign run to define the
    // subset; with --entropy-backend it may be absent.
    const std::string compressed_auc =
        data[i].benign_compressed.empty()
            ? "n/a"
            : harness::fmt_double(
                  mann_whitney_auc(data[i].malicious, data[i].benign_compressed), 4);
    summary.add_row(
        {runs[i].label,
         harness::fmt_double(mann_whitney_auc(data[i].malicious, data[i].benign), 4),
         compressed_auc,
         harness::fmt_percent(static_cast<double>(data[i].detected_at_paper) /
                                  static_cast<double>(specs.size()), 0),
         std::to_string(fps)});
  }
  std::printf("%s\n", summary.to_string().c_str());

  std::vector<std::string> roc_headers = {"Threshold"};
  for (const auto& run : runs) roc_headers.push_back(run.label + " TPR/FPR");
  harness::TextTable roc(roc_headers);
  for (int threshold : {25, 50, 100, 150, 200, 300, 400, 600}) {
    std::vector<std::string> row = {std::to_string(threshold) +
                                    (threshold == 200 ? " (paper)" : "")};
    for (std::size_t i = 0; i < runs.size(); ++i) {
      row.push_back(
          harness::fmt_percent(rate_at_least(data[i].malicious, threshold), 0) +
          "/" +
          harness::fmt_percent(rate_at_least(data[i].benign, threshold), 0));
    }
    roc.add_row(row);
  }
  std::printf("%s\n", roc.to_string().c_str());

  // --- quick mode: sanity gate for the per-backend ctest entries --------
  if (quick) {
    int failures = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const double auc = mann_whitney_auc(data[i].malicious, data[i].benign);
      if (auc < 0.55) {
        std::fprintf(stderr,
                     "[bench] FAIL %s: AUC %.3f < 0.55 — the backend no longer "
                     "separates the zoo from the benign suite\n",
                     runs[i].label.c_str(), auc);
        ++failures;
      }
      if (data[i].detected_at_paper == 0) {
        std::fprintf(stderr,
                     "[bench] FAIL %s: zero detections at the paper threshold\n",
                     runs[i].label.c_str());
        ++failures;
      }
    }
    if (failures != 0) return 1;
    std::printf("quick sanity: every backend separates and detects\n");
    return 0;
  }

  // --- part 1: the original threshold sweep (default shannon config) ----
  std::printf("== non-union threshold sweep (%zu samples, %zu benign apps) ==\n\n",
              specs.size(), shannon_benign_scores.size());
  harness::TextTable table({"Threshold", "Detection", "Median files lost",
                            "Benign FPs", "Flagged apps"});
  for (int threshold : {25, 50, 100, 150, 200, 300, 400, 600}) {
    core::ScoringConfig config;
    config.score_threshold = threshold;
    config.union_threshold = std::min(config.union_threshold, threshold);
    std::size_t detected = 0;
    std::vector<double> losses;
    const auto results = harness::run_campaign(
        env, specs, benchutil::run_plan(scale, config), benchutil::runner_options(scale));
    benchutil::maybe_write_metrics(scale, results);  // one sidecar per threshold
    benchutil::maybe_write_trace(scale, results);
    for (const auto& r : results) {
      detected += r.detected ? 1 : 0;
      losses.push_back(static_cast<double>(r.files_lost));
    }
    int fps = 0;
    std::string flagged;
    for (const auto& [app, score] : shannon_benign_scores) {
      if (score >= threshold) {
        ++fps;
        flagged += app + "; ";
      }
    }
    table.add_row({std::to_string(threshold) +
                       (threshold == 200 ? " (paper)" : ""),
                   harness::fmt_percent(static_cast<double>(detected) /
                                        static_cast<double>(specs.size()), 0),
                   harness::fmt_double(median(losses), 1), std::to_string(fps),
                   flagged});
    std::fprintf(stderr, "[bench] threshold %d done\n", threshold);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("expected knee: loss grows slowly with the threshold (union\n"
              "indication dominates detection speed) while benign FPs drop to\n"
              "exactly one — the archiver — by 250-300.\n");
  return 0;
}
