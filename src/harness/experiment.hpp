// Experiment harness: builds the environment once, then executes malware
// samples / benign workloads against cheap copy-on-write clones of it —
// the in-memory equivalent of the paper's "revert the VM snapshot between
// samples" methodology — and gathers the measurements every table and
// figure is derived from.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "corpus/builder.hpp"
#include "obs/span.hpp"
#include "sim/benign/benign.hpp"
#include "sim/ransomware/families.hpp"
#include "sim/ransomware/ransomware.hpp"
#include "vfs/fault_filter.hpp"
#include "vfs/filesystem.hpp"

namespace cryptodrop::harness {

/// A populated victim machine: base volume + corpus manifest.
struct Environment {
  vfs::FileSystem base_fs;
  corpus::Corpus corpus;
  corpus::CorpusSpec spec;
};

/// Builds the standard 5,099-file / 511-directory environment (or a
/// custom `spec`). Deterministic in `seed`.
Environment make_environment(const corpus::CorpusSpec& spec, std::uint64_t seed);
/// make_environment() with the paper's default corpus spec.
Environment make_default_environment(std::uint64_t seed);

/// A scaled-down environment for unit/integration tests (fast to build).
corpus::CorpusSpec small_corpus_spec(std::size_t files, std::size_t dirs);

/// One registered process of a trial volume (pid order). The daemon
/// parity runner replays this roster through `spawn` requests so the
/// tenant's process table — and therefore family scoring — reproduces
/// the golden run's exactly.
struct ProcessRosterEntry {
  vfs::ProcessId pid = 0;
  std::string name;
  vfs::ProcessId parent = 0;  ///< 0 = no parent.
};

/// Knobs of a chaos run: every trial replays over its own
/// FaultInjectionFilter. Plain value type.
struct FaultCampaignOptions {
  /// Base fault schedule. A sample runs under plan.reseeded(spec.seed), a
  /// benign workload under plan.reseeded(<hash of its name> + suite seed),
  /// so the faults a trial sees do not depend on trial order and a
  /// parallel chaos campaign is bit-identical to the serial one.
  vfs::FaultPlan plan;
  /// Samples tolerate this many consecutive denied attacks before
  /// giving up (RansomwareProfile::give_up_after_denials override).
  /// Under spurious injected denials a first-denial quitter would stop
  /// with near-zero files lost on its own — masking the detector — so
  /// chaos samples are configured more stubborn than the default 1.
  std::size_t sample_give_up_after_denials = 4;
};

/// What every trial of a run shares. Plain value type; `RunPlan{config}`
/// is a plain, fault-free, untraced run.
struct RunPlan {
  core::ScoringConfig config{};
  /// Set = a chaos run: per-trial fault filter below the engine, the
  /// campaign's give-up override on samples, the filter's
  /// faults_injected_total counters merged into each result's metrics,
  /// and `detected` judged by engine suspension alone (an injected
  /// denial halts a sample just as a suspension would).
  std::optional<FaultCampaignOptions> faults{};
  /// Span tracing per trial. The deterministic span-id scheme makes the
  /// merged trace of a campaign identical at any job count.
  obs::TraceOptions trace{};
};

/// Outcome of one ransomware sample vs. CryptoDrop.
struct RansomwareRunResult {
  std::string family;
  sim::BehaviorClass behavior{};
  bool detected = false;
  std::size_t files_lost = 0;
  int final_score = 0;
  bool union_triggered = false;
  std::uint64_t union_count = 0;
  core::ProcessReport report;
  /// The full end-of-run engine snapshot (every process report + the
  /// default threshold) — the daemon parity gate compares this
  /// scoreboard against a live daemon's `verdicts` response
  /// (harness/daemon_runner.hpp).
  core::EngineSnapshot scoreboard;
  /// Every process registered on the trial volume when the run ended.
  std::vector<ProcessRosterEntry> roster;
  /// The trial engine's full metrics at the end of the run (counters,
  /// gauges, stage-latency histograms). Merge across trials with
  /// merged_metrics().
  obs::MetricsSnapshot metrics;
  /// Every span the trial's tracer retained (empty unless the run was
  /// given enabled TraceOptions). Export with harness::trace_report.
  obs::SpanSnapshot trace;
  sim::SampleRun sample;
  /// Directories (under the corpus root) holding a file the sample read,
  /// wrote, removed or renamed — either end of a rename — in an operation
  /// that succeeded — Figure 4's shading.
  std::set<std::string> directories_touched;
  /// Distinct extensions of the corpus files among those (the sample's
  /// own notes and outputs excluded) — Figure 5.
  std::set<std::string> extensions_accessed;
};

/// Runs one ransomware sample in a fresh MonitorSession over a pristine
/// clone of `env.base_fs` and reports the outcome. Deterministic in
/// (spec.seed, plan).
///
/// `below_engine` (nullable, caller-owned) is stacked below the engine
/// for this trial only — attached before the sample starts, detached
/// before returning. With `plan.faults`, the plan's per-trial fault
/// filter sits lower still, nearest the volume, so filters above it
/// observe the failed outcome of every injected fault. When
/// `plan.trace.enabled`, the result's `trace` carries the trial's spans.
RansomwareRunResult run_sample(const Environment& env, const sim::SampleSpec& spec,
                               const RunPlan& plan,
                               vfs::Filter* below_engine = nullptr);

/// Outcome of one benign workload vs. CryptoDrop.
struct BenignRunResult {
  std::string app;
  bool detected = false;           ///< Suspended at the configured threshold.
  bool expected_false_positive = false;
  int final_score = 0;
  bool union_triggered = false;
  core::ProcessReport report;
  /// The full end-of-run engine snapshot (daemon parity gate input, as
  /// in RansomwareRunResult).
  core::EngineSnapshot scoreboard;
  /// Every process registered on the trial volume when the run ended.
  std::vector<ProcessRosterEntry> roster;
  /// The trial engine's full metrics at the end of the run.
  obs::MetricsSnapshot metrics;
  /// Spans retained by the trial's tracer (empty unless traced).
  obs::SpanSnapshot trace;
};

/// Runs one benign workload in a fresh MonitorSession; deterministic in
/// (workload.name, seed, plan). The filter stack is run_sample()'s. A
/// benign app does not retry, so an injected denial may end it early;
/// `detected` still means engine suspension.
BenignRunResult run_workload(const Environment& env, const sim::BenignWorkload& workload,
                             std::uint64_t seed, const RunPlan& plan,
                             vfs::Filter* below_engine = nullptr);

// The pre-RunPlan names of the two per-trial runs, kept only for the
// replay benchmark (perfbench/src/inputs.cpp): perfbench/ must build
// unchanged against every commit it compares, so these stay until the
// next change to the benchmark. No other caller may use them.

/// run_sample(env, spec, RunPlan{config}, below_engine); perfbench only.
inline RansomwareRunResult run_ransomware_sample_filtered(
    const Environment& env, const sim::SampleSpec& spec,
    const core::ScoringConfig& config, vfs::Filter* below_engine) {
  return run_sample(env, spec, RunPlan{config}, below_engine);
}
/// run_workload(env, workload, seed, RunPlan{config}, below_engine);
/// perfbench only.
inline BenignRunResult run_benign_workload_filtered(
    const Environment& env, const sim::BenignWorkload& workload,
    const core::ScoringConfig& config, std::uint64_t seed, vfs::Filter* below_engine) {
  return run_workload(env, workload, seed, RunPlan{config}, below_engine);
}

// --- aggregation helpers (the numbers the paper reports) ---------------

/// Sums the per-trial metrics of a campaign into one snapshot: counters
/// and histogram counts add across trials, gauges keep their maximum.
obs::MetricsSnapshot merged_metrics(const std::vector<RansomwareRunResult>& results);
/// merged_metrics() over the benign suite's per-trial metrics.
obs::MetricsSnapshot merged_metrics(const std::vector<BenignRunResult>& results);

/// One row of Table I.
struct FamilyRow {
  std::string family;
  std::size_t class_a = 0;
  std::size_t class_b = 0;
  std::size_t class_c = 0;
  std::size_t total = 0;
  double median_files_lost = 0.0;
};

/// Groups campaign results per family (Table I rows, family-name order).
std::vector<FamilyRow> aggregate_table1(const std::vector<RansomwareRunResult>& results);

/// Files-lost values in campaign order (Figure 3's sample set).
std::vector<double> files_lost_values(const std::vector<RansomwareRunResult>& results);

/// Aggregate extension access frequency: for each extension, how many
/// samples accessed at least one such file before detection (Figure 5).
std::vector<std::pair<std::string, std::size_t>> extension_frequency(
    const std::vector<RansomwareRunResult>& results);

}  // namespace cryptodrop::harness
