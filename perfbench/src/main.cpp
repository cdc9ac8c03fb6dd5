// perfbench — replay benchmark of the CryptoDrop monitor.
//
//   perfbench --workload desktop|campaign|daemon --seed N --seconds S
//             --trace 0|1 [--corpus-seed N] [--campaign-seed N]
//             [--benign-seed N] [--socket PATH] [--spans-out FILE]
//
// Set-up records the workload's golden op streams with the harness; the
// measured part replays them through the monitor's public entry points
// (vfs::ExactReplayer::apply over an AnalysisEngine-filtered FileSystem,
// or cryptodropd's control API over AF_UNIX) and checks every answer
// against the golden scoreboards. Human-readable lines go to stdout
// first; the last line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md in this directory for every metric's definition).
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <malloc.h>
#include <map>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "daemon_load.hpp"
#include "inputs.hpp"
#include "replay.hpp"
#include "rss.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

/// Set-ups per end-to-end run; setup_s is their median.
constexpr std::size_t kSetupReps = 3;

struct Args {
  Workload workload = Workload::desktop;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Seeds seeds;
  std::string socket;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload desktop|campaign|daemon "
               "--seed N --seconds S --trace 0|1 [--corpus-seed N] "
               "[--campaign-seed N] [--benign-seed N] [--socket PATH] "
               "[--spans-out FILE]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t to_u64(const char* text, const char* flag) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) usage(std::string("bad value for ") + flag);
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  std::map<std::string, std::uint64_t> seed_overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      const auto workload = workload_from_name(value);
      if (!workload) usage(std::string("unknown workload ") + value);
      args.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = to_u64(value, "--seed");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(to_u64(value, "--seconds"));
    } else if (flag == "--trace") {
      args.trace = to_u64(value, "--trace") != 0;
    } else if (flag == "--corpus-seed" || flag == "--campaign-seed" ||
               flag == "--benign-seed") {
      seed_overrides[flag] = to_u64(value, flag.c_str());
    } else if (flag == "--socket") {
      args.socket = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  args.seeds = seeds_from(args.seed);
  if (seed_overrides.count("--corpus-seed")) args.seeds.corpus = seed_overrides["--corpus-seed"];
  if (seed_overrides.count("--campaign-seed")) args.seeds.campaign = seed_overrides["--campaign-seed"];
  if (seed_overrides.count("--benign-seed")) args.seeds.benign = seed_overrides["--benign-seed"];
  if (args.socket.empty()) {
    args.socket = ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
  }
  return args;
}

/// The result line's metrics, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    entries_.push_back({name, value, unit});
    std::printf("  %-30s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  /// A derived figure for the report only (not in the result line).
  static void info(const std::string& name, double value, const std::string& unit,
                   const std::string& note = "") {
    std::printf("  info %-25s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  [[nodiscard]] std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char number[64];
      const auto [end, ec] =
          std::to_chars(number, number + sizeof(number), entries_[i].value);
      (void)ec;
      out += (i == 0 ? "\"" : ",\"") + entries_[i].name + "\":{\"value\":" +
             std::string(number, end) + ",\"unit\":\"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Correctness ledger for the result line.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void check(std::size_t count, std::size_t failures) {
    attempted += count;
    failed += failures;
  }
};

std::string count_note(std::size_t n) { return "(n=" + std::to_string(n) + ")"; }

/// Fails every trial whose final verdict differs from the paper's
/// (every sample suspended; of the apps, only the expected false
/// positive), and reports detected_frac, false_positives and, when the
/// pass counted them, files_lost.p50 of the samples.
void check_verdicts(const Inputs& inputs, const std::vector<TrialOutcome>& outcomes,
                    bool files_counted, Ledger& ledger) {
  std::size_t wrong = 0;
  std::size_t samples = 0;
  std::size_t detected = 0;
  std::size_t false_positives = 0;
  Distribution lost;
  for (std::size_t t = 0; t < outcomes.size(); ++t) {
    const Trial& trial = inputs.trials[t];
    if (outcomes[t].suspended != trial.expected_suspended) {
      std::fprintf(stderr, "[perfbench] verdict differs from the paper's: %s\n",
                   trial.label.c_str());
      ++wrong;
    }
    if (trial.ransomware) {
      ++samples;
      detected += outcomes[t].suspended ? 1 : 0;
      lost.add(static_cast<double>(outcomes[t].files_lost));
    } else {
      false_positives += outcomes[t].suspended ? 1 : 0;
    }
  }
  ledger.check(outcomes.size(), wrong);
  if (samples > 0) {
    Metrics::info("detected_frac", static_cast<double>(detected) / static_cast<double>(samples),
                  "ratio", std::to_string(detected) + " of " + std::to_string(samples));
  }
  if (samples > 0 && files_counted) Metrics::info("files_lost.p50", lost.p(50), "count");
  if (samples < outcomes.size()) {
    Metrics::info("false_positives", static_cast<double>(false_positives), "count",
                  "of " + std::to_string(outcomes.size() - samples) + " apps");
  }
}

/// Builds the inputs `reps` times (the set-up cost is the median) and
/// keeps the last set. The daemon workload's end-to-end set-up also runs
/// the reference replay that locates each trial's suspending op (the
/// traced run's first pass does that instead).
std::unique_ptr<Inputs> set_up(const Args& args, std::size_t reps,
                               Distribution& setup_s, Ledger& ledger) {
  std::unique_ptr<Inputs> inputs;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    inputs.reset();
    // Hand the freed set back to the system, so every set-up starts from
    // the same footprint and peak RSS does not depend on reuse luck.
    ::malloc_trim(0);
    const double start = now_s();
    inputs = std::make_unique<Inputs>(make_inputs(args.workload, args.seeds));
    if (args.workload == Workload::daemon && !args.trace) {
      const PassResult reference = replay_pass(*inputs, ReplayOptions{});
      for (std::size_t t = 0; t < inputs->trials.size(); ++t) {
        inputs->trials[t].suspend_op = reference.trials[t].suspend_op;
      }
      if (rep + 1 == reps) {
        ledger.check(reference.checks, reference.mismatches);
        check_verdicts(*inputs, reference.trials, false, ledger);
      }
    }
    setup_s.add(now_s() - start);
  }
  std::fprintf(stderr, "[perfbench] %s: %zu trials, %zu ops\n",
               std::string(workload_name(args.workload)).c_str(),
               inputs->trials.size(), inputs->total_ops());
  return inputs;
}

DaemonLoadOptions daemon_options(const Args& args, SpanLog* spans) {
  DaemonLoadOptions options;
  options.socket_path = args.socket;
  options.spans = spans;
  return options;
}

/// What the end-to-end metrics are taken from.
struct Timings {
  Distribution latency_us;
  double ops_per_s = 0.0;
  Distribution verdict_ms;
  std::string how;  ///< How the samples were gathered, for the report.
};

/// Desktop and campaign: one warm-up pass that checks the verdicts, then
/// timed passes until `seconds` of wall time have gone into them (at
/// least one). Each op's time is its best over the timed passes: the
/// replay is deterministic, so every cost an op pays it pays on each
/// pass, while interference from the rest of a shared host, which can
/// slow memory-bound code by 30-50% for seconds at a time, is stripped.
Timings time_replay(const Args& args, const Inputs& inputs, Ledger& ledger) {
  ReplayOptions warm_up;
  warm_up.count_files_lost = true;
  const PassResult first = replay_pass(inputs, warm_up);
  ledger.check(first.op_us.size(), first.failed_ops);
  ledger.check(first.checks, first.mismatches);
  check_verdicts(inputs, first.trials, true, ledger);

  std::vector<double> best_us;
  std::size_t passes = 0;
  const double start = now_s();
  do {
    const PassResult pass = replay_pass(inputs, ReplayOptions{});
    ledger.check(pass.op_us.size(), pass.failed_ops);
    ledger.check(pass.checks, pass.mismatches);
    if (best_us.empty()) best_us = pass.op_us;
    for (std::size_t i = 0; i < best_us.size(); ++i) {
      best_us[i] = std::min(best_us[i], pass.op_us[i]);
    }
    ++passes;
    std::fprintf(stderr, "[perfbench] pass: op_us.p50 %.3f p99 %.1f\n",
                 percentile(pass.op_us, 50), percentile(pass.op_us, 99));
  } while (now_s() - start < args.seconds);

  Timings timings;
  for (const double us : best_us) timings.latency_us.add(us);
  timings.ops_per_s = static_cast<double>(best_us.size()) / (timings.latency_us.sum() / 1e6);
  timings.verdict_ms = verdict_ms(inputs, first.trials, best_us);
  timings.how = "per-op best of " + std::to_string(passes) + " passes";
  return timings;
}

/// Daemon: a pass is long (~16 s) and its tails come from rare stalls,
/// so every pass is timed (at least one, until `seconds` are used up)
/// and the samples of all passes are pooled.
Timings time_daemon(const Args& args, const Inputs& inputs, Ledger& ledger) {
  Timings timings;
  Distribution saturated;
  const double start = now_s();
  do {
    const DaemonLoadResult pass = run_daemon_load(inputs, daemon_options(args, nullptr));
    ledger.check(pass.ops_sent, pass.shed);
    ledger.check(pass.checks, pass.mismatches);
    std::fprintf(stderr,
                 "[perfbench] daemon pass: %zu ops sent, %zu shed, %zu/%zu "
                 "verdicts differ, open loop %.2fs, saturated %.0f ops/s, "
                 "max queue depth %zu, open-loop digest cache %llu/%llu hits\n",
                 pass.ops_sent, pass.shed, pass.mismatches, pass.checks,
                 pass.open_loop_s, pass.saturated_ops_per_s, pass.max_queue_depth,
                 static_cast<unsigned long long>(pass.cache_hits),
                 static_cast<unsigned long long>(pass.cache_lookups));
    for (const double ms : pass.exec_ms.values()) timings.latency_us.add(ms * 1e3);
    for (const double ms : pass.verdict_ms.values()) timings.verdict_ms.add(ms);
    saturated.add(pass.saturated_ops_per_s);
  } while (now_s() - start < args.seconds);
  timings.ops_per_s = saturated.p(50);
  timings.how = "pooled over " + std::to_string(saturated.count()) + " passes";
  return timings;
}

/// End-to-end run (--trace 0).
void run_end_to_end(const Args& args, Metrics& metrics, Ledger& ledger) {
  Distribution setup_s;
  const std::unique_ptr<Inputs> inputs = set_up(args, kSetupReps, setup_s, ledger);
  const bool daemon = args.workload == Workload::daemon;
  // peak_rss_mb covers the measured part only: the inputs stay resident,
  // the set-up's transient peak does not count.
  ::malloc_trim(0);
  const bool peak_reset = reset_peak_rss();

  const Timings t = daemon ? time_daemon(args, *inputs, ledger)
                           : time_replay(args, *inputs, ledger);
  // Flags a tail percentile that leaves fewer than ten samples beyond it.
  auto tail_note = [](double pct, const Distribution& sample) {
    return tail_percentile(sample.count()) >= pct
               ? std::string()
               : std::string(" (fewer than 10 samples beyond)");
  };
  metrics.set("setup_s", setup_s.p(50), "s", "median of " + std::to_string(setup_s.count()));
  metrics.set("latency_us.p50", t.latency_us.p(50), "us",
              std::string(daemon ? "exec_ms.p50 (scheduled send -> executed)"
                                 : "op_us.p50 (one monitored apply)") +
                  ", " + t.how + " " + count_note(t.latency_us.count()));
  metrics.set("latency_us.p99", t.latency_us.p(99), "us",
              (daemon ? "exec_ms.p99" : "op_us.p99") + tail_note(99, t.latency_us));
  metrics.set("ops_per_s", t.ops_per_s, "1/s",
              daemon ? "saturated, executed, median over passes"
                     : "replayed, per second of replay");
  metrics.set("verdict_ms.p50", t.verdict_ms.p(50), "ms", count_note(t.verdict_ms.count()));
  metrics.set("verdict_ms.mean", t.verdict_ms.mean(), "ms");
  Metrics::info("verdict_ms.p95", t.verdict_ms.p(95), "ms", tail_note(95, t.verdict_ms));
  metrics.set("peak_rss_mb", peak_rss_mib().value_or(0.0), "MB",
              peak_reset ? "after set-up" : "set-up included (no clear_refs)");
}

const obs::HistogramSnapshot* histogram(const obs::MetricsSnapshot& snapshot,
                                        const char* name) {
  static const obs::HistogramSnapshot kEmpty;
  const obs::HistogramSnapshot* found = snapshot.histogram(name);
  return found != nullptr ? found : &kEmpty;
}

double counter(const obs::MetricsSnapshot& snapshot, const char* name) {
  const obs::CounterSnapshot* found = snapshot.counter(name);
  return found != nullptr ? static_cast<double>(found->value) : 0.0;
}

/// Per-layer run (--trace 1).
void run_per_layer(const Args& args, Metrics& metrics, Ledger& ledger) {
  Distribution setup_s;
  const std::unique_ptr<Inputs> inputs = set_up(args, 1, setup_s, ledger);
  SpanLog spans;

  ReplayOptions monitored;
  monitored.spans = &spans;
  monitored.count_files_lost = true;
  monitored.op_span = "core.apply";
  const PassResult engine = replay_pass(*inputs, monitored);
  ledger.check(engine.op_us.size(), engine.failed_ops);
  ledger.check(engine.checks, engine.mismatches);
  check_verdicts(*inputs, engine.trials, true, ledger);
  for (std::size_t t = 0; t < inputs->trials.size(); ++t) {
    inputs->trials[t].suspend_op = engine.trials[t].suspend_op;
  }

  ReplayOptions bare;
  bare.monitored = false;
  bare.spans = &spans;
  bare.op_span = "vfs.apply";
  const PassResult vfs_only = replay_pass(*inputs, bare);
  ledger.check(vfs_only.op_us.size(), vfs_only.failed_ops);

  ReplayOptions traced = monitored;
  traced.engine_tracing = true;
  traced.count_files_lost = false;
  traced.op_span = "obs.apply";
  const PassResult obs_pass = replay_pass(*inputs, traced);
  ledger.check(obs_pass.op_us.size(), obs_pass.failed_ops);
  ledger.check(obs_pass.checks, obs_pass.mismatches);

  const KernelResult kernels = kernel_pass(*inputs, spans);
  const DaemonLoadResult daemon = run_daemon_load(*inputs, daemon_options(args, &spans));
  ledger.check(daemon.ops_sent, daemon.shed);
  ledger.check(daemon.checks, daemon.mismatches);

  const Distribution core_us = spans.durations_us("core.apply");
  const Distribution vfs_us = spans.durations_us("vfs.apply");
  const Distribution obs_us = spans.durations_us("obs.apply");
  const Distribution submit_us = spans.durations_us("daemon.submit");
  const obs::MetricsSnapshot& m = engine.metrics;
  const obs::HistogramSnapshot* dispatch = histogram(m, "stage_latency_us.filter_dispatch");
  const obs::HistogramSnapshot* close = histogram(m, "stage_latency_us.close_measure");
  const obs::HistogramSnapshot* magic = histogram(m, "stage_latency_us.magic_sniff");
  const obs::HistogramSnapshot* fold = histogram(m, "stage_latency_us.entropy");
  const obs::HistogramSnapshot* digest = histogram(m, "stage_latency_us.sdhash_digest");
  const obs::HistogramSnapshot* execute =
      histogram(daemon.daemon_metrics, "daemon_worker_ingest_latency_us");

  std::size_t reads = 0;
  std::size_t writes = 0;
  for (const Trial& trial : inputs->trials) {
    for (const vfs::TraceEntry& entry : trial.entries) {
      reads += entry.op == vfs::OpType::read ? 1 : 0;
      writes += entry.op == vfs::OpType::write ? 1 : 0;
    }
  }
  std::printf("  workload properties: %zu reads : %zu writes (%.2f), %zu trials\n", reads,
              writes, writes > 0 ? static_cast<double>(reads) / static_cast<double>(writes) : 0.0,
              inputs->trials.size());
  metrics.set("vfs.op_us.p50", vfs_us.p(50), "us", count_note(vfs_us.count()));
  metrics.set("vfs.op_us.p99", vfs_us.p(99), "us");
  metrics.set("core.added_us.p50", core_us.p(50) - vfs_us.p(50), "us",
              "op_us.p50 " + std::to_string(core_us.p(50)) + " - vfs.op_us.p50");
  metrics.set("core.filter_dispatch_us.mean", dispatch->mean(), "us", count_note(dispatch->count));
  metrics.set("core.close_measure_us.mean", close->mean(), "us");
  metrics.set("core.close_measure.count", static_cast<double>(close->count), "count");
  metrics.set("core.ops_observed.count", counter(m, "ops_observed_total"), "count");
  metrics.set("core.degraded.count", counter(m, "degraded_measurements_total"), "count");
  Distribution lost;
  std::size_t suspended = 0;
  for (const TrialOutcome& outcome : engine.trials) {
    if (!outcome.suspended) continue;
    ++suspended;
    lost.add(static_cast<double>(outcome.files_lost));
  }
  metrics.set("core.suspended.count", static_cast<double>(suspended), "count",
              "of " + std::to_string(engine.trials.size()) + " trials");
  metrics.set("core.files_lost.p50", lost.p(50), "count", "per suspended trial");
  metrics.set("magic.identify_us.mean", kernels.magic_us.mean(), "us",
              count_note(kernels.magic_us.count()));
  metrics.set("magic.sniff.count", static_cast<double>(magic->count), "count");
  metrics.set("entropy.score_ns_per_kib", kernels.entropy_ns_per_kib, "ns/KiB");
  metrics.set("entropy.fold_us.mean", fold->mean(), "us");
  metrics.set("entropy.fold.count", static_cast<double>(fold->count), "count");
  metrics.set("simhash.compute_us.mean", kernels.simhash_us.mean(), "us",
              count_note(kernels.simhash_us.count()));
  metrics.set("simhash.digest_us.mean", digest->mean(), "us");
  const double lookups = static_cast<double>(engine.cache.hits + engine.cache.misses);
  metrics.set("simhash.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(engine.cache.hits) / lookups : 0.0,
              "ratio", std::to_string(engine.cache.hits) + " of " +
                           std::to_string(engine.cache.hits + engine.cache.misses));
  metrics.set("simhash.digests.count", counter(m, "similarity_digests_total"), "count");

  const double executed = counter(daemon.daemon_metrics, "daemon_ops_executed_total");
  const double batches = counter(daemon.daemon_metrics, "daemon_batches_drained_total");
  const double exec_p50_ms = daemon.exec_ms.p(50);
  metrics.set("daemon.submit_rtt_us.p50", submit_us.p(50), "us", count_note(submit_us.count()));
  metrics.set("daemon.submit_rtt_us.p99", submit_us.p(99), "us");
  metrics.set("daemon.wire_parse_us_per_op", kernels.wire_parse_us_per_op, "us");
  metrics.set("daemon.execute_us.mean", execute->mean(), "us", count_note(execute->count));
  metrics.set("daemon.ops_per_batch", batches > 0 ? executed / batches : 0.0, "ops");
  metrics.set("daemon.queue_depth.max", static_cast<double>(daemon.max_queue_depth), "count");
  metrics.set("daemon.queue_wait_ms.p50",
              std::max(0.0, exec_p50_ms - static_cast<double>(kOpsPerSubmit) * execute->mean() / 1e3), "ms",
              "exec_ms.p50 " + std::to_string(exec_p50_ms) + " - batch execute");
  metrics.set("daemon.shed.count", static_cast<double>(daemon.shed), "count");
  metrics.set("daemon.gen_lag_ms.p99", daemon.gen_lag_ms.p(99), "ms");
  metrics.set("obs.trace_overhead_pct", (obs_us.p(50) / core_us.p(50) - 1.0) * 100.0, "%");

  // Waterfall of the monitored replay: bare vfs dispatch, then the
  // engine's callbacks split into its stage histograms; what is left is
  // the residual (filter-chain plumbing the layers do not cover).
  const double total = core_us.sum();
  const double vfs_part = vfs_us.sum();
  const double stages = magic->sum + fold->sum + digest->sum;
  const double residual = total - vfs_part - dispatch->sum;
  auto share = [&](double part) { return total > 0 ? part / total * 100.0 : 0.0; };
  metrics.set("waterfall.vfs_pct", share(vfs_part), "%");
  metrics.set("waterfall.core_pct", share(dispatch->sum - stages), "%");
  metrics.set("waterfall.magic_pct", share(magic->sum), "%");
  metrics.set("waterfall.entropy_pct", share(fold->sum), "%");
  metrics.set("waterfall.simhash_pct", share(digest->sum), "%");
  metrics.set("waterfall.residual_pct", share(residual), "%");

  if (!args.spans_out.empty() && !spans.write_chrome_json(args.spans_out)) {
    std::fprintf(stderr, "[perfbench] cannot write %s\n", args.spans_out.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  std::printf("perfbench %s seed=%llu (corpus %llu, campaign %llu, benign %llu) trace=%d\n",
              std::string(workload_name(args.workload)).c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.seeds.corpus),
              static_cast<unsigned long long>(args.seeds.campaign),
              static_cast<unsigned long long>(args.seeds.benign), args.trace ? 1 : 0);
  Metrics metrics;
  Ledger ledger;
  try {
    if (args.trace) {
      run_per_layer(args, metrics, ledger);
    } else {
      run_end_to_end(args, metrics, ledger);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const bool correct = ledger.failed == 0 && ledger.attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
              correct ? "true" : "false", ledger.attempted, ledger.failed,
              metrics.to_json().c_str());
  return correct ? 0 : 1;
}
