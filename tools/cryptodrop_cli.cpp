// cryptodrop — command-line driver for the simulation framework.
//
//   cryptodrop sample   --family TeslaCrypt [--class A|B|C] [--seed N]
//                       [--corpus N] [--json]
//   cryptodrop benign   --app "Microsoft Word" [--corpus N] [--json]
//   cryptodrop campaign [--corpus N] [--samples N] [--jobs N] [--json] [--full]
//   cryptodrop corpus   [--corpus N] [--seed N]
//   cryptodrop families
//   cryptodrop apps
//
// Scoring flags (sample/benign/campaign): --threshold N,
// --union-threshold N, --entropy-backend NAME (shannon | chi_square |
// serial_correlation | daa), --entropy-ensemble NAME[:W],... (weighted
// multi-backend voting), --daa-window N. The assembled config is
// validated before any trial runs; a nonsensical combination exits 2
// with the reason.
//
// Fault injection (sample/benign/campaign): --fault-rate R stacks a
// FaultInjectionFilter below the engine with FaultPlan::uniform(R)
// faults (I/O errors, spurious denials, short writes, delayed posts);
// --fault-seed N seeds the fault stream (default 2016). Faulted runs
// judge detection strictly by engine suspension and fold the filter's
// faults_injected_total counters into the metrics sidecar.
//
// Observability: sample/benign/campaign accept --metrics-out FILE and
// write the instrumentation sidecar there — merged engine metrics plus
// one forensic timeline per run (schema in docs/OBSERVABILITY.md).
// --trace-out FILE enables span tracing and writes every trial's spans
// as one Chrome trace-event JSON (load at ui.perfetto.dev);
// --trace-sample N keeps 1-in-N operations (suspended processes always
// keep everything). `cryptodrop trace-report --in FILE [--top K]` folds
// such a file into critical-path tables: per-stage self time, top-k
// slowest operations, per-indicator cost attribution.
//
// Everything is deterministic in the seeds (campaign results are
// bit-identical at any --jobs count); --json emits the harness's
// machine-readable report instead of tables.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/stats.hpp"
#include "daemon/server.hpp"
#include "daemon/wire.hpp"
#include "obs/export_prom.hpp"
#include "entropy/backend.hpp"
#include "entropy/entropy.hpp"
#include "harness/daemon_runner.hpp"
#include "obs/trace_export.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "vfs/path.hpp"

using namespace cryptodrop;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  bool flag(const std::string& name) const { return options.contains(name); }
  std::string get(const std::string& name, const std::string& fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  std::size_t get_size(const std::string& name, std::size_t fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback
                               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double get_double(const std::string& name, double fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) continue;
    token = token.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[token] = argv[++i];
    } else {
      args.options[token] = "1";
    }
  }
  return args;
}

/// Parses "--entropy-ensemble name:weight,name:weight" (weight optional,
/// default 1) into an EnsembleConfig member list. Throws on an unknown
/// backend name; weight/duplicate errors surface via validate().
std::vector<core::EnsembleMember> parse_ensemble(const std::string& spec) {
  std::vector<core::EnsembleMember> members;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    core::EnsembleMember member;
    const std::size_t colon = item.find(':');
    std::string name = item.substr(0, colon);
    if (colon != std::string::npos) {
      member.weight = std::strtod(item.c_str() + colon + 1, nullptr);
    }
    const auto kind = entropy::backend_from_name(name);
    if (!kind.has_value()) {
      throw std::invalid_argument("--entropy-ensemble: unknown backend `" +
                                  name + "`");
    }
    member.backend = *kind;
    members.push_back(member);
  }
  return members;
}

/// Scoring config from the CLI flags, validated before anything runs.
core::ScoringConfig scoring_config(const Args& args) {
  core::ScoringConfig config;
  config.score_threshold = static_cast<int>(
      args.get_size("threshold", static_cast<std::size_t>(config.score_threshold)));
  if (args.options.contains("union-threshold")) {
    config.union_threshold =
        static_cast<int>(args.get_size("union-threshold", 0));
  } else {
    // Keep the invariant union <= base when only --threshold is lowered.
    config.union_threshold = std::min(config.union_threshold, config.score_threshold);
  }
  const std::string backend = args.get("entropy-backend", "");
  if (!backend.empty()) {
    const auto kind = entropy::backend_from_name(backend);
    if (!kind.has_value()) {
      throw std::invalid_argument("--entropy-backend: unknown backend `" +
                                  backend + "` (shannon, chi_square, "
                                  "serial_correlation, daa)");
    }
    config.entropy.backend = *kind;
  }
  const std::string ensemble = args.get("entropy-ensemble", "");
  if (!ensemble.empty()) {
    config.entropy.ensemble.members = parse_ensemble(ensemble);
  }
  config.entropy.daa_window_bytes =
      args.get_size("daa-window", config.entropy.daa_window_bytes);
  const Status valid = config.validate();
  if (!valid.is_ok()) {
    throw std::invalid_argument("scoring config: " + valid.to_string());
  }
  return config;
}

/// The trial plan every run subcommand shares: scoring flags, a chaos
/// run when --fault-rate or --fault-seed is given (the plan is validated
/// by the campaign runners / fault filter before anything runs), span
/// tracing exactly when --trace-out names a destination file.
harness::RunPlan run_plan(const Args& args) {
  harness::RunPlan plan{scoring_config(args)};
  if (args.options.contains("fault-rate") || args.options.contains("fault-seed")) {
    plan.faults.emplace();
    plan.faults->plan = vfs::FaultPlan::uniform(args.get_double("fault-rate", 0.0),
                                                args.get_size("fault-seed", 2016));
  }
  plan.trace.enabled = !args.get("trace-out", "").empty();
  plan.trace.sample_every = std::max<std::size_t>(args.get_size("trace-sample", 1), 1);
  return plan;
}

void write_json_file(const std::string& path, const Json& payload,
                     const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error(std::string("cannot open ") + what +
                             " file for writing: " + path);
  }
  const std::string text = payload.to_pretty_string();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
}

/// Writes the --metrics-out sidecar (pretty JSON) if the flag was given.
void maybe_write_metrics(const Args& args, const Json& payload) {
  const std::string path = args.get("metrics-out", "");
  if (path.empty()) return;
  write_json_file(path, payload, "metrics");
}

/// Writes the --trace-out sidecar if the flag was given. On a
/// -DCRYPTODROP_NO_METRICS build the tracer records nothing, so the file
/// is an empty-but-valid trace document.
template <typename Result>
void maybe_write_trace(const Args& args, const std::vector<Result>& results) {
  const std::string path = args.get("trace-out", "");
  if (path.empty()) return;
  write_json_file(path, harness::trace_report(results), "trace");
}

harness::Environment build_env(const Args& args, std::size_t default_files) {
  corpus::CorpusSpec spec;
  spec.total_files = args.get_size("corpus", default_files);
  spec.total_dirs = std::max<std::size_t>(spec.total_files / 10, 16);
  spec.compute_hashes = false;
  std::fprintf(stderr, "building %zu-file corpus...\n", spec.total_files);
  return harness::make_environment(spec, args.get_size("seed", 2016));
}

int cmd_sample(const Args& args) {
  const std::string family = args.get("family", "TeslaCrypt");
  sim::BehaviorClass cls = sim::BehaviorClass::A;
  const std::string cls_str = args.get("class", "A");
  if (cls_str == "B") cls = sim::BehaviorClass::B;
  if (cls_str == "C") cls = sim::BehaviorClass::C;

  const harness::Environment env = build_env(args, 1500);
  sim::SampleSpec spec;
  spec.family = family;
  spec.behavior = cls;
  spec.profile = sim::family_profile(family, cls);
  spec.profile.behavior = cls;
  spec.seed = args.get_size("seed", 7);

  const auto r = harness::run_sample(env, spec, run_plan(args));
  maybe_write_metrics(args, harness::metrics_report(
                                std::vector<harness::RansomwareRunResult>{r}));
  maybe_write_trace(args, std::vector<harness::RansomwareRunResult>{r});
  if (args.flag("json")) {
    std::printf("%s", harness::to_json(r).to_pretty_string().c_str());
    return r.detected ? 0 : 1;
  }
  std::printf("family: %s (Class %s)\n", r.family.c_str(),
              std::string(sim::behavior_class_name(r.behavior)).c_str());
  std::printf("detected: %s | files lost: %zu of %zu | score: %d | union: %s\n",
              r.detected ? "yes" : "NO", r.files_lost, env.corpus.file_count(),
              r.final_score, r.union_triggered ? "yes" : "no");
  std::printf("indicator events: entropy=%llu type=%llu sim=%llu del=%llu funnel=%llu\n",
              static_cast<unsigned long long>(r.report.entropy_events),
              static_cast<unsigned long long>(r.report.type_change_events),
              static_cast<unsigned long long>(r.report.similarity_drop_events),
              static_cast<unsigned long long>(r.report.deletion_events),
              static_cast<unsigned long long>(r.report.funneling_events));
  return r.detected ? 0 : 1;
}

int cmd_benign(const Args& args) {
  const std::string app = args.get("app", "Microsoft Word");
  const harness::Environment env = build_env(args, 1500);
  const auto r = harness::run_workload(env, sim::benign_workload(app),
                                      args.get_size("seed", 9), run_plan(args));
  maybe_write_metrics(args, harness::metrics_report(
                                std::vector<harness::BenignRunResult>{r}));
  maybe_write_trace(args, std::vector<harness::BenignRunResult>{r});
  if (args.flag("json")) {
    std::printf("%s", harness::to_json(r).to_pretty_string().c_str());
  } else {
    std::printf("application: %s\nscore: %d\ndetected: %s%s\nunion: %s\n",
                r.app.c_str(), r.final_score, r.detected ? "yes" : "no",
                r.detected && r.expected_false_positive ? " (expected)" : "",
                r.union_triggered ? "yes" : "no");
  }
  return r.detected && !r.expected_false_positive ? 1 : 0;
}

int cmd_campaign(const Args& args) {
  const harness::Environment env =
      build_env(args, args.flag("full") ? 5099 : 1500);
  auto specs = sim::table1_samples(args.get_size("seed", 1));
  const std::size_t max_samples =
      args.get_size("samples", args.flag("full") ? specs.size() : 100);
  if (max_samples < specs.size()) {
    std::vector<sim::SampleSpec> picked;
    const double stride =
        static_cast<double>(specs.size()) / static_cast<double>(max_samples);
    for (std::size_t i = 0; i < max_samples; ++i) {
      picked.push_back(specs[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
    }
    specs = std::move(picked);
  }
  harness::RunnerOptions options;
  options.jobs = args.get_size("jobs", 0);
  options.progress = [](std::size_t done, std::size_t total) {
    if (done % 50 == 0 || done == total) {
      std::fprintf(stderr, "  %zu/%zu\n", done, total);
    }
  };
  std::fprintf(stderr, "running %zu samples on %zu workers...\n", specs.size(),
               harness::effective_jobs(options.jobs));
  const auto results = harness::run_campaign(env, specs, run_plan(args), options);
  maybe_write_metrics(args, harness::metrics_report(results));
  maybe_write_trace(args, results);
  if (args.flag("json")) {
    std::printf("%s", harness::campaign_report(env, results, args.flag("per-sample"))
                          .to_pretty_string()
                          .c_str());
    return 0;
  }
  harness::TextTable table({"Family", "A", "B", "C", "Total", "Median FL"});
  for (const auto& row : harness::aggregate_table1(results)) {
    table.add_row({row.family, std::to_string(row.class_a),
                   std::to_string(row.class_b), std::to_string(row.class_c),
                   std::to_string(row.total),
                   harness::fmt_double(row.median_files_lost, 1)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_trace_report(const Args& args) {
  const std::string path = args.get("in", "");
  if (path.empty()) {
    std::fprintf(stderr, "error: trace-report needs --in FILE (a --trace-out payload)\n");
    return 2;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  std::string text;
  char buffer[1 << 16];
  for (std::size_t n; (n = std::fread(buffer, 1, sizeof(buffer), f)) > 0;) {
    text.append(buffer, n);
  }
  std::fclose(f);

  const Result<std::vector<obs::TraceEvent>> parsed = obs::parse_trace_events(text);
  if (!parsed.is_ok()) {
    throw std::runtime_error(path + ": " + parsed.status().to_string());
  }
  if (const Status valid = obs::validate_trace_events(parsed.value()); !valid.is_ok()) {
    throw std::runtime_error(path + ": invalid trace: " + valid.to_string());
  }
  const obs::TraceReport report =
      obs::analyze_trace(parsed.value(), args.get_size("top", 10));
  std::printf("%s", obs::format_trace_report(report).c_str());
  return 0;
}

int cmd_corpus(const Args& args) {
  const harness::Environment env = build_env(args, 5099);
  std::map<std::string, std::pair<std::size_t, std::uint64_t>> by_ext;
  for (const corpus::ManifestEntry& entry : env.corpus.manifest) {
    auto& [count, bytes] = by_ext[std::string(corpus::kind_extension(entry.kind))];
    ++count;
    bytes += entry.size;
  }
  harness::TextTable table({"Type", "Files", "Share", "Total MiB", "Mean entropy"});
  for (const auto& [ext, stats] : by_ext) {
    // Sample one file's entropy per type (representative; exact per-file
    // stats are in the corpus tests).
    double entropy_sample = 0.0;
    for (const corpus::ManifestEntry& entry : env.corpus.manifest) {
      if (std::string(corpus::kind_extension(entry.kind)) == ext) {
        entropy_sample = entropy::shannon(ByteView(*entry.original));
        break;
      }
    }
    table.add_row({"." + ext, std::to_string(stats.first),
                   harness::fmt_percent(static_cast<double>(stats.first) /
                                        static_cast<double>(env.corpus.file_count())),
                   harness::fmt_double(static_cast<double>(stats.second) / (1024.0 * 1024.0), 1),
                   harness::fmt_double(entropy_sample, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n%zu files, %zu directories, %.1f MiB total\n",
              env.corpus.file_count(),
              env.base_fs.list_dirs_recursive(env.corpus.root).size() + 1,
              static_cast<double>(env.corpus.total_bytes()) / (1024.0 * 1024.0));
  return 0;
}

int cmd_families() {
  harness::TextTable table({"Family", "Traversal (Class A preset)", "Cipher"});
  for (const std::string& name : sim::family_names()) {
    const sim::RansomwareProfile p = sim::family_profile(name, sim::BehaviorClass::A);
    const char* traversal = "?";
    switch (p.traversal) {
      case sim::Traversal::depth_first_deepest: traversal = "depth-first (deepest)"; break;
      case sim::Traversal::size_ascending: traversal = "size ascending"; break;
      case sim::Traversal::root_down: traversal = "root down"; break;
      case sim::Traversal::alphabetical: traversal = "alphabetical"; break;
      case sim::Traversal::random_order: traversal = "random"; break;
      case sim::Traversal::extension_priority: traversal = "extension priority"; break;
    }
    const char* cipher = p.cipher == sim::CipherKind::chacha20 ? "ChaCha20"
                         : p.cipher == sim::CipherKind::aes_ctr ? "AES-128-CTR"
                                                                : "XOR (weak)";
    table.add_row({name, traversal, cipher});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

/// Writes `text` to `path` atomically enough for scrapers (truncate +
/// full rewrite; Prometheus textfile collectors re-read whole files).
bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

int cmd_daemon(const Args& args) {
  const std::string socket = args.get("socket", "/tmp/cryptodropd.sock");
  const harness::Environment env = build_env(args, 1500);
  daemon::DaemonOptions options;
  options.workers = std::max<std::size_t>(args.get_size("workers", 4), 1);
  options.queue_capacity = args.get_size("queue-capacity", 4096);
  options.journal_capacity =
      std::max<std::size_t>(args.get_size("journal-capacity", 1024), 1);
  options.default_config = scoring_config(args);
  daemon::Daemon service(env.base_fs, options);
  daemon::SocketServer server(service, socket);
  if (const Status started = server.start(); !started.is_ok()) {
    std::fprintf(stderr, "error: %s\n", started.to_string().c_str());
    return 2;
  }
  // --prom-out: periodic Prometheus text-exposition dumps of the
  // daemon's metrics, for node-exporter-style textfile collection. The
  // dumper sleep-counts in short slices (no deadline clock needed) and
  // always writes one final snapshot on shutdown.
  const std::string prom_out = args.get("prom-out", "");
  const std::size_t prom_interval_ms =
      std::max<std::size_t>(args.get_size("prom-interval-ms", 1000), 50);
  std::atomic<bool> prom_stop{false};
  std::thread prom_thread;
  if (!prom_out.empty()) {
    prom_thread = std::thread([&service, &prom_stop, prom_out,
                               prom_interval_ms] {
      while (!prom_stop.load(std::memory_order_acquire)) {
        for (std::size_t slept = 0;
             slept < prom_interval_ms &&
             !prom_stop.load(std::memory_order_acquire);
             slept += 50) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        if (!write_text_file(prom_out,
                             obs::to_prometheus(service.metrics()))) {
          std::fprintf(stderr, "warning: cannot write %s\n", prom_out.c_str());
          return;
        }
      }
    });
    std::fprintf(stderr, "prometheus dumps -> %s every %zu ms\n",
                 prom_out.c_str(), prom_interval_ms);
  }
  std::fprintf(stderr,
               "cryptodropd listening on %s (%zu workers, queue capacity %zu)\n"
               "stop with: {\"type\":\"shutdown\"} on the socket\n",
               socket.c_str(), options.workers, options.queue_capacity);
  server.wait();
  if (prom_thread.joinable()) {
    prom_stop.store(true, std::memory_order_release);
    prom_thread.join();
    write_text_file(prom_out, obs::to_prometheus(service.metrics()));
  }
  std::fprintf(stderr, "cryptodropd stopped\n");
  return 0;
}

/// Renders one `stats` watch frame as the `top` screen: health line,
/// queue gauges, per-tenant table, then the most recent events.
void render_top(const Json& stats,
                const std::deque<std::string>& events, bool plain,
                std::size_t frame_number) {
  if (!plain) std::printf("\x1b[2J\x1b[H");
  std::printf("cryptodrop top — frame %zu | health: %s | queued ops: %.0f\n\n",
              frame_number, stats.string_or("health", "?").c_str(),
              stats.number_or("queue_depth", 0));
  harness::TextTable table({"Tenant", "Worker", "Ingested", "Executed", "Shed"});
  if (const Json* tenants = stats.find("tenants"); tenants != nullptr) {
    for (const Json& row : tenants->items()) {
      table.add_row({row.string_or("id", "?"),
                     std::to_string(static_cast<long long>(
                         row.number_or("worker", 0))),
                     std::to_string(static_cast<long long>(
                         row.number_or("ingested", 0))),
                     std::to_string(static_cast<long long>(
                         row.number_or("executed", 0))),
                     std::to_string(static_cast<long long>(
                         row.number_or("shed", 0)))});
    }
  }
  std::printf("%s", table.to_string().c_str());
  if (!events.empty()) {
    std::printf("\nrecent events:\n");
    for (const std::string& event : events) {
      std::printf("  %s\n", event.c_str());
    }
  }
  std::fflush(stdout);
}

int cmd_top(const Args& args) {
  const std::string socket_path = args.get("socket", "/tmp/cryptodropd.sock");
  const std::size_t max_frames = args.get_size("frames", 0);
  const bool plain = args.flag("plain");

  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long: %s\n",
                 socket_path.c_str());
    return 2;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return 2;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr, "error: connect %s: %s\n", socket_path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return 2;
  }
  Json request = Json::object().set("type", "watch");
  const std::string tenant = args.get("tenant", "");
  if (!tenant.empty()) request.set("tenant", tenant);
  const std::string line = request.to_string() + "\n";
  if (::write(fd, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    std::fprintf(stderr, "error: write: %s\n", std::strerror(errno));
    ::close(fd);
    return 2;
  }

  std::string buffer;
  std::deque<std::string> recent;
  bool acked = false;
  std::size_t stats_seen = 0;
  int exit_code = 0;
  for (bool running = true; running;) {
    const std::size_t nl = buffer.find('\n');
    if (nl == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // Daemon shut down (or dropped us): clean exit.
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    const std::string frame_line = buffer.substr(0, nl);
    buffer.erase(0, nl + 1);
    const Result<Json> frame = Json::parse(frame_line);
    if (!frame) continue;
    const Json& parsed = frame.value();
    if (!acked) {
      acked = true;
      if (!parsed.bool_or("ok", false)) {
        std::fprintf(stderr, "error: watch rejected: %s\n",
                     frame_line.c_str());
        exit_code = 1;
        break;
      }
      continue;
    }
    const std::string kind = parsed.string_or("frame", "");
    if (kind == "event") {
      if (const Json* event = parsed.find("event"); event != nullptr) {
        recent.push_back("#" + std::to_string(static_cast<long long>(
                                   event->number_or("cursor", 0))) + " " +
                         event->string_or("kind", "?") + " tenant=" +
                         event->string_or("tenant", "-") + " " +
                         event->string_or("detail", ""));
        while (recent.size() > 8) recent.pop_front();
      }
    } else if (kind == "stats") {
      ++stats_seen;
      render_top(parsed, recent, plain, stats_seen);
      if (max_frames > 0 && stats_seen >= max_frames) running = false;
    }
  }
  ::close(fd);
  if (stats_seen == 0 && exit_code == 0) {
    std::fprintf(stderr, "stream closed before the first stats frame\n");
    exit_code = 1;
  }
  return exit_code;
}

int cmd_daemon_replay(const Args& args) {
  const std::string socket = args.get("socket", "/tmp/cryptodropd.sock");
  const harness::Environment env = build_env(args, 1500);
  auto specs = sim::table1_samples(args.get_size("sample-seed", 1));
  const std::size_t max_samples = args.get_size("samples", 4);
  if (max_samples < specs.size()) specs.resize(max_samples);
  std::vector<sim::BenignWorkload> benign = sim::all_benign_workloads();
  const std::size_t max_apps = args.get_size("apps", 2);
  if (max_apps < benign.size()) benign.resize(max_apps);

  harness::DaemonParityOptions options;
  options.concurrent_tenants = std::max<std::size_t>(args.get_size("tenants", 8), 1);
  const harness::TransportFactory factory = [socket] {
    auto client = std::make_shared<daemon::DaemonClient>(socket);
    return harness::Transport([client](const std::string& line) {
      const Result<std::string> response = client->request(line);
      if (response.is_ok()) return response.value();
      return "{\"ok\":false,\"error\":\"transport: " +
             response.status().to_string() + "\"}";
    });
  };
  std::fprintf(stderr, "replaying %zu trials over %s with %zu tenants...\n",
               specs.size() + benign.size(), socket.c_str(),
               options.concurrent_tenants);
  const harness::DaemonParityReport report = harness::run_daemon_parity(
      env, specs, benign, args.get_size("seed", 9), scoring_config(args),
      factory, options);
  harness::TextTable table({"Trial", "Tenant", "Ops", "Detected", "Parity"});
  for (const harness::DaemonParityTrial& trial : report.trials) {
    table.add_row({trial.label, trial.tenant, std::to_string(trial.ops),
                   trial.golden_detected ? "yes" : "no",
                   trial.match ? "match" : "MISMATCH"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("%zu/%zu scoreboards bit-identical\n",
              report.trials.size() - report.mismatches().size(),
              report.trials.size());
  return report.all_match() ? 0 : 1;
}

int cmd_apps() {
  for (const sim::BenignWorkload& workload : sim::all_benign_workloads()) {
    std::printf("%s%s\n", workload.name.c_str(),
                workload.expected_false_positive ? "   (expected false positive)" : "");
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: cryptodrop <command> [options]\n"
               "  sample   --family NAME [--class A|B|C] [--seed N] [--corpus N] [--json]\n"
               "  benign   --app NAME [--corpus N] [--seed N] [--json]\n"
               "  campaign [--corpus N] [--samples N] [--jobs N] [--full] [--json] [--per-sample]\n"
               "  trace-report --in FILE [--top K]\n"
               "  daemon   [--socket PATH] [--workers N] [--queue-capacity N]\n"
               "           [--journal-capacity N] [--prom-out FILE] [--prom-interval-ms N]\n"
               "           [--corpus N] [--seed N] (+ scoring flags; docs/DAEMON.md)\n"
               "  daemon-replay [--socket PATH] [--samples N] [--apps N] [--tenants N]\n"
               "           (parity check against a daemon started with the SAME\n"
               "            --corpus/--seed/scoring flags; exits 1 on any mismatch)\n"
               "  top      [--socket PATH] [--tenant ID] [--frames N] [--plain]\n"
               "           (live per-tenant table from the daemon's watch stream)\n"
               "  corpus   [--corpus N] [--seed N]\n"
               "  families\n"
               "  apps\n"
               "scoring flags (sample/benign/campaign): --threshold N, --union-threshold N\n"
               "  --entropy-backend shannon|chi_square|serial_correlation|daa (default shannon)\n"
               "  --entropy-ensemble NAME[:W],NAME[:W],... (weighted multi-backend voting)\n"
               "  --daa-window N (DAA head/tail window bytes, default 2048)\n"
               "fault injection (sample/benign/campaign): --fault-rate R (0..1) stacks a\n"
               "  seeded FaultInjectionFilter below the engine; --fault-seed N (default 2016)\n"
               "observability (sample/benign/campaign): --metrics-out FILE writes merged\n"
               "  engine metrics + per-run forensic timelines as JSON; --trace-out FILE\n"
               "  records per-operation spans and writes Chrome trace-event JSON\n"
               "  (Perfetto-loadable); --trace-sample N keeps 1-in-N operations\n"
               "trace-report folds a --trace-out file into critical-path tables\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.command == "sample") return cmd_sample(args);
    if (args.command == "benign") return cmd_benign(args);
    if (args.command == "campaign") return cmd_campaign(args);
    if (args.command == "trace-report") return cmd_trace_report(args);
    if (args.command == "daemon") return cmd_daemon(args);
    if (args.command == "daemon-replay") return cmd_daemon_replay(args);
    if (args.command == "top") return cmd_top(args);
    if (args.command == "corpus") return cmd_corpus(args);
    if (args.command == "families") return cmd_families();
    if (args.command == "apps") return cmd_apps();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage();
  return 2;
}
