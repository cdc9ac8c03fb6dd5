// Daemon load: the trials' golden op streams, one tenant per trial, sent
// by one generator thread over one AF_UNIX DaemonClient connection to
// an in-process cryptodropd (Daemon + SocketServer) with two workers.
//
// A pass has two phases over the same tenant mix:
//   - open loop: submit batches leave on a fixed schedule at a constant
//     average offered rate (benign tenants interleaved throughout, each
//     ransomware tenant as one burst); each batch is timed from its
//     scheduled send time until Daemon::tenants() shows it executed;
//   - saturation: the same batches again (fresh tenants) as fast as the
//     daemon takes them, with at most kWindowOps ops outstanding so
//     admission control never sheds; executed ops per second is the
//     daemon's capacity.
// After each phase every tenant's `verdicts` answer is compared byte for
// byte with its golden line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

/// Workers of the in-process daemon; with the generator thread and the
/// socket server, at most 4 busy threads on a 4-core host.
constexpr std::size_t kWorkers = 2;
/// Ops per submit request.
constexpr std::size_t kOpsPerSubmit = 16;
/// Open-loop offered rate (ops/s): a quarter of the saturated throughput
/// of 2 workers on a busy 4-core x86-64 host (~10k ops/s). At half that
/// capacity, a busy spell of the host pushed the workers near saturation
/// and exec latency grew tenfold between runs.
constexpr double kOfferedOpsPerSec = 2500.0;
/// Saturation phase: ops sent but not yet executed, at most. Below the
/// daemon's admission limit, so nothing is shed, and deep enough that the
/// workers never wait for the generator.
constexpr std::size_t kWindowOps = 2048;

struct DaemonLoadOptions {
  /// Socket path (relative paths resolve against the working directory).
  std::string socket_path;
  /// When set, every submit round trip is recorded as a span.
  SpanLog* spans = nullptr;
};

struct DaemonLoadResult {
  Distribution exec_ms;        ///< Scheduled send -> executed, per batch.
  Distribution gen_lag_ms;     ///< Actual send start - scheduled send.
  Distribution submit_rtt_us;  ///< One control-API submit round trip.
  Distribution verdict_ms;     ///< First modifying op due -> suspending op executed.
  double saturated_ops_per_s = 0.0;
  double open_loop_s = 0.0;
  std::size_t ops_sent = 0;
  std::size_t shed = 0;       ///< Ops shed or answered with an error.
  std::size_t checks = 0;     ///< `verdicts` answers compared.
  std::size_t mismatches = 0;
  std::size_t max_queue_depth = 0;  ///< Sampled via queue_depths().
  std::uint64_t cache_hits = 0;    ///< Digest-cache hits, open-loop phase.
  std::uint64_t cache_lookups = 0;  ///< Digest-cache lookups, open-loop phase.
  obs::MetricsSnapshot daemon_metrics;  ///< Daemon registry at the end.
};

/// Runs one pass (open loop, then saturation) over every trial of
/// `inputs` on a fresh daemon. The trials' suspend_op must be set (by a
/// reference replay) for verdict timing.
DaemonLoadResult run_daemon_load(const Inputs& inputs,
                                 const DaemonLoadOptions& options);

}  // namespace perfbench
