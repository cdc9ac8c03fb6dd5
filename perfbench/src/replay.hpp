// In-process replay: every trial's golden op stream goes through
// vfs::ExactReplayer::apply, one op after another (closed loop, single
// thread), over a fresh clone of the base volume — with the monitor
// (a core::MonitorSession, i.e. an AnalysisEngine-filtered FileSystem)
// or without it (bare vfs dispatch, the "no monitor" baseline).
#pragma once

#include <cstddef>
#include <vector>

#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "simhash/digest_cache.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct ReplayOptions {
  bool monitored = true;       ///< Attach the engine (MonitorSession).
  bool engine_tracing = false; ///< Turn on the engine's own span tracing.
  bool count_files_lost = false;
  /// When set, every apply is recorded as a span (name below) under one
  /// span per trial; timings come from these spans.
  SpanLog* spans = nullptr;
  const char* op_span = "core.apply";
};

/// What one trial's replay showed.
struct TrialOutcome {
  bool suspended = false;
  std::size_t suspend_op = kNone;
  std::size_t files_lost = 0;
  bool scoreboard_match = true;
};

/// One pass over every trial.
struct PassResult {
  std::vector<double> op_us;   ///< Wall time of each apply, in replay order.
  std::size_t failed_ops = 0;  ///< Outcome differs from the recording.
  std::size_t checks = 0;      ///< Scoreboards compared with their goldens.
  std::size_t mismatches = 0;
  std::vector<TrialOutcome> trials;
  obs::MetricsSnapshot metrics;     ///< Engine metrics, merged over trials.
  simhash::DigestCacheStats cache;  ///< Shared digest-cache delta.
};

/// Replays every trial once. The shared digest cache is cleared first,
/// so each pass sees the cache behaviour the recording saw.
PassResult replay_pass(const Inputs& inputs, const ReplayOptions& options);

/// Each trial's time to verdict from per-op times `op_us` in replay
/// order: the sum over its ops from the first modifying one through the
/// one after which a trial process first read suspended (`outcomes`).
/// Trials never suspended, or suspended before they modified anything,
/// give no sample. The suspension check itself is never timed.
Distribution verdict_ms(const Inputs& inputs, const std::vector<TrialOutcome>& outcomes,
                        const std::vector<double>& op_us);

/// Isolated cost of the layer kernels on the trials' own buffers.
struct KernelResult {
  Distribution magic_us;        ///< magic::identify per written buffer.
  double entropy_ns_per_kib = 0.0;  ///< Configured Backend::score.
  Distribution simhash_us;      ///< SimilarityDigest::compute per close.
  double wire_parse_us_per_op = 0.0;  ///< vfs::parse_trace_entry per line.
};

/// Times each kernel on the trials' written, read and closed contents
/// and on their serialized trace lines, recording one span per call.
KernelResult kernel_pass(const Inputs& inputs, SpanLog& spans);

}  // namespace perfbench
