#include "replay.hpp"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/session.hpp"
#include "corpus/builder.hpp"
#include "entropy/backend.hpp"
#include "magic/magic.hpp"
#include "simhash/similarity.hpp"

namespace perfbench {
namespace {

/// A replay target: a monitored session or a bare clone of the volume.
class Volume {
 public:
  Volume(const Inputs& inputs, const ReplayOptions& options) {
    if (options.monitored) {
      obs::TraceOptions trace;
      trace.enabled = options.engine_tracing;
      session_.emplace(inputs.env.base_fs, inputs.config, trace);
    } else {
      bare_.emplace(inputs.env.base_fs.clone());
    }
  }
  vfs::FileSystem& fs() { return session_ ? session_->fs() : *bare_; }
  core::AnalysisEngine* engine() { return session_ ? &session_->engine() : nullptr; }
  core::MonitorSession* session() { return session_ ? &*session_ : nullptr; }

 private:
  std::optional<core::MonitorSession> session_;
  std::optional<vfs::FileSystem> bare_;
};

/// Registers the trial's processes the way the daemon's spawn replay
/// does (parents outside the trial map to 0) and pre-maps their pids.
std::vector<vfs::ProcessId> spawn_trial(const Trial& trial, vfs::FileSystem& fs,
                                        vfs::ExactReplayer& replayer) {
  std::map<vfs::ProcessId, vfs::ProcessId> live;
  std::vector<vfs::ProcessId> pids;
  for (const harness::ProcessRosterEntry& spawn : trial.spawns) {
    const auto parent = live.find(spawn.parent);
    const vfs::ProcessId pid = fs.register_process(
        spawn.name, parent != live.end() ? parent->second : 0);
    live[spawn.pid] = pid;
    replayer.map_pid(spawn.pid, pid);
    pids.push_back(pid);
  }
  return pids;
}

bool any_suspended(const core::AnalysisEngine& engine,
                   const std::vector<vfs::ProcessId>& pids) {
  for (const vfs::ProcessId pid : pids) {
    if (engine.is_suspended(pid)) return true;
  }
  return false;
}

}  // namespace

PassResult replay_pass(const Inputs& inputs, const ReplayOptions& options) {
  PassResult result;
  result.trials.reserve(inputs.trials.size());
  result.op_us.reserve(inputs.total_ops());
  simhash::DigestCache& cache = simhash::DigestCache::global();
  cache.clear();
  const simhash::DigestCacheStats before = cache.stats();
  SpanLog* spans = options.spans;
  const std::uint32_t pass_span =
      spans != nullptr ? spans->begin("replay.pass") : SpanLog::kNoParent;

  for (const Trial& trial : inputs.trials) {
    const std::uint32_t trial_span =
        spans != nullptr ? spans->begin("replay.trial", pass_span) : SpanLog::kNoParent;
    Volume volume(inputs, options);
    vfs::ExactReplayer replayer(volume.fs());
    const std::vector<vfs::ProcessId> pids = spawn_trial(trial, volume.fs(), replayer);
    const core::AnalysisEngine* engine = volume.engine();

    TrialOutcome outcome;
    for (std::size_t i = 0; i < trial.entries.size(); ++i) {
      double elapsed = 0.0;
      vfs::ExactReplayer::Outcome applied{};
      if (spans != nullptr) {
        const std::uint32_t id = spans->begin(options.op_span, trial_span);
        applied = replayer.apply(trial.entries[i]);
        elapsed = spans->end(id);
      } else {
        const double start = now_s();
        applied = replayer.apply(trial.entries[i]);
        elapsed = now_s() - start;
      }
      result.op_us.push_back(elapsed * 1e6);
      // Every recorded entry succeeded when it was recorded.
      if (applied != vfs::ExactReplayer::Outcome::applied) ++result.failed_ops;
      // Outside the timed bracket: has a trial process been suspended?
      if (engine != nullptr && !outcome.suspended && any_suspended(*engine, pids)) {
        outcome.suspended = true;
        outcome.suspend_op = i;
      }
    }

    if (core::MonitorSession* session = volume.session()) {
      ++result.checks;
      outcome.scoreboard_match =
          verdicts_line(session->snapshot()) == trial.golden_line;
      if (!outcome.scoreboard_match) ++result.mismatches;
      result.metrics.merge(session->metrics());
    }
    if (options.count_files_lost) {
      outcome.files_lost = corpus::count_files_lost(volume.fs(), inputs.env.corpus);
    }
    result.trials.push_back(outcome);
    if (spans != nullptr) spans->end(trial_span);
  }
  if (spans != nullptr) spans->end(pass_span);

  const simhash::DigestCacheStats after = cache.stats();
  result.cache.hits = after.hits - before.hits;
  result.cache.misses = after.misses - before.misses;
  result.cache.evictions = after.evictions - before.evictions;
  result.cache.entries = after.entries;
  return result;
}

Distribution verdict_ms(const Inputs& inputs, const std::vector<TrialOutcome>& outcomes,
                        const std::vector<double>& op_us) {
  Distribution result;
  std::size_t offset = 0;  // the trial's first op in `op_us`
  for (std::size_t t = 0; t < inputs.trials.size(); ++t) {
    const Trial& trial = inputs.trials[t];
    const std::size_t suspend_op = outcomes[t].suspend_op;
    if (outcomes[t].suspended && trial.first_modify != kNone &&
        suspend_op >= trial.first_modify) {
      double us = 0.0;
      for (std::size_t i = trial.first_modify; i <= suspend_op; ++i) us += op_us[offset + i];
      result.add(us / 1e3);
    }
    offset += trial.entries.size();
  }
  return result;
}

KernelResult kernel_pass(const Inputs& inputs, SpanLog& spans) {
  KernelResult result;
  const std::unique_ptr<entropy::Backend> backend =
      entropy::make_backend(inputs.config.entropy.backend);
  double entropy_s = 0.0;
  double entropy_bytes = 0.0;
  auto score = [&](ByteView data) {
    if (data.empty()) return;
    const std::uint32_t id = spans.begin("entropy.score");
    volatile double sink = backend->score(data);
    (void)sink;
    entropy_s += spans.end(id);
    entropy_bytes += static_cast<double>(data.size());
  };

  double parse_s = 0.0;
  std::size_t parsed = 0;
  for (const Trial& trial : inputs.trials) {
    // Wire parse: the lines a daemon client would ship for this trial.
    std::vector<std::string> lines;
    lines.reserve(trial.entries.size());
    for (const vfs::TraceEntry& entry : trial.entries) {
      lines.push_back(vfs::serialize_trace_entry(entry));
    }
    const std::uint32_t parse_span = spans.begin("daemon.wire_parse");
    for (const std::string& line : lines) {
      if (!vfs::parse_trace_entry(line)) {
        throw std::runtime_error("trace line does not parse: " + trial.label);
      }
    }
    parse_s += spans.end(parse_span);
    parsed += lines.size();

    // Bare replay, so closed contents are what the engine would re-read.
    vfs::FileSystem fs = inputs.env.base_fs.clone();
    vfs::ExactReplayer replayer(fs);
    spawn_trial(trial, fs, replayer);
    std::map<vfs::HandleId, std::string> open_paths;
    std::set<vfs::HandleId> written;
    std::string read_path;
    std::shared_ptr<const Bytes> read_content;
    for (const vfs::TraceEntry& entry : trial.entries) {
      if (entry.op == vfs::OpType::read) {
        // Read buffers: the bytes the read returned on the base volume.
        if (entry.path != read_path) {
          read_path = entry.path;
          read_content = inputs.env.base_fs.read_unfiltered(entry.path);
        }
        if (read_content != nullptr && entry.offset < read_content->size()) {
          const std::size_t length = static_cast<std::size_t>(std::min<std::uint64_t>(
              entry.length, read_content->size() - entry.offset));
          score(ByteView(read_content->data() + entry.offset, length));
        }
      } else if (entry.op == vfs::OpType::write && !entry.data.empty()) {
        const std::uint32_t id = spans.begin("magic.identify");
        volatile auto type = magic::identify(ByteView(entry.data));
        (void)type;
        result.magic_us.add(spans.end(id) * 1e6);
        score(ByteView(entry.data));
        written.insert(entry.handle);
      }
      if (entry.op == vfs::OpType::open) open_paths[entry.handle] = entry.path;
      (void)replayer.apply(entry);
      if (entry.op == vfs::OpType::close && written.erase(entry.handle) != 0) {
        const std::shared_ptr<const Bytes> content =
            fs.read_unfiltered(open_paths[entry.handle]);
        if (content != nullptr) {
          const std::uint32_t id = spans.begin("simhash.compute");
          volatile bool digested =
              simhash::SimilarityDigest::compute(ByteView(*content)).has_value();
          (void)digested;
          result.simhash_us.add(spans.end(id) * 1e6);
        }
      }
    }
  }
  result.entropy_ns_per_kib =
      entropy_bytes > 0.0 ? entropy_s * 1e9 / (entropy_bytes / 1024.0) : 0.0;
  result.wire_parse_us_per_op =
      parsed > 0 ? parse_s * 1e6 / static_cast<double>(parsed) : 0.0;
  return result;
}

}  // namespace perfbench
