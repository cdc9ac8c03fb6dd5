#include "daemon_load.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common/json.hpp"
#include "daemon/daemon.hpp"
#include "daemon/server.hpp"
#include "daemon/wire.hpp"
#include "open_loop.hpp"
#include "simhash/digest_cache.hpp"

namespace perfbench {
namespace {

/// How long the generator waits before each progress poll. Completions
/// are seen up to this much (plus the sleep's overshoot) late, well
/// below the milliseconds a batch takes.
constexpr std::chrono::microseconds kPollPause{50};

/// One tenant of a phase: its trial and pre-built submit lines.
struct Lane {
  const Trial* trial = nullptr;
  std::string tenant;
  std::vector<std::string> submits;     ///< One request line per batch.
  std::vector<std::size_t> batch_end;   ///< Ops through the batch (cumulative).
};

/// Sends one request line; throws on transport failure.
std::string call(daemon::DaemonClient& client, const std::string& line) {
  Result<std::string> response = client.request(line);
  if (!response) {
    throw std::runtime_error("control API: " + response.status().message());
  }
  return std::move(response.value());
}

/// The ops a submit response reports as not accepted (all of them when
/// the response is an error).
std::size_t not_accepted(const std::string& response, std::size_t sent) {
  const std::optional<daemon::JsonValue> parsed = daemon::parse_json(response);
  if (!parsed || !parsed->bool_or("ok", false)) return sent;
  const auto accepted = static_cast<std::size_t>(parsed->number_or("accepted", 0));
  return sent - std::min(sent, accepted);
}

void expect_ok(const std::string& response, const std::string& request) {
  const std::optional<daemon::JsonValue> parsed = daemon::parse_json(response);
  if (!parsed || !parsed->bool_or("ok", false)) {
    throw std::runtime_error("control API refused `" + request + "`: " + response);
  }
}

std::vector<Lane> make_lanes(const Inputs& inputs, const std::string& prefix,
                             std::size_t ops_per_submit) {
  std::vector<Lane> lanes(inputs.trials.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    Lane& lane = lanes[i];
    lane.trial = &inputs.trials[i];
    char id[32];
    std::snprintf(id, sizeof(id), "%s%05zu", prefix.c_str(), i);
    lane.tenant = id;
    const std::vector<vfs::TraceEntry>& entries = lane.trial->entries;
    for (std::size_t start = 0; start < entries.size(); start += ops_per_submit) {
      const std::size_t end = std::min(start + ops_per_submit, entries.size());
      Json ops = Json::array();
      for (std::size_t k = start; k < end; ++k) {
        ops.push(vfs::serialize_trace_entry(entries[k]));
      }
      lane.submits.push_back(Json::object()
                                 .set("type", "submit")
                                 .set("tenant", lane.tenant)
                                 .set("ops", std::move(ops))
                                 .to_string());
      lane.batch_end.push_back(end);
    }
  }
  return lanes;
}

/// One phase: a fresh tenant per trial, its batches and their plan.
class Phase {
 public:
  Phase(const Inputs& inputs, const DaemonLoadOptions& options,
        daemon::Daemon& daemon, daemon::DaemonClient& client,
        DaemonLoadResult& result, const std::string& prefix)
      : options_(options), daemon_(daemon), client_(client), result_(result),
        lanes_(make_lanes(inputs, prefix, kOpsPerSubmit)) {
    // Benign tenants are interleaved in proportion to their length, so
    // each runs from the start of the schedule to its end and the mix
    // stays the same throughout (batch r of a lane with n batches sits at
    // (r + 0.5) / n). A ransomware tenant arrives as one burst, the way an
    // attack issues ops as fast as it can: all its batches are due at
    // once, at a point spread evenly over the schedule. Due times advance
    // by one interval per benign batch or burst, the interval chosen so
    // the mix is offered at `offered_ops_per_s` on average.
    std::vector<double> burst_start(lanes_.size(), 0.0);
    std::size_t bursts = 0;
    for (const Lane& lane : lanes_) bursts += lane.trial->ransomware ? 1 : 0;
    for (std::size_t l = 0, k = 0; l < lanes_.size(); ++l) {
      if (lanes_[l].trial->ransomware) {
        burst_start[l] = (static_cast<double>(k++) + 0.5) / static_cast<double>(bursts);
      }
      for (std::size_t round = 0; round < lanes_[l].submits.size(); ++round) {
        order_.push_back({l, round});
      }
    }
    auto position = [&](const std::pair<std::size_t, std::size_t>& batch) {
      const auto [l, round] = batch;
      if (lanes_[l].trial->ransomware) {
        return burst_start[l] + 1e-9 * static_cast<double>(round);
      }
      return (static_cast<double>(round) + 0.5) /
             static_cast<double>(lanes_[l].submits.size());
    };
    std::stable_sort(order_.begin(), order_.end(), [&](const auto& a, const auto& b) {
      return position(a) < position(b);
    });
    std::size_t slots = 0;
    for (const auto& [l, round] : order_) {
      slots += lanes_[l].trial->ransomware && round > 0 ? 0 : 1;
    }
    const double interval_s = static_cast<double>(total_ops()) /
                              static_cast<double>(slots) / kOfferedOpsPerSec;
    double due_s = -interval_s;
    for (const auto& [l, round] : order_) {
      if (!lanes_[l].trial->ransomware || round == 0) due_s += interval_s;
      plan_.push_back(
          {l, lanes_[l].trial->spawns.size() + lanes_[l].batch_end[round], due_s});
    }
  }

  /// Clears the shared digest cache, so the phase sees the cache
  /// behaviour of the recording; attaches every tenant and replays its
  /// spawns, then waits until the spawns have executed.
  void attach() {
    simhash::DigestCache::global().clear();
    for (const Lane& lane : lanes_) {
      const std::string attach =
          Json::object().set("type", "attach").set("tenant", lane.tenant).to_string();
      expect_ok(call(client_, attach), attach);
      for (const harness::ProcessRosterEntry& spawn : lane.trial->spawns) {
        const std::string request = Json::object()
                                        .set("type", "spawn")
                                        .set("tenant", lane.tenant)
                                        .set("pid", spawn.pid)
                                        .set("name", spawn.name)
                                        .set("parent", spawn.parent)
                                        .to_string();
        expect_ok(call(client_, request), request);
      }
    }
    for (;;) {
      const std::vector<std::uint64_t> progress = poll();
      bool ready = true;
      for (std::size_t l = 0; l < lanes_.size(); ++l) {
        ready = ready && progress[l] >= lanes_[l].trial->spawns.size();
      }
      if (ready) return;
    }
  }

  void run_open_loop_phase() {
    CompletionLedger verdicts(lanes_.size());
    const double start = now_s();
    const OpenLoopTiming timing = run_open_loop(
        plan_, lanes_.size(), now_s,
        [&](std::size_t k, double due) {
          const auto [l, round] = order_[k];
          const Lane& lane = lanes_[l];
          send(k, /*timed=*/true);
          const Trial& trial = *lane.trial;
          const std::size_t first = round == 0 ? 0 : lane.batch_end[round - 1];
          if (trial.suspend_op != kNone && trial.first_modify != kNone &&
              trial.first_modify >= first && trial.first_modify < lane.batch_end[round]) {
            verdicts.expect(l, trial.spawns.size() + trial.suspend_op + 1, due, l);
          }
        },
        [&] { return poll(); },
        [&](const std::vector<std::uint64_t>& progress, double seen) {
          verdicts.observe(progress, [&](std::size_t, double due) {
            result_.verdict_ms.add((seen - due) * 1e3);
          });
        });
    result_.open_loop_s += now_s() - start;
    for (const double s : timing.latency_s) result_.exec_ms.add(s * 1e3);
    for (const double s : timing.lag_s) result_.gen_lag_ms.add(s * 1e3);
  }

  void run_saturation_phase() {
    std::uint64_t outstanding_base = 0;
    for (const Lane& lane : lanes_) outstanding_base += lane.trial->spawns.size();
    std::uint64_t sent = outstanding_base;
    const double start = now_s();
    for (std::size_t k = 0; k < order_.size(); ++k) {
      while (sent - done(poll()) > kWindowOps) {
      }
      send(k, /*timed=*/false);
      const auto [l, round] = order_[k];
      sent += batch_ops(l, round);
    }
    while (done(poll()) < sent) {
    }
    const double elapsed = now_s() - start;
    result_.saturated_ops_per_s = static_cast<double>(total_ops()) / elapsed;
  }

  /// Waits for the queues to empty, compares every tenant's `verdicts`
  /// answer with its golden line, and detaches the tenants.
  void check_and_detach() {
    const std::string drain = Json::object().set("type", "drain").to_string();
    expect_ok(call(client_, drain), drain);
    for (const Lane& lane : lanes_) {
      const std::string answer = call(
          client_,
          Json::object().set("type", "verdicts").set("tenant", lane.tenant).to_string());
      ++result_.checks;
      if (answer != lane.trial->golden_line) ++result_.mismatches;
      const std::string detach =
          Json::object().set("type", "detach").set("tenant", lane.tenant).to_string();
      expect_ok(call(client_, detach), detach);
    }
  }

 private:
  std::size_t batch_ops(std::size_t l, std::size_t round) const {
    const Lane& lane = lanes_[l];
    return lane.batch_end[round] - (round == 0 ? 0 : lane.batch_end[round - 1]);
  }

  std::size_t total_ops() const {
    std::size_t ops = 0;
    for (const Lane& lane : lanes_) ops += lane.trial->entries.size();
    return ops;
  }

  void send(std::size_t k, bool timed) {
    const auto [l, round] = order_[k];
    const std::string& line = lanes_[l].submits[round];
    const std::size_t ops = batch_ops(l, round);
    std::uint32_t span = SpanLog::kNoParent;
    if (timed && options_.spans != nullptr) span = options_.spans->begin("daemon.submit");
    const double start = now_s();
    const std::string response = call(client_, line);
    const double rtt = now_s() - start;
    if (span != SpanLog::kNoParent) options_.spans->end(span);
    if (timed) result_.submit_rtt_us.add(rtt * 1e6);
    result_.ops_sent += ops;
    result_.shed += not_accepted(response, ops);
  }

  /// Executed + shed ops (spawns included) of every lane, lane order;
  /// samples the total queue depth on the way. Pauses kPollPause first:
  /// a generator that polled without pause would keep a core and the
  /// queue locks from the workers, and its own load would swing their
  /// latency from run to run.
  std::vector<std::uint64_t> poll() {
    std::this_thread::sleep_for(kPollPause);
    if (now_s() > deadline_) {
      throw std::runtime_error("daemon made no progress before the deadline");
    }
    const std::vector<daemon::TenantInfo> infos = daemon_.tenants();
    if (infos.size() != lanes_.size()) {
      throw std::runtime_error("daemon lists an unexpected tenant set");
    }
    std::vector<std::uint64_t> progress(infos.size());
    for (std::size_t l = 0; l < infos.size(); ++l) {
      progress[l] = infos[l].executed + infos[l].shed;
    }
    std::size_t depth = 0;
    for (const std::size_t d : daemon_.queue_depths()) depth += d;
    result_.max_queue_depth = std::max(result_.max_queue_depth, depth);
    return progress;
  }

  static std::uint64_t done(const std::vector<std::uint64_t>& progress) {
    std::uint64_t total = 0;
    for (const std::uint64_t p : progress) total += p;
    return total;
  }

  const DaemonLoadOptions& options_;
  daemon::Daemon& daemon_;
  daemon::DaemonClient& client_;
  DaemonLoadResult& result_;
  std::vector<Lane> lanes_;
  std::vector<std::pair<std::size_t, std::size_t>> order_;  ///< (lane, batch)
  std::vector<PlannedBatch> plan_;
  /// A phase that runs this long has stalled; fail instead of hanging.
  double deadline_ = now_s() + 120.0;
};

}  // namespace

DaemonLoadResult run_daemon_load(const Inputs& inputs,
                                 const DaemonLoadOptions& options) {
  daemon::DaemonOptions daemon_options;
  daemon_options.workers = kWorkers;
  daemon_options.default_config = inputs.config;
  daemon::Daemon daemon(inputs.env.base_fs, daemon_options);
  daemon::SocketServer server(daemon, options.socket_path);
  if (const Status started = server.start(); !started) {
    throw std::runtime_error("socket server: " + started.message());
  }

  DaemonLoadResult result;
  {
    daemon::DaemonClient client(options.socket_path);
    {
      Phase open_loop(inputs, options, daemon, client, result, "o");
      open_loop.attach();
      const simhash::DigestCacheStats before = simhash::DigestCache::global().stats();
      open_loop.run_open_loop_phase();
      open_loop.check_and_detach();
      const simhash::DigestCacheStats after = simhash::DigestCache::global().stats();
      result.cache_hits = after.hits - before.hits;
      result.cache_lookups = result.cache_hits + after.misses - before.misses;
    }
    Phase saturation(inputs, options, daemon, client, result, "s");
    saturation.attach();
    saturation.run_saturation_phase();
    saturation.check_and_detach();
  }
  result.daemon_metrics = daemon.metrics();
  daemon.shutdown(/*drain_first=*/true);
  server.stop();
  return result;
}

}  // namespace perfbench
