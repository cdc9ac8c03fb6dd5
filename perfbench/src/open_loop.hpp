// Open-loop arrival driver: batches are sent on a fixed schedule,
// whether or not earlier ones have finished, and each batch is timed
// from when it was *due*, not from when it was actually sent. A stall
// anywhere (generator, socket, queue, worker) therefore shows up in the
// latency of every arrival scheduled behind it, instead of silently
// thinning the offered load (coordinated omission).
//
// Completion is observed through monotone per-lane progress counters
// (for the daemon: executed + shed ops per tenant): a batch is complete
// once its lane's counter reaches the batch's target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace perfbench {

/// One planned arrival: a batch for `lane`, due `due_s` seconds after
/// the start, complete once the lane's progress counter reaches `target`.
struct PlannedBatch {
  std::size_t lane = 0;
  std::uint64_t target = 0;
  double due_s = 0.0;
};

/// Per-lane FIFO of outstanding expectations.
class CompletionLedger {
 public:
  explicit CompletionLedger(std::size_t lanes) : lanes_(lanes) {}

  /// Registers expectation `id`, due at `due`, complete at `target`.
  void expect(std::size_t lane, std::uint64_t target, double due, std::size_t id) {
    lanes_.at(lane).push_back({target, due, id});
    ++pending_;
  }

  /// Completes every expectation whose lane progress has reached its
  /// target; calls on_complete(id, due) for each.
  template <typename OnComplete>
  void observe(const std::vector<std::uint64_t>& progress, OnComplete&& on_complete) {
    for (std::size_t lane = 0; lane < lanes_.size() && lane < progress.size(); ++lane) {
      std::deque<Expectation>& queue = lanes_[lane];
      while (!queue.empty() && progress[lane] >= queue.front().target) {
        on_complete(queue.front().id, queue.front().due);
        queue.pop_front();
        --pending_;
      }
    }
  }

  [[nodiscard]] std::size_t pending() const { return pending_; }

 private:
  struct Expectation {
    std::uint64_t target;
    double due;
    std::size_t id;
  };
  std::vector<std::deque<Expectation>> lanes_;
  std::size_t pending_ = 0;
};

/// What one open-loop pass measured, indexed by batch.
struct OpenLoopTiming {
  std::vector<double> latency_s;  ///< Completion seen minus due time.
  std::vector<double> lag_s;      ///< Send start minus due time.
};

/// Runs `plan` (due times nondecreasing) open-loop: batch k is due at
/// start + plan[k].due_s.
///   now()            -> current time in seconds (monotonic);
///   send(k, due)     -> sends batch k (may block: a blocked send delays
///                       later sends, and their lateness is charged to
///                       their latency because timing starts at `due`);
///   poll()           -> progress counter of every lane;
///   observed(p, t)   -> extra hook run after every poll (callers time
///                       their own milestones off the same progress).
/// Returns once every batch is sent and complete.
template <typename Now, typename Send, typename Poll, typename Observed>
OpenLoopTiming run_open_loop(const std::vector<PlannedBatch>& plan, std::size_t lanes,
                             Now&& now, Send&& send, Poll&& poll, Observed&& observed) {
  OpenLoopTiming timing;
  timing.latency_s.assign(plan.size(), 0.0);
  timing.lag_s.assign(plan.size(), 0.0);
  CompletionLedger ledger(lanes);
  const double start = now();
  std::size_t next = 0;
  while (next < plan.size() || ledger.pending() > 0) {
    const double t = now();
    const double due = next < plan.size() ? start + plan[next].due_s : 0.0;
    if (next < plan.size() && t >= due) {
      timing.lag_s[next] = t - due;
      send(next, due);
      ledger.expect(plan[next].lane, plan[next].target, due, next);
      ++next;
      continue;
    }
    const std::vector<std::uint64_t> progress = poll();
    const double seen = now();
    ledger.observe(progress, [&](std::size_t id, double batch_due) {
      timing.latency_s[id] = seen - batch_due;
    });
    observed(progress, seen);
  }
  return timing;
}

}  // namespace perfbench
