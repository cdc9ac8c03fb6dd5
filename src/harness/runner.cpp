#include "harness/runner.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/ranked_mutex.hpp"

namespace cryptodrop::harness {

std::size_t effective_jobs(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t count, const RunnerOptions& options,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t jobs = std::min(effective_jobs(options.jobs), count);
  if (count == 0) return;

  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      body(i);
      if (options.progress) options.progress(i + 1, count);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  // Runner locks rank below every engine lock: the progress callback
  // may query an engine (snapshot, metrics) while it is held.
  common::RankedMutex<common::lockrank::kRunnerProgress> progress_mu;
  std::exception_ptr first_error;
  common::RankedMutex<common::lockrank::kRunnerError> error_mu;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        // Keep draining: a failed trial must not wedge the pool, and
        // index-addressed results stay well-defined for the survivors.
      }
      const std::size_t finished = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options.progress) {
        std::lock_guard lock(progress_mu);
        options.progress(finished, count);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

namespace {

void validate_or_throw(const RunPlan& plan, const char* what) {
  Status valid = plan.config.validate();
  if (valid.is_ok() && plan.faults) valid = plan.faults->plan.validate();
  if (!valid.is_ok()) {
    throw std::invalid_argument(std::string(what) + ": " + valid.to_string());
  }
}

}  // namespace

std::vector<RansomwareRunResult> run_campaign(const Environment& env,
                                              const std::vector<sim::SampleSpec>& specs,
                                              const RunPlan& plan,
                                              const RunnerOptions& options) {
  validate_or_throw(plan, "campaign plan");
  std::vector<RansomwareRunResult> results(specs.size());
  parallel_for(specs.size(), options,
               [&](std::size_t i) { results[i] = run_sample(env, specs[i], plan); });
  return results;
}

std::vector<BenignRunResult> run_benign_suite(
    const Environment& env, const std::vector<sim::BenignWorkload>& workloads,
    std::uint64_t seed, const RunPlan& plan, const RunnerOptions& options) {
  validate_or_throw(plan, "benign-suite plan");
  std::vector<BenignRunResult> results(workloads.size());
  parallel_for(workloads.size(), options, [&](std::size_t i) {
    results[i] = run_workload(env, workloads[i], seed, plan);
  });
  return results;
}

}  // namespace cryptodrop::harness
