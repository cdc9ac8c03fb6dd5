// Parallel experiment runner — the thread-pool substrate under every
// sweep (Table I, Figures 3–6, ROC/ablation studies).
//
// The paper's methodology is embarrassingly parallel: each trial (one
// ransomware sample or benign app × one config) runs against a pristine
// clone of the victim volume, reverted between samples. Trials share
// nothing mutable — FileSystem::clone() hands each one its own tree and
// the file *content* is shared copy-on-write (immutable bytes, atomic
// refcounts) — so N trials saturate N cores without locks beyond the
// engine's own shards.
//
// Determinism contract: results are index-addressed (trial i writes
// results[i]), every trial seeds its own Rng from the spec, and nothing
// reads wall-clock — so a parallel sweep is bit-identical to the serial
// one, at any job count. runner_test.cpp asserts this.
#pragma once

#include <cstddef>
#include <functional>

#include "harness/experiment.hpp"

namespace cryptodrop::harness {

/// Knobs for the parallel trial runner: how trials are scheduled, never
/// what they compute (that is the RunPlan). Plain value type.
struct RunnerOptions {
  /// Worker threads; 0 means one per hardware thread.
  std::size_t jobs = 0;
  /// Invoked after each finished trial with (finished, total). Calls are
  /// serialized, but trials finish out of submission order.
  std::function<void(std::size_t, std::size_t)> progress;
};

/// Resolves a requested job count: 0 → std::thread::hardware_concurrency()
/// (min 1). Never returns 0.
std::size_t effective_jobs(std::size_t requested);

/// Runs body(i) for i in [0, count) on `options.jobs` workers. With one
/// job (or one item) the bodies run inline, in order, on the calling
/// thread — the exact serial path. The first exception thrown by any
/// body is rethrown on the caller after all workers join.
void parallel_for(std::size_t count, const RunnerOptions& options,
                  const std::function<void(std::size_t)>& body);

/// The Table-I campaign: one run_sample() trial per spec on the pool,
/// results in spec order, bit-identical at any job count. Throws
/// std::invalid_argument when `plan.config` or `plan.faults->plan` does
/// not validate, before any trial runs.
std::vector<RansomwareRunResult> run_campaign(const Environment& env,
                                              const std::vector<sim::SampleSpec>& specs,
                                              const RunPlan& plan,
                                              const RunnerOptions& options = {});

/// The benign suite: one run_workload() trial per workload (all with the
/// same `seed`) on the pool, results in workload order. Validates like
/// run_campaign().
std::vector<BenignRunResult> run_benign_suite(
    const Environment& env, const std::vector<sim::BenignWorkload>& workloads,
    std::uint64_t seed, const RunPlan& plan, const RunnerOptions& options = {});

}  // namespace cryptodrop::harness
