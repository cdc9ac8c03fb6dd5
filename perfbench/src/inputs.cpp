#include "inputs.hpp"

#include <algorithm>
#include <set>

#include "common/json.hpp"
#include "daemon/wire.hpp"
#include "harness/runner.hpp"
#include "sim/benign/benign.hpp"
#include "sim/ransomware/families.hpp"

namespace perfbench {
namespace {

/// The daemon mix takes every Nth Table-I sample (123 of 492): enough
/// verdicts in one pass for a 95th percentile.
constexpr std::size_t kDaemonSampleStride = 4;
/// Recording threads during set-up (one per core of a 4-core host).
constexpr std::size_t kRecordingJobs = 4;

/// One trial to record: a sample spec or a benign workload.
struct Job {
  const sim::SampleSpec* sample = nullptr;
  const sim::BenignWorkload* app = nullptr;
};

bool is_modification(vfs::OpType op) {
  return op == vfs::OpType::write || op == vfs::OpType::truncate ||
         op == vfs::OpType::rename || op == vfs::OpType::remove;
}

Trial make_trial(std::string label, bool ransomware, bool expected_suspended,
                 const core::EngineSnapshot& scoreboard,
                 const std::vector<harness::ProcessRosterEntry>& roster,
                 std::size_t base_count, std::vector<vfs::TraceEntry> entries) {
  Trial trial;
  trial.label = std::move(label);
  trial.ransomware = ransomware;
  trial.expected_suspended = expected_suspended;
  trial.golden_line = verdicts_line(scoreboard);
  for (const harness::ProcessRosterEntry& entry : roster) {
    if (entry.pid > base_count) trial.spawns.push_back(entry);
  }
  std::set<vfs::ProcessId> own;
  for (const harness::ProcessRosterEntry& spawn : trial.spawns) own.insert(spawn.pid);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (is_modification(entries[i].op) && own.count(entries[i].pid) != 0) {
      trial.first_modify = i;
      break;
    }
  }
  trial.entries = std::move(entries);
  return trial;
}

}  // namespace

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::desktop: return "desktop";
    case Workload::campaign: return "campaign";
    case Workload::daemon: return "daemon";
  }
  return "?";
}

std::optional<Workload> workload_from_name(std::string_view name) {
  for (Workload w : {Workload::desktop, Workload::campaign, Workload::daemon}) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

Seeds seeds_from(std::uint64_t seed) {
  Seeds seeds;  // the corpus stays the paper-sized default volume
  seeds.campaign = seed;
  seeds.benign = 8 + seed;
  return seeds;
}

std::size_t Inputs::total_ops() const {
  std::size_t total = 0;
  for (const Trial& trial : trials) total += trial.entries.size();
  return total;
}

std::string verdicts_line(const core::EngineSnapshot& scoreboard) {
  return Json::object()
      .set("ok", true)
      .set("scoreboard", daemon::scoreboard_to_json(scoreboard))
      .to_string();
}

Inputs make_inputs(Workload workload, const Seeds& seeds) {
  corpus::CorpusSpec spec;  // 5,099 files in 511 directories
  spec.compute_hashes = false;  // loss accounting uses COW identity

  Inputs inputs;
  inputs.env = harness::make_environment(spec, seeds.corpus);

  const std::vector<sim::SampleSpec> samples = sim::table1_samples(seeds.campaign);
  const std::vector<sim::BenignWorkload> apps = sim::all_benign_workloads();
  std::vector<Job> jobs;
  if (workload != Workload::campaign) {
    for (const sim::BenignWorkload& app : apps) jobs.push_back({nullptr, &app});
  }
  if (workload == Workload::campaign) {
    for (const sim::SampleSpec& sample : samples) jobs.push_back({&sample, nullptr});
  } else if (workload == Workload::daemon) {
    for (std::size_t i = 0; i < samples.size(); i += kDaemonSampleStride) {
      jobs.push_back({&samples[i], nullptr});
    }
  }

  const std::size_t base_count = inputs.env.base_fs.process_count();
  inputs.trials.resize(jobs.size());
  harness::RunnerOptions runner;
  runner.jobs = kRecordingJobs;
  harness::parallel_for(jobs.size(), runner, [&](std::size_t i) {
    vfs::TraceRecorder recorder(/*capture_content=*/true);
    if (jobs[i].sample != nullptr) {
      harness::RansomwareRunResult result = harness::run_ransomware_sample_filtered(
          inputs.env, *jobs[i].sample, inputs.config, &recorder);
      inputs.trials[i] = make_trial(result.family, true, true, result.scoreboard,
                                    result.roster, base_count, recorder.entries());
    } else {
      harness::BenignRunResult result = harness::run_benign_workload_filtered(
          inputs.env, *jobs[i].app, inputs.config, seeds.benign, &recorder);
      inputs.trials[i] = make_trial(result.app, false,
                                    jobs[i].app->expected_false_positive,
                                    result.scoreboard, result.roster, base_count,
                                    recorder.entries());
    }
  });
  return inputs;
}

}  // namespace perfbench
