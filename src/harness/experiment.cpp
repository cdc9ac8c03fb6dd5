#include "harness/experiment.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "common/stats.hpp"
#include "core/session.hpp"
#include "vfs/path.hpp"
#include "vfs/trace.hpp"

namespace cryptodrop::harness {

Environment make_environment(const corpus::CorpusSpec& spec, std::uint64_t seed) {
  Environment env;
  env.spec = spec;
  Rng rng(seed);
  env.corpus = corpus::build_corpus(env.base_fs, spec, rng);
  return env;
}

Environment make_default_environment(std::uint64_t seed) {
  return make_environment(corpus::CorpusSpec{}, seed);
}

corpus::CorpusSpec small_corpus_spec(std::size_t files, std::size_t dirs) {
  corpus::CorpusSpec spec;
  spec.total_files = files;
  spec.total_dirs = dirs;
  spec.max_depth = 4;
  return spec;
}

namespace {

/// Runs one trial: a MonitorSession over a clone of `env.base_fs` with
/// `filters` (nulls skipped) and then the plan's fault filter stacked
/// below the engine, top to bottom. `act(fs, pid, result)` runs the
/// actor spawned as `actor`; the fields both result kinds share are
/// filled in afterwards.
template <typename Result, typename Act>
Result run_trial(const Environment& env, const RunPlan& plan, std::uint64_t fault_seed,
                 std::initializer_list<vfs::Filter*> filters, const std::string& actor,
                 Act&& act) {
  core::MonitorSession session(env.base_fs, plan.config, plan.trace);
  vfs::FileSystem& fs = session.fs();
  std::optional<vfs::FaultInjectionFilter> faults;
  if (plan.faults) faults.emplace(plan.faults->plan.reseeded(fault_seed));
  std::vector<vfs::Filter*> stack;
  for (vfs::Filter* filter : filters) {
    if (filter != nullptr) stack.push_back(filter);
  }
  if (faults) stack.push_back(&*faults);
  for (vfs::Filter* filter : stack) fs.attach_filter(filter);

  const vfs::ProcessId pid = session.spawn(actor);
  Result result;
  act(fs, pid, result);
  const core::EngineSnapshot snap = session.snapshot();
  result.report = snap.report_for(pid);
  result.scoreboard = snap;
  for (vfs::ProcessId p = 1; p <= fs.process_count(); ++p) {
    result.roster.push_back({p, std::string(fs.process_name(p)), fs.process_parent(p)});
  }
  result.metrics = snap.metrics;
  result.final_score = result.report.score;
  result.union_triggered = result.report.union_triggered;

  for (auto it = stack.rbegin(); it != stack.rend(); ++it) fs.detach_filter(*it);
  result.trace = session.trace_snapshot();
  if (faults) result.metrics.merge(faults->metrics_snapshot());
  return result;
}

}  // namespace

RansomwareRunResult run_sample(const Environment& env, const sim::SampleSpec& spec,
                               const RunPlan& plan, vfs::Filter* below_engine) {
  sim::RansomwareProfile profile = spec.profile;
  if (plan.faults) {
    profile.give_up_after_denials =
        std::max<std::size_t>(plan.faults->sample_give_up_after_denials, 1);
  }
  // Successful ops only, metadata only: the source of Figures 4 and 5.
  vfs::TraceRecorder recorder(/*capture_content=*/false);
  vfs::ProcessId pid = 0;
  auto result = run_trial<RansomwareRunResult>(
      env, plan, spec.seed, {&recorder, below_engine}, spec.family,
      [&](vfs::FileSystem& fs, vfs::ProcessId sample_pid, RansomwareRunResult& r) {
        pid = sample_pid;
        sim::RansomwareSample sample(std::move(profile), spec.seed);
        r.sample = sample.run(fs, pid, env.corpus.root);
        r.files_lost = corpus::count_files_lost(fs, env.corpus);
      });
  result.family = spec.family;
  result.behavior = spec.behavior;
  result.union_count = result.report.union_count;
  // With family scoring, the root's report covers spawned workers; when
  // an ablation disables it, a run halted by denials still counts as
  // detected (every worker was individually flagged). Not under faults:
  // there an injected denial halts a sample just as a suspension does,
  // and only the engine's own verdict counts.
  result.detected = result.report.suspended ||
                    (!plan.faults && !result.sample.ran_to_completion &&
                     result.sample.ops_denied > 0);

  // Figure 4: parent directories (under the corpus root) of every file
  // the sample read, wrote, removed or renamed — a rename's destination
  // included. Figure 5: extensions of the *corpus* files among them.
  // Figure 5 reflects "the first files attacked by each sample", so the
  // sample's own artifacts — ransom notes, .encrypted outputs — must not
  // count; membership in the pristine manifest is the filter.
  std::set<std::string> corpus_paths;
  for (const corpus::ManifestEntry& entry : env.corpus.manifest) {
    corpus_paths.insert(entry.path);
  }
  std::set<std::string> dirs;
  for (const vfs::TraceEntry& op : recorder.entries()) {
    if (op.pid != pid) continue;
    switch (op.op) {
      case vfs::OpType::rename:
        dirs.insert(vfs::path_parent(op.dest_path));
        [[fallthrough]];
      case vfs::OpType::read:
      case vfs::OpType::write:
      case vfs::OpType::remove:
        dirs.insert(vfs::path_parent(op.path));
        break;
      default:
        continue;
    }
    if (!corpus_paths.contains(op.path)) continue;
    const std::string ext = vfs::path_extension(op.path);
    if (!ext.empty()) result.extensions_accessed.insert(ext);
  }
  for (const std::string& dir : dirs) {
    if (vfs::path_is_under(dir, env.corpus.root)) result.directories_touched.insert(dir);
  }
  return result;
}

BenignRunResult run_workload(const Environment& env, const sim::BenignWorkload& workload,
                             std::uint64_t seed, const RunPlan& plan,
                             vfs::Filter* below_engine) {
  auto result = run_trial<BenignRunResult>(
      env, plan, seed_from_string(workload.name) + seed, {below_engine}, workload.name,
      [&](vfs::FileSystem& fs, vfs::ProcessId pid, BenignRunResult&) {
        sim::WorkloadContext ctx{fs, pid, env.corpus.root, Rng(seed)};
        workload.run(ctx);
      });
  result.app = workload.name;
  result.expected_false_positive = workload.expected_false_positive;
  result.detected = result.report.suspended;
  return result;
}

obs::MetricsSnapshot merged_metrics(const std::vector<RansomwareRunResult>& results) {
  obs::MetricsSnapshot merged;
  for (const RansomwareRunResult& r : results) merged.merge(r.metrics);
  return merged;
}

obs::MetricsSnapshot merged_metrics(const std::vector<BenignRunResult>& results) {
  obs::MetricsSnapshot merged;
  for (const BenignRunResult& r : results) merged.merge(r.metrics);
  return merged;
}

std::vector<FamilyRow> aggregate_table1(const std::vector<RansomwareRunResult>& results) {
  std::map<std::string, std::vector<const RansomwareRunResult*>> by_family;
  for (const RansomwareRunResult& r : results) by_family[r.family].push_back(&r);

  std::vector<FamilyRow> rows;
  for (const auto& [family, runs] : by_family) {
    FamilyRow row;
    row.family = family;
    std::vector<double> losses;
    for (const RansomwareRunResult* r : runs) {
      switch (r->behavior) {
        case sim::BehaviorClass::A: ++row.class_a; break;
        case sim::BehaviorClass::B: ++row.class_b; break;
        case sim::BehaviorClass::C: ++row.class_c; break;
      }
      losses.push_back(static_cast<double>(r->files_lost));
    }
    row.total = runs.size();
    row.median_files_lost = median(std::move(losses));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<double> files_lost_values(const std::vector<RansomwareRunResult>& results) {
  std::vector<double> out;
  out.reserve(results.size());
  for (const RansomwareRunResult& r : results) {
    out.push_back(static_cast<double>(r.files_lost));
  }
  return out;
}

std::vector<std::pair<std::string, std::size_t>> extension_frequency(
    const std::vector<RansomwareRunResult>& results) {
  std::map<std::string, std::size_t> counts;
  for (const RansomwareRunResult& r : results) {
    for (const std::string& ext : r.extensions_accessed) ++counts[ext];
  }
  std::vector<std::pair<std::string, std::size_t>> out(counts.begin(), counts.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace cryptodrop::harness
