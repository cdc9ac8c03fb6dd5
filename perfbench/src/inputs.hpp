// Benchmark inputs: the golden op streams every workload replays.
//
// Set-up builds the victim volume from the corpus seed and records each
// trial once with the existing harness, a content-carrying
// vfs::TraceRecorder stacked below the engine (so the trace is exactly
// the op stream the volume applied). Each trial keeps its recorded
// entries, the processes it spawned and its golden `verdicts` line: the
// end-of-run scoreboard serialized by daemon::scoreboard_to_json, the
// serializer the daemon parity gate uses. The program under test later
// receives only these traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "harness/experiment.hpp"
#include "vfs/trace.hpp"

namespace perfbench {

using namespace cryptodrop;

enum class Workload { desktop, campaign, daemon };

/// "desktop" / "campaign" / "daemon".
std::string_view workload_name(Workload workload);
/// Inverse of workload_name().
std::optional<Workload> workload_from_name(std::string_view name);

/// The three input seeds. Benchmark seed 1 reproduces the repository's
/// standard bench inputs (corpus 20160627, campaign 1, benign 9).
struct Seeds {
  std::uint64_t corpus = 20160627;
  std::uint64_t campaign = 1;
  std::uint64_t benign = 9;
};

/// Derives the input seeds from one benchmark seed: the seed picks the
/// campaign and benign behaviour (samples' keys and traversal, apps'
/// choices); the corpus, the user's documents, keeps its default seed
/// unless --corpus-seed overrides it.
Seeds seeds_from(std::uint64_t seed);

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// One recorded trial (a ransomware sample or a benign app).
struct Trial {
  std::string label;
  bool ransomware = false;
  /// The paper's verdict for this trial: every sample is suspended, and
  /// of the benign apps only the expected false positive (7-zip).
  bool expected_suspended = false;
  std::vector<vfs::TraceEntry> entries;
  /// Processes the trial registered on top of the base volume.
  std::vector<harness::ProcessRosterEntry> spawns;
  /// Expected `verdicts` response line (golden scoreboard).
  std::string golden_line;
  /// Index of the first write/truncate/rename/remove entry (kNone if
  /// the trial never modifies anything).
  std::size_t first_modify = kNone;
  /// Index of the entry after whose replay a trial process first reads
  /// suspended; set by a reference replay (kNone if never suspended).
  std::size_t suspend_op = kNone;
};

/// Everything a workload replays.
struct Inputs {
  harness::Environment env;
  core::ScoringConfig config;
  std::vector<Trial> trials;
  [[nodiscard]] std::size_t total_ops() const;
};

/// Builds the paper's 5,099-file volume and records every trial of
/// `workload` on four threads. The daemon mix is the 30 apps plus every
/// 4th Table-I sample.
Inputs make_inputs(Workload workload, const Seeds& seeds);

/// The `verdicts` response a parity-clean replay must produce for
/// `scoreboard` (same envelope and serializer as the control API).
std::string verdicts_line(const core::EngineSnapshot& scoreboard);

}  // namespace perfbench
