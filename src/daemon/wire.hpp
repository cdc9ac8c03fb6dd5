// Wire layer for the cryptodropd control API (docs/DAEMON.md).
//
// The control protocol is line-delimited JSON: one request object per
// line in, one response object per line out, read with Json::parse.
// This header holds the response-side serializers shared between the
// daemon and the parity harness: to_json(ProcessReport) is used by BOTH
// the daemon's `verdicts` response and the in-process golden run, so
// "bit-identical scoreboards" is a string comparison of the same
// serializer's output.
#pragma once

#include <optional>
#include <string_view>
#include <utility>

#include "common/json.hpp"
#include "core/engine.hpp"

namespace cryptodrop::daemon {

// The reader's old names, kept only for the replay benchmark
// (perfbench/src/daemon_load.cpp): perfbench/ must build unchanged
// against every commit it compares, so these stay until the next change
// to the benchmark. No other caller may use them; use Json::parse.
using JsonValue = Json;
/// Json::parse with the error dropped (nullopt on malformed input).
inline std::optional<Json> parse_json(std::string_view text) {
  Result<Json> parsed = Json::parse(text);
  return parsed ? std::optional<Json>(std::move(parsed).value()) : std::nullopt;
}

/// Serializes one process report — score, verdict, indicator counts,
/// entropy means, extension sets and the forensic timeline (the score
/// history) — the "per-tenant scoreboard" unit of the daemon parity gate.
Json report_to_json(const core::ProcessReport& report);

/// Serializes the scoreboard half of an engine snapshot: the report
/// list plus the default threshold. Latency and metrics are excluded:
/// they carry wall-clock measurements outside the determinism contract.
Json scoreboard_to_json(const core::EngineSnapshot& snapshot);

}  // namespace cryptodrop::daemon
