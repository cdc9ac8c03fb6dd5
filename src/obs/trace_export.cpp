#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

namespace cryptodrop::obs {

namespace {

Json event_json(std::string_view name, char phase, double ts_us,
                std::uint64_t pid, std::uint64_t tid) {
  Json ev = Json::object();
  ev.set("name", Json(name));
  ev.set("ph", Json(std::string(1, phase)));
  ev.set("ts", Json(ts_us));
  ev.set("pid", Json(pid));
  ev.set("tid", Json(tid));
  return ev;
}

}  // namespace

// --- export ------------------------------------------------------------

void append_trace_events(Json& events, const SpanSnapshot& snapshot,
                         const TraceExportOptions& options) {
  // Track labels first, one per pid the snapshot touches.
  if (!options.process_label.empty()) {
    std::set<std::uint32_t> pids;
    for (const SpanRecord& rec : snapshot.spans) pids.insert(rec.pid);
    for (std::uint32_t pid : pids) {
      Json meta = event_json("process_name", 'M', 0.0,
                             pid + options.pid_offset, options.tid_offset);
      Json args = Json::object();
      args.set("name", Json(options.process_label));
      meta.set("args", std::move(args));
      events.push(std::move(meta));
    }
  }

  // Replay each thread's spans in start order, reconstructing the
  // open/close nesting from parentage. Children always closed before
  // their parents, so an entry's end never precedes a later sibling's
  // start on the same thread — emitted ts stays monotone per track.
  struct Open {
    std::uint64_t span_id;
    std::uint64_t end_ns;
    std::string_view name;
    std::uint32_t pid;
    std::uint32_t tid;
  };
  std::vector<Open> stack;
  const auto emit_end = [&](const Open& open) {
    events.push(event_json(open.name, 'E',
                           static_cast<double>(open.end_ns) / 1000.0,
                           open.pid + options.pid_offset,
                           open.tid + options.tid_offset));
  };
  const auto flush = [&] {
    while (!stack.empty()) {
      emit_end(stack.back());
      stack.pop_back();
    }
  };

  std::uint32_t current_tid = 0;
  for (const SpanRecord& rec : snapshot.spans) {  // sorted by (tid, seq)
    if (!stack.empty() && rec.tid != current_tid) flush();
    current_tid = rec.tid;
    // Close everything that is not this span's parent. A span whose
    // parent record was evicted (bounded ring) renders as a root.
    while (!stack.empty() && stack.back().span_id != rec.parent_id) {
      emit_end(stack.back());
      stack.pop_back();
    }
    Json begin = event_json(rec.name, 'B',
                            static_cast<double>(rec.start_ns) / 1000.0,
                            rec.pid + options.pid_offset,
                            rec.tid + options.tid_offset);
    if (!rec.args.empty()) {
      Json args = Json::object();
      for (const SpanArg& a : rec.args) {
        args.set(a.key, a.numeric ? Json(a.num) : Json(a.str));
      }
      begin.set("args", std::move(args));
    }
    events.push(std::move(begin));
    stack.push_back(Open{rec.span_id, rec.start_ns + rec.dur_ns, rec.name,
                         rec.pid, rec.tid});
  }
  flush();
}

Json to_trace_json(const SpanSnapshot& snapshot,
                   const TraceExportOptions& options) {
  Json events = Json::array();
  append_trace_events(events, snapshot, options);
  Json other = Json::object();
  other.set("tool", Json("cryptodrop span tracer"));
  other.set("spans_recorded", Json(snapshot.recorded));
  other.set("spans_dropped", Json(snapshot.dropped));
  Json out = Json::object();
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", Json("ms"));
  out.set("otherData", std::move(other));
  return out;
}

Json empty_trace_json() { return to_trace_json(SpanSnapshot{}); }

// --- parse -------------------------------------------------------------

namespace {

/// Scalar args as the text `trace-report` prints: strings unquoted,
/// null/booleans/numbers as the writer spells them.
std::string scalar_to_display(const Json& v) {
  if (v.is_string()) return v.as_string();
  if (v.is_array()) return "<array>";
  if (v.is_object()) return "<object>";
  return v.to_string();
}

}  // namespace

Result<std::vector<TraceEvent>> parse_trace_events(std::string_view text) {
  Result<Json> parsed = Json::parse(text);
  if (!parsed) return parsed.status();
  const Json& root = parsed.value();

  const Json* events = root.is_array() ? &root : root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status(Errc::invalid_argument,
                  "no traceEvents array in trace document");
  }

  std::vector<TraceEvent> out;
  out.reserve(events->size());
  for (const Json& item : events->items()) {
    if (!item.is_object()) {
      return Status(Errc::invalid_argument, "trace event is not an object");
    }
    TraceEvent ev;
    ev.name = item.string_or("name", "");
    const std::string phase = item.string_or("ph", "");
    if (!phase.empty()) ev.phase = phase[0];
    ev.ts = item.number_or("ts", 0.0);
    const std::optional<std::int64_t> pid = item.integer_or<std::int64_t>("pid", 0);
    const std::optional<std::int64_t> tid = item.integer_or<std::int64_t>("tid", 0);
    if (!pid || !tid) {
      return Status(Errc::invalid_argument,
                    "trace event pid/tid is not a whole number in range");
    }
    ev.pid = *pid;
    ev.tid = *tid;
    if (const Json* args = item.find("args"); args != nullptr) {
      for (const auto& [key, value] : args->fields()) {
        ev.args.emplace_back(key, scalar_to_display(value));
      }
    }
    out.push_back(std::move(ev));
  }
  return out;
}

Status validate_trace_events(const std::vector<TraceEvent>& events) {
  struct Track {
    double last_ts = 0.0;
    bool seen = false;
    std::vector<std::string> open;  ///< Names of unclosed B events.
  };
  std::map<std::pair<std::int64_t, std::int64_t>, Track> tracks;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (ev.phase == 'M') continue;  // metadata carries no timing
    Track& track = tracks[{ev.pid, ev.tid}];
    if (track.seen && ev.ts < track.last_ts) {
      return Status(Errc::invalid_argument,
                    "ts regression on track pid=" + std::to_string(ev.pid) +
                        " tid=" + std::to_string(ev.tid) + " at event " +
                        std::to_string(i));
    }
    track.last_ts = ev.ts;
    track.seen = true;
    if (ev.phase == 'B') {
      track.open.push_back(ev.name);
    } else if (ev.phase == 'E') {
      if (track.open.empty()) {
        return Status(Errc::invalid_argument,
                      "E without matching B at event " + std::to_string(i));
      }
      if (!ev.name.empty() && track.open.back() != ev.name) {
        return Status(Errc::invalid_argument,
                      "E for '" + ev.name + "' closes B for '" +
                          track.open.back() + "' at event " +
                          std::to_string(i));
      }
      track.open.pop_back();
    }
  }
  for (const auto& [key, track] : tracks) {
    if (!track.open.empty()) {
      return Status(Errc::invalid_argument,
                    "unclosed B for '" + track.open.back() + "' on track pid=" +
                        std::to_string(key.first) +
                        " tid=" + std::to_string(key.second));
    }
  }
  return Status::ok();
}

// --- analysis ----------------------------------------------------------

namespace {

/// Which indicator a measurement stage's cost belongs to (score_update
/// spans carry the indicator in their args instead).
std::string_view stage_indicator(std::string_view stage) {
  if (stage == span_name::kEntropy) return "entropy_delta";
  if (stage == span_name::kMagicSniff) return "type_change";
  if (stage == span_name::kSdhashDigest || stage == span_name::kSdhashCompare) {
    return "similarity_drop";
  }
  return {};
}

std::string arg_value(const std::vector<std::pair<std::string, std::string>>& args,
                      std::string_view key) {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return {};
}

}  // namespace

TraceReport analyze_trace(const std::vector<TraceEvent>& events,
                          std::size_t top_k) {
  struct Frame {
    std::string name;
    double ts = 0.0;
    double child_us = 0.0;
    std::vector<std::pair<std::string, std::string>> args;
    std::map<std::string, double> self_by_stage;  ///< Root frames only.
  };
  struct StageAcc {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  struct IndicatorAcc {
    std::uint64_t spans = 0;
    double self_us = 0.0;
  };

  TraceReport report;
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<Frame>> stacks;
  std::map<std::string, StageAcc> stages;
  std::map<std::string, IndicatorAcc> indicators;
  std::vector<SlowOp> roots;

  for (const TraceEvent& ev : events) {
    if (ev.phase == 'B') {
      ++report.events;
      Frame frame;
      frame.name = ev.name;
      frame.ts = ev.ts;
      frame.args = ev.args;
      stacks[{ev.pid, ev.tid}].push_back(std::move(frame));
    } else if (ev.phase == 'E') {
      ++report.events;
      auto& stack = stacks[{ev.pid, ev.tid}];
      if (stack.empty()) continue;  // tolerated; validator flags it
      Frame frame = std::move(stack.back());
      stack.pop_back();
      const double dur = std::max(0.0, ev.ts - frame.ts);
      const double self = std::max(0.0, dur - frame.child_us);

      StageAcc& acc = stages[frame.name];
      ++acc.count;
      acc.total_us += dur;
      acc.self_us += self;

      std::string indicator(stage_indicator(frame.name));
      if (indicator.empty() && frame.name == span_name::kScoreUpdate) {
        indicator = arg_value(frame.args, "indicator");
      }
      if (!indicator.empty()) {
        IndicatorAcc& ind = indicators[indicator];
        ++ind.spans;
        ind.self_us += self;
      }

      if (!stack.empty()) {
        stack.back().child_us += dur;
        stack.front().self_by_stage[frame.name] += self;
      } else {
        // A root operation closed.
        frame.self_by_stage[frame.name] += self;
        SlowOp op;
        op.op = arg_value(frame.args, "op");
        if (op.op.empty()) op.op = frame.name;
        op.path = arg_value(frame.args, "path");
        op.pid = ev.pid;
        op.ts = frame.ts;
        op.dur_us = dur;
        op.stage_self_us.assign(frame.self_by_stage.begin(),
                                frame.self_by_stage.end());
        std::sort(op.stage_self_us.begin(), op.stage_self_us.end(),
                  [](const auto& a, const auto& b) { return a.second > b.second; });
        roots.push_back(std::move(op));
      }
    }
  }

  report.ops = roots.size();
  for (const auto& [name, acc] : stages) {
    report.stages.push_back(StageCost{name, acc.count, acc.total_us, acc.self_us});
    report.total_self_us += acc.self_us;
  }
  std::sort(report.stages.begin(), report.stages.end(),
            [](const StageCost& a, const StageCost& b) {
              return a.self_us > b.self_us;
            });
  for (const auto& [name, acc] : indicators) {
    report.indicators.push_back(IndicatorCost{name, acc.spans, acc.self_us});
  }
  std::sort(report.indicators.begin(), report.indicators.end(),
            [](const IndicatorCost& a, const IndicatorCost& b) {
              return a.self_us > b.self_us;
            });
  std::sort(roots.begin(), roots.end(),
            [](const SlowOp& a, const SlowOp& b) { return a.dur_us > b.dur_us; });
  if (roots.size() > top_k) roots.resize(top_k);
  report.slowest = std::move(roots);
  return report;
}

std::string format_trace_report(const TraceReport& report) {
  std::string out;
  char line[512];
  const auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
    out.push_back('\n');
  };

  emit("Span trace report");
  emit("  events analyzed : %zu", report.events);
  emit("  operations      : %zu root spans", report.ops);
  emit("  total self time : %.1f us", report.total_self_us);
  out.push_back('\n');

  emit("Per-stage self time (critical path, largest first)");
  emit("  %-24s %10s %14s %14s %7s", "stage", "count", "total(us)",
       "self(us)", "self%");
  for (const StageCost& stage : report.stages) {
    const double share = report.total_self_us > 0.0
                             ? 100.0 * stage.self_us / report.total_self_us
                             : 0.0;
    emit("  %-24s %10llu %14.1f %14.1f %6.1f%%", stage.name.c_str(),
         static_cast<unsigned long long>(stage.count), stage.total_us,
         stage.self_us, share);
  }
  out.push_back('\n');

  emit("Per-indicator cost attribution");
  if (report.indicators.empty()) {
    emit("  (no engine stage spans in this trace)");
  } else {
    emit("  %-18s %10s %14s %7s", "indicator", "spans", "self(us)", "share");
    for (const IndicatorCost& ind : report.indicators) {
      const double share = report.total_self_us > 0.0
                               ? 100.0 * ind.self_us / report.total_self_us
                               : 0.0;
      emit("  %-18s %10llu %14.1f %6.1f%%", ind.indicator.c_str(),
           static_cast<unsigned long long>(ind.spans), ind.self_us, share);
    }
  }
  out.push_back('\n');

  emit("Top %zu slowest operations", report.slowest.size());
  for (std::size_t i = 0; i < report.slowest.size(); ++i) {
    const SlowOp& op = report.slowest[i];
    emit("  %2zu. %-8s pid=%lld dur=%.1fus ts=%.1fus %s", i + 1,
         op.op.c_str(), static_cast<long long>(op.pid), op.dur_us, op.ts,
         op.path.c_str());
    std::string stages_line;
    for (std::size_t j = 0; j < op.stage_self_us.size() && j < 4; ++j) {
      char part[128];
      std::snprintf(part, sizeof(part), "%s%s %.1fus", j > 0 ? ", " : "",
                    op.stage_self_us[j].first.c_str(),
                    op.stage_self_us[j].second);
      stages_line += part;
    }
    if (!stages_line.empty()) emit("      stages: %s", stages_line.c_str());
  }
  return out;
}

}  // namespace cryptodrop::obs
