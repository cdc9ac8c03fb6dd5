#include "daemon/control.hpp"

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

#include "daemon/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_export.hpp"
#include "vfs/trace.hpp"

namespace cryptodrop::daemon {
namespace {

/// A response plus its envelope verdict (drives the error counter
/// without re-parsing the serialized line).
struct Response {
  Json body;
  bool ok = false;
};

Json ok_response() { return Json::object().set("ok", true); }

Response ok_with(Json body) { return {std::move(body), true}; }

Response error_response(std::string message) {
  return {Json::object().set("ok", false).set("error", std::move(message)),
          false};
}

Response error_response(const Status& status) {
  // Structured `code` rides along with the human-readable message so
  // clients can branch on Errc without parsing prose.
  return {Json::object()
              .set("ok", false)
              .set("error", status.to_string())
              .set("code", std::string(errc_name(status.code()))),
          false};
}

/// Integer member `key` of `object` (`fallback` when absent or not a
/// number). A number T cannot hold — fractional, non-finite or out of
/// range, e.g. a negative cursor or 1e300 — is an invalid_argument error
/// rather than an undefined float-to-integer conversion.
template <typename T>
Result<T> integer_field(const Json& object, std::string_view key, T fallback) {
  if (const std::optional<T> value = object.integer_or<T>(key, fallback)) {
    return *value;
  }
  return Status(Errc::invalid_argument,
                "`" + std::string(key) + "` must be a whole number in range");
}

/// Applies the documented `config` overrides (docs/DAEMON.md `attach`)
/// on top of the daemon's default scoring config.
Result<core::ScoringConfig> config_from_json(core::ScoringConfig base,
                                             const Json* overrides) {
  if (overrides == nullptr || !overrides->is_object()) {
    return base;
  }
  for (auto [key, field] : {std::pair{"score_threshold", &base.score_threshold},
                            std::pair{"union_threshold", &base.union_threshold},
                            std::pair{"union_bonus", &base.union_bonus}}) {
    const Result<int> value = integer_field(*overrides, key, *field);
    if (!value) return value.status();
    *field = value.value();
  }
  base.enable_union = overrides->bool_or("enable_union", base.enable_union);
  base.enable_family_scoring = overrides->bool_or("enable_family_scoring",
                                                  base.enable_family_scoring);
  base.protected_root =
      overrides->string_or("protected_root", base.protected_root);
  return base;
}

Response handle_request(Daemon& daemon, const Json& request,
                        WatchSubscription* watch) {
  const std::string type = request.string_or("type", "");
  if (type == "ping") {
    return ok_with(ok_response().set("pong", true));
  }
  if (type == "attach") {
    const std::string tenant = request.string_or("tenant", "");
    Result<core::ScoringConfig> config =
        config_from_json(daemon.default_config(), request.find("config"));
    if (!config) return error_response(config.status());
    const Status status = daemon.attach(tenant, std::move(config).value());
    if (!status) return error_response(status);
    return ok_with(ok_response().set("tenant", tenant));
  }
  if (type == "detach") {
    const Status status = daemon.detach(request.string_or("tenant", ""));
    if (!status) return error_response(status);
    return ok_with(ok_response());
  }
  if (type == "spawn") {
    const Result<vfs::ProcessId> pid = integer_field<vfs::ProcessId>(request, "pid", 0);
    if (!pid) return error_response(pid.status());
    const Result<vfs::ProcessId> parent =
        integer_field<vfs::ProcessId>(request, "parent", 0);
    if (!parent) return error_response(parent.status());
    const Status status =
        daemon.spawn(request.string_or("tenant", ""), pid.value(),
                     request.string_or("name", "process"), parent.value());
    if (!status) return error_response(status);
    return ok_with(ok_response());
  }
  if (type == "submit") {
    const Json* ops = request.find("ops");
    if (ops == nullptr || !ops->is_array()) {
      return error_response("submit requires an `ops` array");
    }
    std::vector<vfs::TraceEntry> entries;
    entries.reserve(ops->size());
    for (const Json& op : ops->items()) {
      if (!op.is_string()) {
        return error_response("each op must be a serialized trace-entry string");
      }
      std::optional<vfs::TraceEntry> entry = vfs::parse_trace_entry(op.as_string());
      if (!entry.has_value()) {
        return error_response("malformed trace entry: " + op.as_string());
      }
      entries.push_back(std::move(*entry));
    }
    Result<SubmitResult> result =
        daemon.submit(request.string_or("tenant", ""), std::move(entries));
    if (!result) return error_response(result.status());
    return ok_with(ok_response()
        .set("accepted", result.value().accepted)
        .set("shed", result.value().shed));
  }
  if (type == "drain") {
    const Json* tenant = request.find("tenant");
    if (tenant != nullptr && tenant->is_string()) {
      const Status status = daemon.drain(tenant->as_string());
      if (!status) return error_response(status);
    } else {
      daemon.drain();
    }
    return ok_with(ok_response().set("drained", true));
  }
  if (type == "verdicts") {
    Result<core::EngineSnapshot> snapshot =
        daemon.verdicts(request.string_or("tenant", ""));
    if (!snapshot) return error_response(snapshot.status());
    return ok_with(ok_response().set("scoreboard",
                             scoreboard_to_json(snapshot.value())));
  }
  if (type == "explain") {
    const Result<vfs::ProcessId> pid = integer_field<vfs::ProcessId>(request, "pid", 0);
    if (!pid) return error_response(pid.status());
    Result<obs::ForensicTimeline> timeline =
        daemon.explain(request.string_or("tenant", ""), pid.value());
    if (!timeline) return error_response(timeline.status());
    return ok_with(ok_response().set("forensic", obs::to_json(timeline.value())));
  }
  if (type == "metrics") {
    const Json* tenant = request.find("tenant");
    if (tenant != nullptr && tenant->is_string()) {
      Result<obs::MetricsSnapshot> snapshot = daemon.tenant_metrics(tenant->as_string());
      if (!snapshot) return error_response(snapshot.status());
      return ok_with(ok_response().set("metrics", obs::to_json(snapshot.value())));
    }
    return ok_with(ok_response().set("metrics", obs::to_json(daemon.metrics())));
  }
  if (type == "events") {
    const Result<std::uint64_t> cursor =
        integer_field<std::uint64_t>(request, "cursor", 0);
    if (!cursor) return error_response(cursor.status());
    const Result<std::size_t> max = integer_field<std::size_t>(request, "max", 256);
    if (!max) return error_response(max.status());
    const std::string tenant = request.string_or("tenant", "");
    const EventJournal::Drain drain =
        daemon.telemetry().journal().since(cursor.value(), tenant, max.value());
    Json rows = Json::array();
    for (const JournalEvent& event : drain.events) rows.push(to_json(event));
    return ok_with(ok_response()
                       .set("events", std::move(rows))
                       .set("next_cursor",
                            static_cast<unsigned long long>(drain.next_cursor))
                       .set("dropped",
                            static_cast<unsigned long long>(drain.dropped)));
  }
  if (type == "watch") {
    const Result<std::uint64_t> cursor = integer_field<std::uint64_t>(
        request, "cursor", daemon.telemetry().journal().emitted());
    if (!cursor) return error_response(cursor.status());
    const std::uint64_t start = cursor.value();
    if (watch != nullptr) {
      watch->requested = true;
      watch->tenant = request.string_or("tenant", "");
      watch->cursor = start;
    }
    return ok_with(ok_response().set(
        "watch", Json::object()
                     .set("cursor", static_cast<unsigned long long>(start))
                     .set("streaming", watch != nullptr)));
  }
  if (type == "health") {
    return ok_with(ok_response().set("health", to_json(daemon.health())));
  }
  if (type == "trace") {
    return ok_with(ok_response().set("trace", obs::to_trace_json(daemon.trace_snapshot())));
  }
  if (type == "tenants") {
    Json rows = Json::array();
    for (const TenantInfo& info : daemon.tenants()) {
      rows.push(Json::object()
                    .set("id", info.id)
                    .set("worker", info.worker)
                    .set("ingested", info.ingested)
                    .set("executed", info.executed)
                    .set("shed", info.shed));
    }
    return ok_with(ok_response().set("tenants", std::move(rows)));
  }
  if (type == "shutdown") {
    daemon.shutdown(request.bool_or("drain", true));
    return ok_with(ok_response().set("stopped", true));
  }
  return error_response("unknown request type: `" + type + "`");
}

}  // namespace

std::vector<std::string_view> known_request_types() {
  return {"ping",     "attach",  "detach",  "spawn",  "submit",
          "drain",    "verdicts", "explain", "metrics", "events",
          "watch",    "health",  "trace",   "tenants", "shutdown"};
}

std::string ControlDispatcher::handle_line(const std::string& line) {
  return handle_line(line, nullptr);
}

std::string ControlDispatcher::handle_line(const std::string& line,
                                           WatchSubscription* watch) {
  daemon_->daemon_metrics().control_requests().add();
  const Result<Json> request = Json::parse(line);
  Response response =
      (!request || !request.value().is_object())
          ? error_response("request is not a JSON object")
          : handle_request(*daemon_, request.value(), watch);
  if (!response.ok) daemon_->daemon_metrics().control_errors().add();
  return response.body.to_string();
}

}  // namespace cryptodrop::daemon
