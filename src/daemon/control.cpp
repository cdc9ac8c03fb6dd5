#include "daemon/control.hpp"

#include <cstdint>
#include <optional>
#include <type_traits>
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

/// Member `key` of `object` as a T (bool, std::string or an integer):
/// `fallback` when absent, required when there is none. Another JSON
/// type, or a number T cannot hold (fractional, non-finite, out of
/// range), is an invalid_argument error, never a silent fallback.
template <typename T>
Result<T> field(const Json& object, std::string_view key, std::optional<T> fallback) {
  const Json* value = object.find(key);
  const std::string name = "`" + std::string(key) + "`";
  if (value == nullptr) {
    if (fallback) return *std::move(fallback);
    return Status(Errc::invalid_argument, name + " is required");
  }
  if constexpr (std::is_same_v<T, bool>) {
    if (value->is_bool()) return value->as_bool();
    return Status(Errc::invalid_argument, name + " must be a boolean");
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (value->is_string()) return value->as_string();
    return Status(Errc::invalid_argument, name + " must be a string");
  } else {
    if (value->is_number()) {
      if (const std::optional<T> whole = Json::integral<T>(value->as_number())) return *whole;
    }
    return Status(Errc::invalid_argument, name + " must be a whole number in range");
  }
}

/// Overwrites `target` with member `key` of `object` when present.
template <typename T>
Status read_into(const Json& object, std::string_view key, T& target) {
  Result<T> value = field<T>(object, key, target);
  if (!value) return value.status();
  target = std::move(value).value();
  return Status::ok();
}

/// Applies the documented `config` overrides (docs/DAEMON.md `attach`)
/// on top of the daemon's default scoring config.
Result<core::ScoringConfig> config_from_json(core::ScoringConfig base,
                                             const Json* overrides) {
  if (overrides == nullptr) return base;
  if (!overrides->is_object()) {
    return Status(Errc::invalid_argument, "`config` must be an object");
  }
  for (const Status& status :
       {read_into(*overrides, "score_threshold", base.score_threshold),
        read_into(*overrides, "union_threshold", base.union_threshold),
        read_into(*overrides, "union_bonus", base.union_bonus),
        read_into(*overrides, "enable_union", base.enable_union),
        read_into(*overrides, "enable_family_scoring", base.enable_family_scoring),
        read_into(*overrides, "protected_root", base.protected_root)}) {
    if (!status) return status;
  }
  return base;
}

Response handle_request(Daemon& daemon, const Json& request,
                        WatchSubscription* watch) {
  const std::string type = request.string_or("type", "");
  // Most requests name a tenant. An absent `tenant` reads as "" (no such
  // tenant), except that drain and metrics then cover every tenant.
  const Result<std::string> tenant_field = field<std::string>(request, "tenant", "");
  if (!tenant_field) return error_response(tenant_field.status());
  const std::string& tenant = tenant_field.value();
  const bool all_tenants = request.find("tenant") == nullptr;
  if (type == "ping") {
    return ok_with(ok_response().set("pong", true));
  }
  if (type == "attach") {
    Result<core::ScoringConfig> config =
        config_from_json(daemon.default_config(), request.find("config"));
    if (!config) return error_response(config.status());
    const Status status = daemon.attach(tenant, std::move(config).value());
    if (!status) return error_response(status);
    return ok_with(ok_response().set("tenant", tenant));
  }
  if (type == "detach") {
    const Status status = daemon.detach(tenant);
    if (!status) return error_response(status);
    return ok_with(ok_response());
  }
  if (type == "spawn") {
    const Result<vfs::ProcessId> pid = field<vfs::ProcessId>(request, "pid", std::nullopt);
    if (!pid) return error_response(pid.status());
    const Result<vfs::ProcessId> parent = field<vfs::ProcessId>(request, "parent", 0);
    if (!parent) return error_response(parent.status());
    const Result<std::string> name = field<std::string>(request, "name", "process");
    if (!name) return error_response(name.status());
    const Status status = daemon.spawn(tenant, pid.value(), name.value(), parent.value());
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
    Result<SubmitResult> result = daemon.submit(tenant, std::move(entries));
    if (!result) return error_response(result.status());
    return ok_with(ok_response()
        .set("accepted", result.value().accepted)
        .set("shed", result.value().shed));
  }
  if (type == "drain") {
    if (all_tenants) {
      daemon.drain();
    } else if (const Status status = daemon.drain(tenant); !status) {
      return error_response(status);
    }
    return ok_with(ok_response().set("drained", true));
  }
  if (type == "verdicts") {
    Result<core::EngineSnapshot> snapshot = daemon.verdicts(tenant);
    if (!snapshot) return error_response(snapshot.status());
    return ok_with(ok_response().set("scoreboard",
                             scoreboard_to_json(snapshot.value())));
  }
  if (type == "explain") {
    const Result<vfs::ProcessId> pid = field<vfs::ProcessId>(request, "pid", std::nullopt);
    if (!pid) return error_response(pid.status());
    Result<obs::ForensicTimeline> timeline = daemon.explain(tenant, pid.value());
    if (!timeline) return error_response(timeline.status());
    return ok_with(ok_response().set("forensic", obs::to_json(timeline.value())));
  }
  if (type == "metrics") {
    if (!all_tenants) {
      Result<obs::MetricsSnapshot> snapshot = daemon.tenant_metrics(tenant);
      if (!snapshot) return error_response(snapshot.status());
      return ok_with(ok_response().set("metrics", obs::to_json(snapshot.value())));
    }
    return ok_with(ok_response().set("metrics", obs::to_json(daemon.metrics())));
  }
  if (type == "events") {
    const Result<std::uint64_t> cursor = field<std::uint64_t>(request, "cursor", 0);
    if (!cursor) return error_response(cursor.status());
    const Result<std::size_t> max = field<std::size_t>(request, "max", 256);
    if (!max) return error_response(max.status());
    const EventJournal::Drain drain =
        daemon.journal().since(cursor.value(), tenant, max.value());
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
    const Result<std::uint64_t> cursor = field<std::uint64_t>(
        request, "cursor", daemon.journal().emitted());
    if (!cursor) return error_response(cursor.status());
    const std::uint64_t start = cursor.value();
    if (watch != nullptr) {
      watch->requested = true;
      watch->tenant = tenant;
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
    const Result<bool> drain = field<bool>(request, "drain", true);
    if (!drain) return error_response(drain.status());
    daemon.shutdown(drain.value());
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
