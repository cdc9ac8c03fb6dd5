// The benchmark's own span log: one span per call into a layer's public
// function (name, start, end, parent), kept in memory and written out as
// Chrome trace-event JSON when the run ends. Per-layer timings are
// aggregated from these spans by name.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Seconds on the monotonic clock since an arbitrary origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    const char* name;  ///< Static string (span names are literals).
    std::uint32_t parent;
    double start_s;
    double end_s;
  };

  /// Opens a span; returns its id (pass to end()).
  std::uint32_t begin(const char* name, std::uint32_t parent = kNoParent) {
    spans_.push_back({name, parent, now_s(), 0.0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Closes span `id`; returns its duration in seconds.
  double end(std::uint32_t id) {
    Span& span = spans_[id];
    span.end_s = now_s();
    return span.end_s - span.start_s;
  }

  /// Durations (microseconds) of every closed span called `name`.
  [[nodiscard]] Distribution durations_us(const std::string& name) const {
    Distribution out;
    for (const Span& span : spans_) {
      if (span.end_s > 0.0 && name == span.name) {
        out.add((span.end_s - span.start_s) * 1e6);
      }
    }
    return out;
  }

  /// Writes every closed span as Chrome trace-event JSON ("X" events,
  /// microseconds from the first span; parent ids in args). Returns
  /// false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
    std::fputs("{\"traceEvents\":[", out);
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.end_s <= 0.0) continue;
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}",
                   first ? "" : ",", span.name, (span.start_s - origin) * 1e6,
                   (span.end_s - span.start_s) * 1e6, i,
                   span.parent == kNoParent ? -1LL
                                            : static_cast<long long>(span.parent));
      first = false;
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
