// Peak resident set size of this process: read from /proc/self/status,
// reset through /proc/self/clear_refs.
#pragma once

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace perfbench {

/// The VmHWM ("high water mark" RSS) field of a /proc/<pid>/status text,
/// in KiB; nullopt when the field is missing or malformed.
inline std::optional<double> parse_vm_hwm_kib(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t end = status.find('\n', pos);
    if (end == std::string_view::npos) end = status.size();
    const std::string_view line = status.substr(pos, end - pos);
    pos = end + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    std::istringstream fields{std::string(line.substr(kKey.size()))};
    double value = 0.0;
    std::string unit;
    if (!(fields >> value >> unit) || unit != "kB" || value < 0.0) {
      return std::nullopt;
    }
    return value;
  }
  return std::nullopt;
}

/// Peak RSS of the calling process in MiB; nullopt when /proc is
/// unavailable.
inline std::optional<double> peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<double> kib = parse_vm_hwm_kib(text.str());
  if (!kib) return std::nullopt;
  return *kib / 1024.0;
}

/// Lowers the calling process's peak RSS to its current RSS (Linux
/// clear_refs value 5), so a later peak_rss_mib() covers only what runs
/// after the call; false when the kernel does not allow it.
inline bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
