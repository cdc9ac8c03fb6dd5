// Sample statistics for the replay benchmark: percentiles and the
// "highest percentile with at least ten samples beyond it" rule every
// timing in this benchmark is reported with.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentile `pct` (0..100) of `sorted` (ascending), interpolating
/// linearly between closest ranks: rank = pct/100 * (n - 1). 0 when
/// empty.
inline double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = std::clamp(pct, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Percentile of an unsorted sample (copies and sorts).
inline double percentile(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, pct);
}

/// The highest of the standard reporting percentiles (99.9, 99, 95, 90,
/// 75) that leaves at least `beyond` samples above it in a sample of
/// `n`; 50 when even p75 does not.
inline double tail_percentile(std::size_t n, std::size_t beyond = 10) {
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    // Compared in hundredths, with slack for the inexact 100 - 99.9.
    if (static_cast<double>(n) * (100.0 - pct) + 1e-6 >=
        static_cast<double>(beyond) * 100.0) {
      return pct;
    }
  }
  return 50.0;
}

/// A growing sample of one timing (or any value).
class Distribution {
 public:
  void add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] double sum() const {
    double total = 0.0;
    for (const double v : values_) total += v;
    return total;
  }
  [[nodiscard]] double mean() const {
    return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
  }
  /// Percentile `pct` (0..100), linear interpolation.
  [[nodiscard]] double p(double pct) const {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    return percentile_sorted(values_, pct);
  }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

}  // namespace perfbench
