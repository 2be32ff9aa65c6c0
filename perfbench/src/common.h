// Small helpers shared by the benchmark's translation units: the clock,
// order statistics, and the named-metric list every run reports.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Nearest-rank percentile: the ceil(q·N)-th smallest value (q = 0 → the
/// minimum). Returns 0 for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = q <= 0.0 ? std::size_t{1}
                             : static_cast<std::size_t>(
                                   std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(rank, values.size()) - 1];
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Share a / b, or 0 when b is 0.
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

}  // namespace perfbench
