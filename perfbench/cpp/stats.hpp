#pragma once

/// \file stats.hpp
/// \brief Order statistics and small helpers shared by the workload runners.

#include <algorithm>
#include <cstddef>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace perfbench {

/// Linear-interpolated quantile q in [0, 1] (numpy's default rule).
/// Throws on an empty sample: every reported timing must rest on data.
inline double quantile(std::vector<double> values, double q) {
  VQMC_REQUIRE(!values.empty(), "perfbench: quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double rank = q * double(values.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - double(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double mean(const std::vector<double>& values) {
  VQMC_REQUIRE(!values.empty(), "perfbench: mean of an empty sample");
  double sum = 0;
  for (double v : values) sum += v;
  return sum / double(values.size());
}

/// Name suffix of a tail level, e.g. 0.9 -> "p90", 0.999 -> "p99.9".
inline std::string tail_label(double q) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", q * 100);
  return buf;
}

}  // namespace perfbench
