// Host-side statistics for the vmbench benchmark: nearest-rank percentiles
// and the highest percentile a sample count supports, ratios kept with
// their base, metric-name validation, and the FNV-1a hash behind the
// virtual fingerprint. Everything here is plain arithmetic, covered by
// `vmbench --selftest`.
#ifndef VMBENCH_METRICS_H_
#define VMBENCH_METRICS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace vmbench {

// Percentiles are written in units of 1/10000 so rank arithmetic stays in
// integers: 9900 is p99, 9990 is p99.9.
inline constexpr std::uint32_t kP50 = 5000;
inline constexpr std::uint32_t kP99 = 9900;
inline constexpr std::array<std::uint32_t, 5> kPercentileLadder = {5000, 9000, 9900, 9990, 9999};
// A tail percentile is reported only when at least this many samples lie
// beyond it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

// 1-based nearest rank of percentile `p` among `n` samples: the smallest
// rank with at least p/10000 of the samples at or below it.
inline std::size_t NearestRank(std::size_t n, std::uint32_t p) {
  const std::size_t rank = (static_cast<std::size_t>(p) * n + 9999) / 10000;
  return std::clamp<std::size_t>(rank, 1, n == 0 ? 1 : n);
}

// Samples strictly above the nearest-rank percentile `p`.
inline std::size_t SamplesBeyond(std::size_t n, std::uint32_t p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

// Nearest-rank percentile of ascending `sorted` samples (0 when empty).
inline double Percentile(const std::vector<double>& sorted, std::uint32_t p) {
  return sorted.empty() ? 0.0 : sorted[NearestRank(sorted.size(), p) - 1];
}

// The highest ladder percentile with at least kMinSamplesBeyond samples
// beyond it, or 0 when even the median has fewer.
inline std::uint32_t HighestSupportedPercentile(std::size_t n) {
  std::uint32_t best = 0;
  for (std::uint32_t p : kPercentileLadder) {
    if (SamplesBeyond(n, p) >= kMinSamplesBeyond) {
      best = p;
    }
  }
  return best;
}

// "p99", "p99.9", "p99.99": the printed name of a ladder percentile.
inline std::string PercentileName(std::uint32_t p) {
  char buf[16];
  if (p % 100 == 0) {
    std::snprintf(buf, sizeof(buf), "p%u", p / 100);
  } else if (p % 10 == 0) {
    std::snprintf(buf, sizeof(buf), "p%u.%u", p / 100, (p % 100) / 10);
  } else {
    std::snprintf(buf, sizeof(buf), "p%u.%02u", p / 100, p % 100);
  }
  return buf;
}

// A ratio that keeps its base, so it is never printed without it. An empty
// base (0/0) reads as 0.
struct Ratio {
  double num = 0;
  double den = 0;
  double value() const { return den == 0 ? 0.0 : num / den; }
};

// "0.25 (1 / 4)".
inline std::string FormatRatio(const Ratio& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.6g (%.17g / %.17g)", r.value(), r.num, r.den);
  return buf;
}

// Metric names: 1 to 64 of [A-Za-z0-9_.-], starting with a letter or digit.
inline bool IsValidMetricName(std::string_view s) {
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (s.empty() || s.size() > 64 || !alnum(s.front())) {
    return false;
  }
  return std::all_of(s.begin(), s.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

// FNV-1a, 64-bit.
class Fnv1a {
 public:
  void Add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void AddU64(std::uint64_t v) { Add(&v, sizeof(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Nearest-rank median of unsorted samples (0 when empty).
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, kP50);
}

}  // namespace vmbench

#endif  // VMBENCH_METRICS_H_
