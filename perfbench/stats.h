// Summary statistics and load-ladder decisions of the benchmark. Pure
// functions over sample vectors, header-only so stats_test.cc exercises
// exactly the code perfbench_driver uses.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(v, n=4) — the rule the spread of repeated runs is
/// judged by. Needs at least two values; returns {0, 0} otherwise.
inline std::array<double, 2> Quartiles(std::vector<double> v) {
  if (v.size() < 2) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const double m = static_cast<double>(v.size()) + 1.0;
  auto at = [&](int i) {  // i-th cut point of 4, i in {1, 3}
    const double pos = i * m / 4.0;  // 1-based position
    const int j = std::clamp(static_cast<int>(std::floor(pos)), 1,
                             static_cast<int>(v.size()) - 1);
    const double delta = pos - j;
    return v[j - 1] + (v[j] - v[j - 1]) * delta;
  };
  return {at(1), at(3)};
}

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it (q in (0, 1]). 0 when empty.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

/// The tail percentile a sample of `n` supports: the highest of the fixed
/// ladder {99.9, 99, 95, 90, 50} with at least ten samples beyond it
/// (n * (1 - q) >= 10). A fixed ladder keeps the tail metric comparable
/// between runs of similar size. Returns 0 when even p50 lacks support.
inline double TailQuantile(size_t n) {
  constexpr std::array<double, 5> kLadder = {0.999, 0.99, 0.95, 0.90, 0.50};
  for (double q : kLadder) {
    // The slack absorbs rounding: 1000 * (1 - 0.99) is 9.99999...
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.0;
}

struct Tail {
  double quantile = 0.0;  ///< e.g. 0.99; 0 when unsupported
  double value = 0.0;
};

/// Value at TailQuantile(v.size()); {0, 0} when fewer than 20 samples.
inline Tail TailOf(const std::vector<double>& v) {
  const double q = TailQuantile(v.size());
  if (q == 0.0) return {};
  return {q, Percentile(v, q)};
}

struct LatencySummary {
  double p50 = 0.0;
  Tail tail;
  size_t blocks = 0;
};

/// Latency summary robust to bursts of outside interference: `v` (in time
/// order) is cut into consecutive blocks of `block` samples (a short last
/// block joins the one before), and the result is the median over blocks
/// of each block's median and of each block's tail. A burst that slows
/// one block moves neither. block == 0 (or >= v.size()) pools everything.
inline LatencySummary BlockedLatency(const std::vector<double>& v,
                                     size_t block) {
  if (block == 0 || block >= v.size()) {
    return {Median(v), TailOf(v), v.empty() ? 0u : 1u};
  }
  std::vector<double> medians, tails;
  LatencySummary out;
  const size_t n = v.size() / block;
  for (size_t b = 0; b < n; ++b) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto end = b + 1 == n ? v.end()
                                : begin + static_cast<std::ptrdiff_t>(block);
    const std::vector<double> part(begin, end);
    medians.push_back(Median(part));
    const Tail t = TailOf(part);
    tails.push_back(t.value);
    // Blocks differ in size only by the remainder; the first block's
    // quantile is every block's unless the remainder crosses a rung.
    if (b == 0) out.tail.quantile = t.quantile;
  }
  out.p50 = Median(medians);
  out.tail.value = Median(tails);
  out.blocks = n;
  return out;
}

/// Geometric mean of positive values; 0 when empty or any value <= 0.
inline double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The fixed open-loop rate ladder: rung i offers base * step^i requests/s.
struct RateLadder {
  double base = 40.0;
  double step = 1.04;
  int rungs = 80;

  double Rate(int i) const { return base * std::pow(step, i); }
};

/// Backlog growth over one rung: `outstanding` holds the count of sent but
/// unanswered requests sampled at even intervals of the send window. The
/// backlog grows when the last third's median exceeds the first third's by
/// more than `slack` requests. A stable queue fluctuates around its mean;
/// an overloaded one climbs for the whole window.
inline bool BacklogGrowing(const std::vector<double>& outstanding,
                           double slack) {
  const size_t n = outstanding.size();
  if (n < 3) return false;
  const size_t third = n / 3;
  const std::vector<double> first(outstanding.begin(),
                                  outstanding.begin() + third);
  const std::vector<double> last(outstanding.end() - third, outstanding.end());
  return Median(last) - Median(first) > slack;
}

/// A rung passes when every request succeeded, its p99 latency (from the
/// due time) meets the limit, and the backlog did not grow.
inline bool RungPasses(double p99_ms, double limit_ms, bool backlog_growing,
                       int failed) {
  return failed == 0 && p99_ms <= limit_ms && !backlog_growing;
}

/// Highest rung in [first, last) whose trial passes, by binary search
/// (capacity is monotone in the offered rate up to noise); first - 1 when
/// even rung `first` fails. `trial(i)` runs rung i and reports whether it
/// passed.
inline int HighestPassingRung(int first, int last,
                              const std::function<bool(int)>& trial) {
  int lo = first - 1, hi = last;  // lo passes (or is below), hi fails
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (trial(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The rung whose rate is closest to `rate`, clamped to the ladder.
inline int RungNear(const RateLadder& ladder, double rate) {
  if (!(rate > 0)) return 0;
  const int i = static_cast<int>(
      std::lround(std::log(rate / ladder.base) / std::log(ladder.step)));
  return std::clamp(i, 0, ladder.rungs - 1);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
