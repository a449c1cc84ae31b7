// Tests of the benchmark's statistics and ladder decisions on fixed
// synthetic samples. Runs without a test framework so the benchmark
// package builds on its own:  ctest --test-dir .bench_build
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)
#define CHECK_NEAR(a, b, tol) Check(std::fabs((a) - (b)) <= (tol), #a " ~ " #b, __LINE__)

using namespace perfbench;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestMedianAndQuartiles() {
  CHECK(Median({}) == 0.0);
  CHECK(Median({3.0}) == 3.0);
  CHECK(Median({4.0, 1.0, 3.0}) == 3.0);
  CHECK(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  auto q = Quartiles(OneTo(10));
  CHECK_NEAR(q[0], 2.75, 1e-12);
  CHECK_NEAR(q[1], 8.25, 1e-12);
  // statistics.quantiles([7, 1, 3, 5], n=4) == [1.5, 4.0, 6.5]
  q = Quartiles({7.0, 1.0, 3.0, 5.0});
  CHECK_NEAR(q[0], 1.5, 1e-12);
  CHECK_NEAR(q[1], 6.5, 1e-12);
  // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
  q = Quartiles({2.0, 4.0});
  CHECK_NEAR(q[0], 1.5, 1e-12);
  CHECK_NEAR(q[1], 4.5, 1e-12);
}

void TestPercentileAndTail() {
  const std::vector<double> v = OneTo(100);
  CHECK(Percentile(v, 0.5) == 50.0);
  CHECK(Percentile(v, 0.99) == 99.0);
  CHECK(Percentile(v, 1.0) == 100.0);
  CHECK(Percentile({}, 0.5) == 0.0);

  // At least ten samples must lie beyond the chosen percentile.
  CHECK(TailQuantile(19) == 0.0);
  CHECK(TailQuantile(20) == 0.50);
  CHECK(TailQuantile(99) == 0.50);
  CHECK(TailQuantile(100) == 0.90);
  CHECK(TailQuantile(199) == 0.90);
  CHECK(TailQuantile(200) == 0.95);
  CHECK(TailQuantile(999) == 0.95);
  CHECK(TailQuantile(1000) == 0.99);
  CHECK(TailQuantile(10000) == 0.999);
  for (size_t n : {20u, 150u, 1000u, 4321u, 20000u}) {
    const double q = TailQuantile(n);
    CHECK(static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9);
  }

  const Tail t = TailOf(OneTo(1000));
  CHECK(t.quantile == 0.99);
  CHECK(t.value == 990.0);
  CHECK(TailOf(OneTo(10)).quantile == 0.0);
}

void TestBlockedLatency() {
  // Pooled.
  LatencySummary pooled = BlockedLatency(OneTo(100), 0);
  CHECK(pooled.blocks == 1);
  CHECK(pooled.p50 == 50.5);
  CHECK(pooled.tail.quantile == 0.90 && pooled.tail.value == 90.0);

  // Four blocks of 200; one slow block (every value x10) moves neither
  // the median of medians nor the median of tails.
  std::vector<double> v;
  for (int b = 0; b < 4; ++b) {
    for (int i = 1; i <= 200; ++i) v.push_back(b == 2 ? 10.0 * i : i);
  }
  LatencySummary s = BlockedLatency(v, 200);
  CHECK(s.blocks == 4);
  CHECK(s.p50 == 100.5);
  CHECK(s.tail.quantile == 0.95);
  CHECK(s.tail.value == 190.0);

  // A short remainder joins the last block.
  v.push_back(1e6);
  s = BlockedLatency(v, 200);
  CHECK(s.blocks == 4);
  CHECK(s.tail.quantile == 0.95);
}

void TestGeomean() {
  CHECK_NEAR(Geomean({1.0, 100.0}), 10.0, 1e-9);
  CHECK_NEAR(Geomean({2.0, 8.0, 4.0}), 4.0, 1e-9);
  CHECK(Geomean({}) == 0.0);
  CHECK(Geomean({1.0, 0.0}) == 0.0);
  CHECK_NEAR(Mean({1.0, 2.0, 6.0}), 3.0, 1e-12);
}

void TestBacklogAndRung() {
  // Flat, noisy queue: not growing.
  CHECK(!BacklogGrowing({3, 5, 2, 4, 6, 3, 4, 5, 2}, 4.0));
  // Steady climb: growing.
  CHECK(BacklogGrowing({1, 5, 9, 14, 20, 25, 30, 36, 41}, 4.0));
  // Climb smaller than the slack: not growing.
  CHECK(!BacklogGrowing({1, 2, 2, 3, 3, 4, 4, 5, 5}, 4.0));
  CHECK(!BacklogGrowing({1, 100}, 4.0));  // too few samples to judge

  CHECK(RungPasses(10.0, 20.0, false, 0));
  CHECK(RungPasses(20.0, 20.0, false, 0));
  CHECK(!RungPasses(20.5, 20.0, false, 0));
  CHECK(!RungPasses(10.0, 20.0, true, 0));
  CHECK(!RungPasses(10.0, 20.0, false, 1));
}

void TestLadderSearch() {
  RateLadder ladder;
  ladder.base = 10.0;
  ladder.step = 1.05;
  ladder.rungs = 50;
  CHECK_NEAR(ladder.Rate(0), 10.0, 1e-12);
  CHECK_NEAR(ladder.Rate(2), 11.025, 1e-9);
  // Steps finer than a 20% bound.
  CHECK(ladder.step - 1.0 < 0.2);

  for (double capacity : {5.0, 10.0, 37.0, 60.0, 500.0}) {
    int trials = 0;
    auto trial = [&](int i) {
      ++trials;
      return ladder.Rate(i) <= capacity;
    };
    const int best = HighestPassingRung(0, ladder.rungs, trial);
    int expect = -1;
    for (int i = 0; i < ladder.rungs; ++i) {
      if (ladder.Rate(i) <= capacity) expect = i;
    }
    CHECK(best == expect);
    CHECK(trials <= 6);  // ceil(log2(51))
  }
  // A bracket: the answer when it lies inside, first - 1 below it, and
  // last - 1 above it.
  auto below = [&](double cap) {
    return [&ladder, cap](int i) { return ladder.Rate(i) <= cap; };
  };
  CHECK(HighestPassingRung(10, 20, below(ladder.Rate(14))) == 14);
  CHECK(HighestPassingRung(10, 20, below(ladder.Rate(3))) == 9);
  CHECK(HighestPassingRung(10, 20, below(ladder.Rate(40))) == 19);

  CHECK(RungNear(ladder, 10.0) == 0);
  CHECK(RungNear(ladder, ladder.Rate(7) * 1.01) == 7);
  CHECK(RungNear(ladder, 1.0) == 0);
  CHECK(RungNear(ladder, 1e9) == ladder.rungs - 1);
}

}  // namespace

int main() {
  TestMedianAndQuartiles();
  TestPercentileAndTail();
  TestBlockedLatency();
  TestGeomean();
  TestBacklogAndRung();
  TestLadderSearch();
  if (failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
