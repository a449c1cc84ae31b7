#include "core/operator_schedule.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "oracles/operator_schedule_oracle.h"
#include "resource/usage_model.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::ListScheduleLowerBound;
using testing_util::MakeOp;
using testing_util::MakeUnitOp;

TEST(OperatorScheduleTest, EmptyInput) {
  auto s = OperatorSchedule({}, 4, 2);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s->Makespan(), 0.0);
}

TEST(OperatorScheduleTest, SingleOpLandsSomewhere) {
  OverlapUsageModel usage(0.5);
  auto s = OperatorSchedule({MakeUnitOp(0, {4.0, 2.0}, usage)}, 3, 2);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->num_placements(), 1);
  EXPECT_NEAR(s->Makespan(), usage.SequentialTime({4.0, 2.0}), 1e-12);
}

TEST(OperatorScheduleTest, BalancesIdenticalUnitOps) {
  // 4 identical single-clone ops on 4 sites: perfect spread, one per site.
  OverlapUsageModel usage(0.5);
  std::vector<ParallelizedOp> ops;
  for (int i = 0; i < 4; ++i) ops.push_back(MakeUnitOp(i, {2.0, 2.0}, usage));
  auto s = OperatorSchedule(ops, 4, 2);
  ASSERT_TRUE(s.ok());
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(s->SitePlacements(j).size(), 1u);
  }
  EXPECT_NEAR(s->Makespan(), usage.SequentialTime({2.0, 2.0}), 1e-12);
}

TEST(OperatorScheduleTest, ExploitsComplementaryResourceNeeds) {
  // A CPU-heavy and a disk-heavy op share one site without congestion
  // (the multi-dimensional advantage over scalar packing): [10,0] + [0,10]
  // fit in max(T_seq) rather than 20.
  OverlapUsageModel usage(1.0);  // perfect overlap: T_seq = max
  std::vector<ParallelizedOp> ops = {
      MakeUnitOp(0, {10.0, 0.0}, usage),
      MakeUnitOp(1, {0.0, 10.0}, usage),
  };
  auto s = OperatorSchedule(ops, 1, 2);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s->Makespan(), 10.0, 1e-12);
}

TEST(OperatorScheduleTest, ConstraintAHonored) {
  // One op with 3 clones on 3 sites: every site exactly one clone.
  OverlapUsageModel usage(0.5);
  auto op = MakeOp(0, {{2.0, 1.0}, {2.0, 1.0}, {2.0, 1.0}}, usage);
  auto s = OperatorSchedule({op}, 3, 2);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->Validate({op}).ok());
  std::vector<int> home = s->HomeOf(0);
  std::sort(home.begin(), home.end());
  EXPECT_EQ(home, (std::vector<int>{0, 1, 2}));
}

TEST(OperatorScheduleTest, DegreeBeyondSitesIsRejected) {
  OverlapUsageModel usage(0.5);
  auto op = MakeOp(0, {{1.0, 1.0}, {1.0, 1.0}}, usage);
  EXPECT_EQ(OperatorSchedule({op}, 1, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OperatorScheduleTest, RootedOpsPrePlaced) {
  OverlapUsageModel usage(0.5);
  auto rooted = MakeOp(0, {{5.0, 5.0}, {5.0, 5.0}}, usage, /*home=*/{1, 2});
  auto floating = MakeUnitOp(1, {4.0, 4.0}, usage);
  auto s = OperatorSchedule({rooted, floating}, 3, 2);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->HomeOf(0), (std::vector<int>{1, 2}));
  // The floating op goes to the empty site 0.
  EXPECT_EQ(s->HomeOf(1), (std::vector<int>{0}));
}

TEST(OperatorScheduleTest, LeastLoadedPicksLightestAllowableSite) {
  OverlapUsageModel usage(0.5);
  // Pre-load sites 0 and 1 via a rooted op; the next clone must land on 2.
  auto rooted = MakeOp(0, {{9.0, 9.0}, {6.0, 6.0}}, usage, /*home=*/{0, 1});
  auto floating = MakeUnitOp(1, {1.0, 1.0}, usage);
  auto s = OperatorSchedule({rooted, floating}, 3, 2);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->HomeOf(1), (std::vector<int>{2}));
}

TEST(OperatorScheduleTest, ListOrderIsLongestFirst) {
  // With decreasing-length order, the two big clones go to separate empty
  // sites before the small ones fill in; the greedy result is optimal
  // here. Input order instead stacks badly.
  OverlapUsageModel usage(1.0);
  std::vector<ParallelizedOp> ops = {
      MakeUnitOp(0, {1.0, 0.0}, usage), MakeUnitOp(1, {1.0, 0.0}, usage),
      MakeUnitOp(2, {1.0, 0.0}, usage), MakeUnitOp(3, {1.0, 0.0}, usage),
      MakeUnitOp(4, {4.0, 0.0}, usage), MakeUnitOp(5, {4.0, 0.0}, usage),
  };
  auto s = OperatorSchedule(ops, 2, 2);
  ASSERT_TRUE(s.ok());
  // Optimal: each site gets one big (4) + two small (1+1) = 6.
  EXPECT_NEAR(s->Makespan(), 6.0, 1e-12);
}

TEST(OperatorScheduleTest, DeterministicAcrossRuns) {
  OverlapUsageModel usage(0.5);
  Rng rng(99);
  std::vector<ParallelizedOp> ops;
  for (int i = 0; i < 20; ++i) {
    ops.push_back(MakeUnitOp(
        i, {rng.UniformDouble(0, 10), rng.UniformDouble(0, 10)}, usage));
  }
  auto a = OperatorSchedule(ops, 5, 2);
  auto b = OperatorSchedule(ops, 5, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_placements(), b->num_placements());
  for (int i = 0; i < a->num_placements(); ++i) {
    EXPECT_EQ(a->placements()[static_cast<size_t>(i)].site,
              b->placements()[static_cast<size_t>(i)].site);
  }
}

TEST(OperatorScheduleTest, AlternativeOrdersStillValid) {
  OverlapUsageModel usage(0.5);
  Rng rng(7);
  std::vector<ParallelizedOp> ops;
  for (int i = 0; i < 12; ++i) {
    ops.push_back(MakeOp(
        i,
        {{rng.UniformDouble(0, 5), rng.UniformDouble(0, 5)},
         {rng.UniformDouble(0, 5), rng.UniformDouble(0, 5)}},
        usage));
  }
  for (ListOrder order :
       {ListOrder::kIncreasingLength, ListOrder::kInputOrder,
        ListOrder::kRandom}) {
    OperatorScheduleOptions options;
    options.order = order;
    options.shuffle_seed = 3;
    auto s = OperatorSchedule(ops, 4, 2, options);
    ASSERT_TRUE(s.ok());
    EXPECT_TRUE(s->Validate(ops).ok());
  }
  OperatorScheduleOptions ff;
  ff.site_choice = SiteChoice::kFirstAllowable;
  auto s = OperatorSchedule(ops, 4, 2, ff);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->Validate(ops).ok());
}

/// Both schedulers under test: the production (indexed) placement and
/// the linear-scan oracle.
constexpr decltype(&OperatorSchedule) kEngines[] = {
    &oracle::LinearScanOperatorSchedule, &OperatorSchedule};

/// Tie-break contract for kLeastLoaded: among equal-load allowable sites
/// the lowest-numbered site wins, identically on the reference linear
/// scan and the indexed placement engine.
TEST(OperatorScheduleTest, TieBreaksToLowestIndexOnBothEngines) {
  OverlapUsageModel usage(0.5);
  for (size_t use_index = 0; use_index < 2; ++use_index) {
    const auto schedule = kEngines[use_index];
    OperatorScheduleOptions options;

    // All four sites empty and equal: a degree-2 op takes sites 0 then 1
    // (constraint A excludes 0 for the second clone).
    auto even = MakeOp(0, {{2.0, 2.0}, {2.0, 2.0}}, usage);
    auto s = schedule({even}, 4, 2, options);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->HomeOf(0), (std::vector<int>{0, 1})) << "index=" << use_index;

    // Rooted preload leaves sites 0 and 2 tied at zero: the floating op
    // lands on 0, not 2.
    auto rooted = MakeOp(0, {{5.0, 5.0}, {5.0, 5.0}}, usage, /*home=*/{1, 3});
    auto floating = MakeUnitOp(1, {1.0, 1.0}, usage);
    s = schedule({rooted, floating}, 4, 2, options);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->HomeOf(1), (std::vector<int>{0})) << "index=" << use_index;
  }
}

/// Same contract on the base_load branch (the online scheduler's residual
/// path): ties in l(base[s] + work(s)) resolve to the lowest site index on
/// both engines.
TEST(OperatorScheduleTest, TieBreaksToLowestIndexWithBaseLoad) {
  OverlapUsageModel usage(0.5);
  const std::vector<WorkVector> base = {
      {3.0, 3.0}, {0.0, 0.0}, {3.0, 3.0}, {0.0, 0.0}};
  for (size_t use_index = 0; use_index < 2; ++use_index) {
    const auto schedule = kEngines[use_index];
    OperatorScheduleOptions options;
    options.base_load = &base;

    // Sites 1 and 3 are tied least-loaded: a degree-2 op takes 1 then 3.
    auto op = MakeOp(0, {{1.0, 1.0}, {1.0, 1.0}}, usage);
    auto s = schedule({op}, 4, 2, options);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->HomeOf(0), (std::vector<int>{1, 3})) << "index=" << use_index;

    // After op 0 lands, sites 1 and 3 are tied again at l = 1 (below the
    // base-3 sites): the follow-up unit op, free of constraint A against
    // op 0, must resolve the fresh tie to the lower index 1.
    auto follow = MakeUnitOp(1, {1.0, 1.0}, usage);
    s = schedule({op, follow}, 4, 2, options);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->HomeOf(0), (std::vector<int>{1, 3})) << "index=" << use_index;
    EXPECT_EQ(s->HomeOf(1), (std::vector<int>{1})) << "index=" << use_index;
  }
}

TEST(OperatorScheduleTest, MakespanNeverBelowLowerBound) {
  OverlapUsageModel usage(0.3);
  Rng rng(21);
  std::vector<ParallelizedOp> ops;
  for (int i = 0; i < 15; ++i) {
    std::vector<WorkVector> clones(
        static_cast<size_t>(1 + rng.Index(3)),
        WorkVector({rng.UniformDouble(0, 8), rng.UniformDouble(0, 8),
                    rng.UniformDouble(0, 8)}));
    ops.push_back(MakeOp(i, std::move(clones), usage));
  }
  auto s = OperatorSchedule(ops, 6, 3);
  ASSERT_TRUE(s.ok());
  EXPECT_GE(s->Makespan() + 1e-9, ListScheduleLowerBound(ops, 6));
}

/// Theorem 5.1(a) property: for random instances, the list schedule is
/// within (2d+1) of LB <= OPT for the given parallelization. Swept over
/// dimensionality and machine size.
class ListBoundPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(ListBoundPropertyTest, WithinTwoDPlusOneOfLowerBound) {
  const auto [d, p, seed] = GetParam();
  OverlapUsageModel usage(0.5);
  Rng rng(seed);
  std::vector<ParallelizedOp> ops;
  const int m = 4 + static_cast<int>(rng.Index(12));
  for (int i = 0; i < m; ++i) {
    const int degree = 1 + static_cast<int>(rng.Index(
                               static_cast<size_t>(std::min(p, 4))));
    std::vector<WorkVector> clones;
    for (int k = 0; k < degree; ++k) {
      WorkVector w(static_cast<size_t>(d));
      for (int r = 0; r < d; ++r) {
        w[static_cast<size_t>(r)] = rng.UniformDouble(0.0, 10.0);
      }
      clones.push_back(std::move(w));
    }
    ops.push_back(MakeOp(i, std::move(clones), usage));
  }
  auto s = OperatorSchedule(ops, p, d);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(s->Validate(ops).ok());
  const double lb = ListScheduleLowerBound(ops, p);
  EXPECT_LE(s->Makespan(), (2.0 * d + 1.0) * lb + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListBoundPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(2, 4, 8, 16),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace mrs
