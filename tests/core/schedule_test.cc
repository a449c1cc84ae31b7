#include "core/schedule.h"

#include <limits>

#include <gtest/gtest.h>

#include "resource/usage_model.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::MakeOp;
using testing_util::MakeUnitOp;

TEST(ScheduleTest, EmptySchedule) {
  Schedule s(4, 2);
  EXPECT_EQ(s.num_sites(), 4);
  EXPECT_EQ(s.dims(), 2);
  EXPECT_EQ(s.num_placements(), 0);
  EXPECT_DOUBLE_EQ(s.Makespan(), 0.0);
  for (int j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(s.SiteTime(j), 0.0);
    EXPECT_DOUBLE_EQ(s.SiteLoadLength(j), 0.0);
  }
}

TEST(ScheduleTest, PlaceAccumulatesLoad) {
  OverlapUsageModel usage(0.3);
  Schedule s(2, 2);
  auto op0 = MakeUnitOp(0, {10.0, 15.0}, usage);
  auto op1 = MakeUnitOp(1, {10.0, 5.0}, usage);
  ASSERT_TRUE(s.Place(op0, 0, 0).ok());
  ASSERT_TRUE(s.Place(op1, 0, 0).ok());
  EXPECT_EQ(s.SitePlacements(0).size(), 2u);
  EXPECT_EQ(s.SiteLoad(0), WorkVector({20.0, 20.0}));
  EXPECT_DOUBLE_EQ(s.SiteLoadLength(0), 20.0);
}

TEST(ScheduleTest, SiteTimeMatchesEquation2SqueezeCase) {
  // Paper §5.2.2: clones (22,[10,15]) and (10,[10,5]) at one site -> 22.
  OverlapUsageModel usage(0.3);
  Schedule s(1, 2);
  ASSERT_TRUE(s.Place(MakeUnitOp(0, {10.0, 15.0}, usage), 0, 0).ok());
  ASSERT_TRUE(s.Place(MakeUnitOp(1, {10.0, 5.0}, usage), 0, 0).ok());
  EXPECT_NEAR(s.SiteTime(0), 22.0, 1e-12);
  EXPECT_NEAR(s.Makespan(), 22.0, 1e-12);
}

TEST(ScheduleTest, SiteTimeMatchesEquation2CongestedCase) {
  // Paper §5.2.2: (22,[10,15]) with (10,[5,10]) -> resource 2 congests: 25.
  OverlapUsageModel usage(0.3);
  Schedule s(1, 2);
  ASSERT_TRUE(s.Place(MakeUnitOp(0, {10.0, 15.0}, usage), 0, 0).ok());
  ASSERT_TRUE(s.Place(MakeUnitOp(1, {5.0, 10.0}, usage), 0, 0).ok());
  EXPECT_NEAR(s.SiteTime(0), 25.0, 1e-12);
}

TEST(ScheduleTest, MakespanIsEquation3) {
  // Eq. (3): max over sites = max(slowest op T_par, busiest resource).
  OverlapUsageModel usage(1.0);  // T_seq = max component
  Schedule s(2, 2);
  ASSERT_TRUE(s.Place(MakeUnitOp(0, {8.0, 1.0}, usage), 0, 0).ok());
  ASSERT_TRUE(s.Place(MakeUnitOp(1, {2.0, 3.0}, usage), 0, 1).ok());
  EXPECT_DOUBLE_EQ(s.SiteTime(0), 8.0);
  EXPECT_DOUBLE_EQ(s.SiteTime(1), 3.0);
  EXPECT_DOUBLE_EQ(s.Makespan(), 8.0);
}

TEST(ScheduleTest, ConstraintARejectsSameOpTwicePerSite) {
  OverlapUsageModel usage(0.5);
  Schedule s(3, 2);
  auto op = MakeOp(5, {{1.0, 1.0}, {1.0, 1.0}}, usage);
  ASSERT_TRUE(s.Place(op, 0, 1).ok());
  EXPECT_EQ(s.Place(op, 1, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(s.Place(op, 1, 2).ok());
}

TEST(ScheduleTest, RejectsDoublePlacementOfClone) {
  OverlapUsageModel usage(0.5);
  Schedule s(3, 2);
  auto op = MakeUnitOp(5, {1.0, 1.0}, usage);
  ASSERT_TRUE(s.Place(op, 0, 1).ok());
  EXPECT_EQ(s.Place(op, 0, 2).code(), StatusCode::kInvalidArgument);
}

TEST(ScheduleTest, RejectsOutOfRange) {
  OverlapUsageModel usage(0.5);
  Schedule s(2, 2);
  auto op = MakeUnitOp(0, {1.0, 1.0}, usage);
  EXPECT_EQ(s.Place(op, 0, 2).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.Place(op, 0, -1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.Place(op, 1, 0).code(), StatusCode::kOutOfRange);  // clone idx
}

TEST(ScheduleTest, RejectsDimensionMismatch) {
  OverlapUsageModel usage(0.5);
  Schedule s(2, 3);
  auto op = MakeUnitOp(0, {1.0, 1.0}, usage);
  EXPECT_EQ(s.Place(op, 0, 0).code(), StatusCode::kInvalidArgument);
}

TEST(ScheduleTest, PlaceRootedUsesHome) {
  OverlapUsageModel usage(0.5);
  Schedule s(4, 2);
  auto op = MakeOp(3, {{1.0, 2.0}, {3.0, 4.0}}, usage, /*home=*/{2, 0});
  ASSERT_TRUE(s.PlaceRooted(op).ok());
  EXPECT_EQ(s.HomeOf(3), (std::vector<int>{2, 0}));
  EXPECT_TRUE(s.HasOpAtSite(3, 2));
  EXPECT_TRUE(s.HasOpAtSite(3, 0));
  EXPECT_FALSE(s.HasOpAtSite(3, 1));
}

TEST(ScheduleTest, PlaceRootedRejectsFloating) {
  OverlapUsageModel usage(0.5);
  Schedule s(4, 2);
  auto op = MakeUnitOp(3, {1.0, 2.0}, usage);
  EXPECT_EQ(s.PlaceRooted(op).code(), StatusCode::kInvalidArgument);
}

TEST(ScheduleTest, HomeOfUnknownOpIsEmpty) {
  Schedule s(2, 2);
  EXPECT_TRUE(s.HomeOf(42).empty());
}

TEST(ScheduleTest, ValidateAcceptsCompleteSchedule) {
  OverlapUsageModel usage(0.5);
  Schedule s(3, 2);
  auto a = MakeOp(0, {{1.0, 1.0}, {2.0, 2.0}}, usage);
  auto b = MakeUnitOp(1, {3.0, 1.0}, usage);
  ASSERT_TRUE(s.Place(a, 0, 0).ok());
  ASSERT_TRUE(s.Place(a, 1, 1).ok());
  ASSERT_TRUE(s.Place(b, 0, 0).ok());
  EXPECT_TRUE(s.Validate({a, b}).ok());
}

TEST(ScheduleTest, ValidateDetectsMissingClone) {
  OverlapUsageModel usage(0.5);
  Schedule s(3, 2);
  auto a = MakeOp(0, {{1.0, 1.0}, {2.0, 2.0}}, usage);
  ASSERT_TRUE(s.Place(a, 0, 0).ok());
  EXPECT_EQ(s.Validate({a}).code(), StatusCode::kFailedPrecondition);
}

TEST(ScheduleTest, ValidateDetectsUnplacedOp) {
  OverlapUsageModel usage(0.5);
  Schedule s(3, 2);
  auto a = MakeUnitOp(0, {1.0, 1.0}, usage);
  EXPECT_EQ(s.Validate({a}).code(), StatusCode::kFailedPrecondition);
}

TEST(ScheduleTest, ValidateDetectsRootedAwayFromHome) {
  OverlapUsageModel usage(0.5);
  Schedule s(3, 2);
  auto a = MakeOp(0, {{1.0, 1.0}}, usage, /*home=*/{2});
  // Place manually at the wrong site.
  ASSERT_TRUE(s.Place(a, 0, 1).ok());
  EXPECT_EQ(s.Validate({a}).code(), StatusCode::kFailedPrecondition);
}

TEST(ScheduleTest, PlaceAtRejectsNonFiniteStart) {
  // A NaN start never compares <= the sweep's clock, so its clone would
  // never be admitted and Makespan() would loop forever.
  OverlapUsageModel usage(0.5);
  Schedule s(1, 2);
  const ParallelizedOp op = MakeUnitOp(0, {4.0, 0.0}, usage);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0}) {
    EXPECT_EQ(s.PlaceAt(op, 0, 0, bad).code(), StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(s.num_placements(), 0);
  ASSERT_TRUE(s.PlaceAt(op, 0, 0, 2.0).ok());
  EXPECT_FALSE(s.aligned());
  EXPECT_EQ(s.Makespan(), 6.0);
}

TEST(ScheduleTest, ToStringListsSites) {
  OverlapUsageModel usage(0.5);
  Schedule s(2, 2);
  ASSERT_TRUE(s.Place(MakeUnitOp(0, {1.0, 1.0}, usage), 0, 1).ok());
  const std::string str = s.ToString();
  EXPECT_NE(str.find("op0.0"), std::string::npos);
  EXPECT_NE(str.find("s1"), std::string::npos);
}

}  // namespace
}  // namespace mrs
