#include "exec/fluid_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/operator_schedule.h"
#include "core/tree_schedule.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::MakeOp;
using testing_util::MakeUnitOp;
using testing_util::PlanFixture;

TEST(FluidSimulatorTest, EmptyScheduleTakesZeroTime) {
  FluidSimulator sim;
  Schedule s(3, 2);
  auto result = sim.SimulatePhase(s);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->makespan, 0.0);
}

TEST(FluidSimulatorTest, SingleCloneRunsAtItsSequentialTime) {
  OverlapUsageModel usage(0.4);
  FluidSimulator sim;
  Schedule s(2, 2);
  auto op = MakeUnitOp(0, {6.0, 2.0}, usage);
  ASSERT_TRUE(s.Place(op, 0, 0).ok());
  auto result = sim.SimulatePhase(s);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->makespan, usage.SequentialTime({6.0, 2.0}), 1e-9);
  EXPECT_NEAR(result->clone_finish[0], result->makespan, 1e-9);
}

TEST(FluidSimulatorTest, OptimalStretchRealizesEquation2) {
  // The paper's squeeze example: clones (22,[10,15]) and (10,[10,5]) share
  // a site and both finish at 22.
  OverlapUsageModel usage(0.3);
  FluidSimulator sim(SharingPolicy::kOptimalStretch);
  Schedule s(1, 2);
  ASSERT_TRUE(s.Place(MakeUnitOp(0, {10.0, 15.0}, usage), 0, 0).ok());
  ASSERT_TRUE(s.Place(MakeUnitOp(1, {10.0, 5.0}, usage), 0, 0).ok());
  auto result = sim.SimulatePhase(s);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->makespan, 22.0, 1e-9);
  EXPECT_NEAR(result->makespan, s.Makespan(), 1e-9);
}

TEST(FluidSimulatorTest, OptimalStretchMatchesAnalyticOnRandomSchedules) {
  OverlapUsageModel usage(0.5);
  FluidSimulator sim;
  std::vector<ParallelizedOp> ops;
  for (int i = 0; i < 9; ++i) {
    ops.push_back(MakeOp(
        i,
        {{1.0 + i, 9.0 - i, 2.0}, {0.5 * i, 3.0, 1.0 + i}},
        usage));
  }
  auto schedule = OperatorSchedule(ops, 4, 3);
  ASSERT_TRUE(schedule.ok());
  auto result = sim.SimulatePhase(*schedule);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->makespan, schedule->Makespan(), 1e-6);
  // Per-site agreement with eq. (2).
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(result->sites[static_cast<size_t>(j)].finish,
                schedule->SiteTime(j), 1e-6);
  }
}

TEST(FluidSimulatorTest, BusyTimeEqualsWorkVectors) {
  OverlapUsageModel usage(0.5);
  FluidSimulator sim;
  Schedule s(1, 2);
  ASSERT_TRUE(s.Place(MakeUnitOp(0, {4.0, 6.0}, usage), 0, 0).ok());
  ASSERT_TRUE(s.Place(MakeUnitOp(1, {3.0, 1.0}, usage), 0, 0).ok());
  auto result = sim.SimulatePhase(s);
  ASSERT_TRUE(result.ok());
  // Fluid execution conserves work: busy time = sum of vectors.
  EXPECT_NEAR(result->sites[0].busy[0], 7.0, 1e-9);
  EXPECT_NEAR(result->sites[0].busy[1], 7.0, 1e-9);
}

TEST(FluidSimulatorTest, UniformSlowdownNeverFasterThanOptimal) {
  OverlapUsageModel usage(0.3);
  FluidSimulator optimal(SharingPolicy::kOptimalStretch);
  FluidSimulator uniform(SharingPolicy::kUniformSlowdown);
  std::vector<ParallelizedOp> ops;
  for (int i = 0; i < 6; ++i) {
    ops.push_back(
        MakeUnitOp(i, {2.0 + i, 8.0 - i, 1.0 + 0.5 * i}, usage));
  }
  auto schedule = OperatorSchedule(ops, 2, 3);
  ASSERT_TRUE(schedule.ok());
  auto fast = optimal.SimulatePhase(*schedule);
  auto slow = uniform.SimulatePhase(*schedule);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_GE(slow->makespan + 1e-9, fast->makespan);
}

TEST(FluidSimulatorTest, UniformSlowdownAloneCloneUnaffected) {
  OverlapUsageModel usage(0.5);
  FluidSimulator sim(SharingPolicy::kUniformSlowdown);
  Schedule s(1, 2);
  auto op = MakeUnitOp(0, {5.0, 3.0}, usage);
  ASSERT_TRUE(s.Place(op, 0, 0).ok());
  auto result = sim.SimulatePhase(s);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->makespan, op.t_par, 1e-9);
}

TEST(FluidSimulatorTest, UniformSlowdownConservesWork) {
  OverlapUsageModel usage(0.2);
  FluidSimulator sim(SharingPolicy::kUniformSlowdown);
  Schedule s(1, 2);
  ASSERT_TRUE(s.Place(MakeUnitOp(0, {4.0, 6.0}, usage), 0, 0).ok());
  ASSERT_TRUE(s.Place(MakeUnitOp(1, {5.0, 2.0}, usage), 0, 0).ok());
  auto result = sim.SimulatePhase(s);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->sites[0].busy[0], 9.0, 1e-6);
  EXPECT_NEAR(result->sites[0].busy[1], 8.0, 1e-6);
}

TEST(FluidSimulatorTest, FullPlanSimulationMatchesTreeSchedule) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  MachineConfig machine;
  machine.num_sites = 12;
  auto plan = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                           machine, usage);
  ASSERT_TRUE(plan.ok());
  FluidSimulator sim;
  auto result = sim.Simulate(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->response_time, plan->response_time, 1e-6);
  EXPECT_EQ(result->phases.size(), plan->phases.size());
  // Utilization is a fraction of capacity.
  for (size_t r = 0; r < result->average_utilization.dim(); ++r) {
    EXPECT_GE(result->average_utilization[r], 0.0);
    EXPECT_LE(result->average_utilization[r], 1.0 + 1e-9);
  }
}

TEST(FluidSimulatorTest, DisjointResidentQueriesKeepTheirOwnMakespans) {
  // Two queries resident in the same simulated phase, but on disjoint
  // sites: interleaving their completions must reproduce each query's
  // standalone makespan and per-clone finish times exactly.
  OverlapUsageModel usage(0.4);
  FluidSimulator sim(SharingPolicy::kOptimalStretch);

  // Query A occupies sites 0 and 1, query B sites 2 and 3.
  const std::vector<std::pair<ParallelizedOp, int>> a_clones = {
      {MakeUnitOp(0, {6.0, 2.0}, usage), 0},
      {MakeUnitOp(1, {3.0, 5.0}, usage), 0},
      {MakeUnitOp(2, {4.0, 4.0}, usage), 1},
  };
  const std::vector<std::pair<ParallelizedOp, int>> b_clones = {
      {MakeUnitOp(3, {1.0, 2.0}, usage), 2},
      {MakeUnitOp(4, {2.0, 1.5}, usage), 3},
      {MakeUnitOp(5, {0.5, 0.5}, usage), 3},
  };

  Schedule only_a(4, 2);
  Schedule only_b(4, 2);
  Schedule both(4, 2);
  for (const auto& [op, site] : a_clones) {
    ASSERT_TRUE(only_a.Place(op, 0, site).ok());
    ASSERT_TRUE(both.Place(op, 0, site).ok());
  }
  for (const auto& [op, site] : b_clones) {
    ASSERT_TRUE(only_b.Place(op, 0, site).ok());
    ASSERT_TRUE(both.Place(op, 0, site).ok());
  }

  auto sim_a = sim.SimulatePhase(only_a);
  auto sim_b = sim.SimulatePhase(only_b);
  auto sim_both = sim.SimulatePhase(both);
  ASSERT_TRUE(sim_a.ok());
  ASSERT_TRUE(sim_b.ok());
  ASSERT_TRUE(sim_both.ok());

  // B is strictly shorter than A, so completions genuinely interleave.
  ASSERT_LT(sim_b->makespan, sim_a->makespan);
  EXPECT_DOUBLE_EQ(sim_both->makespan,
                   std::max(sim_a->makespan, sim_b->makespan));
  ASSERT_EQ(sim_both->clone_finish.size(),
            sim_a->clone_finish.size() + sim_b->clone_finish.size());
  for (size_t i = 0; i < sim_a->clone_finish.size(); ++i) {
    EXPECT_DOUBLE_EQ(sim_both->clone_finish[i], sim_a->clone_finish[i]);
  }
  for (size_t i = 0; i < sim_b->clone_finish.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        sim_both->clone_finish[sim_a->clone_finish.size() + i],
        sim_b->clone_finish[i]);
  }
}

// Regression: an empty plan used to fabricate a dim-1 zero-phase result
// (the machine's true dimensionality is unknowable without a phase). It
// is now rejected outright.
TEST(FluidSimulatorTest, RejectsPlanWithNoPhases) {
  FluidSimulator sim;
  TreeScheduleResult empty_plan;
  auto result = sim.Simulate(empty_plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(FluidSimulatorTest, RejectsInconsistentCloneTimes) {
  FluidSimulator sim;
  Schedule s(1, 2);
  ParallelizedOp bogus;
  bogus.op_id = 0;
  bogus.degree = 1;
  bogus.clones = {WorkVector({10.0, 10.0})};
  bogus.t_seq = {1.0};  // below the max-component floor
  bogus.t_par = 1.0;
  ASSERT_TRUE(s.Place(bogus, 0, 0).ok());
  EXPECT_FALSE(sim.SimulatePhase(s).ok());
}

}  // namespace
}  // namespace mrs
