// Tests for FluidSimulator::SimulateTimed, the arrival-aware counterpart
// of SimulatePhase. SimulatePhase bakes in the phase-alignment seed
// assumption — every clone starts at 0 — which LISTSCHEDULE's staggered
// placements break; these tests pin the failure of that assumption and
// the correctness of the generalized sweep under both sharing policies.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "exec/fluid_simulator.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::MakeUnitOp;
using testing_util::PlanFixture;

TEST(FluidTimedTest, SeedAlignmentAssumptionBreaksOnStaggeredStarts) {
  // Two 4ms CPU-only clones on one site, the second arriving only after
  // the first finishes. SimulatePhase ignores the starts and serializes
  // them from 0 (makespan 8); the timed sweep honors the idle gap
  // (finish at 4, idle to 10, finish at 14).
  OverlapUsageModel usage(0.5);
  FluidSimulator sim(SharingPolicy::kOptimalStretch);
  Schedule s(1, 2);
  ASSERT_TRUE(s.PlaceAt(MakeUnitOp(0, {4.0, 0.0}, usage), 0, 0, 0.0).ok());
  ASSERT_TRUE(s.PlaceAt(MakeUnitOp(1, {4.0, 0.0}, usage), 0, 0, 10.0).ok());

  auto aligned = sim.SimulatePhase(s);
  auto timed = sim.SimulateTimed(s);
  ASSERT_TRUE(aligned.ok());
  ASSERT_TRUE(timed.ok());
  EXPECT_DOUBLE_EQ(aligned->makespan, 8.0);  // the seed assumption's answer
  EXPECT_DOUBLE_EQ(timed->makespan, 14.0);
  EXPECT_DOUBLE_EQ(timed->clone_finish[0], 4.0);
  EXPECT_DOUBLE_EQ(timed->clone_finish[1], 14.0);
  EXPECT_NE(aligned->makespan, timed->makespan);
}

TEST(FluidTimedTest, MidWaveArrivalSqueezesResidentClone) {
  // A 4ms CPU clone runs alone; at t=2 a 4ms disk clone joins. Remaining
  // work at t=2 is (2,0)+(0,4): common completion 2 + max(2, 4) = 6.
  OverlapUsageModel usage(1.0);  // full overlap: l(W) = max component
  FluidSimulator sim(SharingPolicy::kOptimalStretch);
  Schedule s(1, 2);
  ASSERT_TRUE(s.PlaceAt(MakeUnitOp(0, {4.0, 0.0}, usage), 0, 0, 0.0).ok());
  ASSERT_TRUE(s.PlaceAt(MakeUnitOp(1, {0.0, 4.0}, usage), 0, 0, 2.0).ok());
  auto timed = sim.SimulateTimed(s);
  ASSERT_TRUE(timed.ok());
  EXPECT_DOUBLE_EQ(timed->makespan, 6.0);
  EXPECT_DOUBLE_EQ(timed->clone_finish[0], 6.0);
  EXPECT_DOUBLE_EQ(timed->clone_finish[1], 6.0);
  // Work conservation across the rebasing arithmetic.
  EXPECT_NEAR(timed->sites[0].busy[0], 4.0, 1e-9);
  EXPECT_NEAR(timed->sites[0].busy[1], 4.0, 1e-9);
  // Matches the analytic sweep of the generalized Schedule.
  EXPECT_NEAR(timed->makespan, s.SiteFinish(0), 1e-9);
}

TEST(FluidTimedTest, AlignedScheduleReproducesSimulatePhaseExactly) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  MachineConfig machine;
  machine.num_sites = 9;
  auto plan = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                           machine, usage);
  ASSERT_TRUE(plan.ok());
  for (SharingPolicy policy :
       {SharingPolicy::kOptimalStretch, SharingPolicy::kUniformSlowdown}) {
    FluidSimulator sim(policy);
    for (const PhaseSchedule& phase : plan->phases) {
      auto aligned = sim.SimulatePhase(phase.schedule);
      auto timed = sim.SimulateTimed(phase.schedule);
      ASSERT_TRUE(aligned.ok());
      ASSERT_TRUE(timed.ok());
      EXPECT_EQ(timed->makespan, aligned->makespan);
      EXPECT_EQ(timed->clone_finish, aligned->clone_finish);
      ASSERT_EQ(timed->sites.size(), aligned->sites.size());
      for (size_t j = 0; j < timed->sites.size(); ++j) {
        EXPECT_EQ(timed->sites[j].finish, aligned->sites[j].finish);
        EXPECT_EQ(timed->sites[j].busy, aligned->sites[j].busy);
      }
    }
  }
}

TEST(FluidTimedTest, StaggeredDisjointResidentQueriesKeepTheirOwnMakespans) {
  // The overlapping-residency mirror of
  // DisjointResidentQueriesKeepTheirOwnMakespans: query B now *arrives*
  // at t=3.5 while query A is mid-flight on its own disjoint sites. The
  // two queries must not interfere: A keeps its standalone timeline, B
  // keeps its standalone timeline shifted by its arrival.
  OverlapUsageModel usage(0.4);
  FluidSimulator sim(SharingPolicy::kOptimalStretch);
  const double kArrival = 3.5;

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

  Schedule only_b(4, 2);
  Schedule both(4, 2);
  for (const auto& [op, site] : a_clones) {
    ASSERT_TRUE(both.PlaceAt(op, 0, site, 0.0).ok());
  }
  for (const auto& [op, site] : b_clones) {
    ASSERT_TRUE(only_b.Place(op, 0, site).ok());
    ASSERT_TRUE(both.PlaceAt(op, 0, site, kArrival).ok());
  }

  auto sim_b = sim.SimulatePhase(only_b);
  auto sim_both = sim.SimulateTimed(both);
  ASSERT_TRUE(sim_b.ok());
  ASSERT_TRUE(sim_both.ok());

  // A's clones (placements 0..2) finish exactly as if B never arrived.
  auto sim_a_alone = [&] {
    Schedule only_a(4, 2);
    for (const auto& [op, site] : a_clones) {
      EXPECT_TRUE(only_a.Place(op, 0, site).ok());
    }
    return sim.SimulatePhase(only_a);
  }();
  ASSERT_TRUE(sim_a_alone.ok());
  for (size_t p = 0; p < a_clones.size(); ++p) {
    EXPECT_NEAR(sim_both->clone_finish[p], sim_a_alone->clone_finish[p],
                1e-9);
  }
  // B's clones finish at their standalone instants shifted by the arrival.
  for (size_t p = 0; p < b_clones.size(); ++p) {
    EXPECT_NEAR(sim_both->clone_finish[a_clones.size() + p],
                sim_b->clone_finish[p] + kArrival, 1e-9);
  }
  EXPECT_NEAR(sim_both->makespan,
              std::max(sim_a_alone->makespan, sim_b->makespan + kArrival),
              1e-9);
}

TEST(FluidTimedTest, UniformPolicyHonorsArrivalsAndConservesWork) {
  OverlapUsageModel usage(0.2);
  FluidSimulator sim(SharingPolicy::kUniformSlowdown);
  Schedule s(1, 2);
  ASSERT_TRUE(s.PlaceAt(MakeUnitOp(0, {4.0, 6.0}, usage), 0, 0, 0.0).ok());
  ASSERT_TRUE(s.PlaceAt(MakeUnitOp(1, {5.0, 2.0}, usage), 0, 0, 1.0).ok());
  auto timed = sim.SimulateTimed(s);
  ASSERT_TRUE(timed.ok());
  // Work conservation survives the arrival split.
  EXPECT_NEAR(timed->sites[0].busy[0], 9.0, 1e-6);
  EXPECT_NEAR(timed->sites[0].busy[1], 8.0, 1e-6);
  // The late clone cannot finish before it starts plus its own time.
  EXPECT_GE(timed->clone_finish[1],
            1.0 + usage.SequentialTime({5.0, 2.0}) - 1e-9);
}

TEST(FluidTimedTest, UniformLateSoloCloneFinishesAtStartPlusSequential) {
  OverlapUsageModel usage(0.5);
  FluidSimulator sim(SharingPolicy::kUniformSlowdown);
  Schedule s(2, 2);
  ASSERT_TRUE(s.PlaceAt(MakeUnitOp(0, {3.0, 1.0}, usage), 0, 1, 7.0).ok());
  auto timed = sim.SimulateTimed(s);
  ASSERT_TRUE(timed.ok());
  EXPECT_NEAR(timed->clone_finish[0],
              7.0 + usage.SequentialTime({3.0, 1.0}), 1e-9);
  EXPECT_DOUBLE_EQ(timed->sites[0].finish, 0.0);  // site 0 idles
}

TEST(FluidTimedTest, RealizesListScheduleTimeline) {
  // End-to-end: the timed simulation of a LISTSCHEDULE result reproduces
  // the engine's own virtual timeline site by site.
  PlanFixture fx = testing_util::PipelinedChainFixture(5);
  OverlapUsageModel usage(0.5);
  MachineConfig machine;
  machine.num_sites = 6;
  ListScheduleOptions options;
  options.tree_guard = false;
  auto list = ListSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                           machine, usage, options);
  ASSERT_TRUE(list.ok());
  FluidSimulator sim(SharingPolicy::kOptimalStretch);
  auto timed = sim.SimulateTimed(list->schedule);
  ASSERT_TRUE(timed.ok());
  EXPECT_NEAR(timed->makespan, list->makespan,
              1e-6 * std::max(1.0, list->makespan));
  for (int j = 0; j < machine.num_sites; ++j) {
    EXPECT_NEAR(timed->sites[static_cast<size_t>(j)].finish,
                list->schedule.SiteFinish(j), 1e-6)
        << "site " << j;
  }
}

TEST(FluidTimedTest, RejectsInconsistentCloneTimes) {
  FluidSimulator sim;
  Schedule s(1, 2);
  ParallelizedOp bogus;
  bogus.op_id = 0;
  bogus.degree = 1;
  bogus.clones = {WorkVector({10.0, 10.0})};
  bogus.t_seq = {1.0};  // below the max-component floor
  bogus.t_par = 1.0;
  ASSERT_TRUE(s.Place(bogus, 0, 0).ok());
  EXPECT_FALSE(sim.SimulateTimed(s).ok());
}

}  // namespace
}  // namespace mrs
