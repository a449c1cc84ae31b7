// Unit tests for the barrier-free moldable list scheduler (LISTSCHEDULE):
// precedence edges are respected on the shared timeline, no site is ever
// oversubscribed in any event window, degrees stay within the moldable
// bounds, the engine is deterministic, and the Schedule generalization it
// rides on (per-clone start times) leaves aligned schedules byte-identical.

#include "core/list_schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/tree_schedule.h"
#include "cost/parallelize.h"
#include "exec/fluid_simulator.h"
#include "io/schedule_export.h"
#include "resource/usage_model.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::MakeFixture;
using testing_util::MakeOp;
using testing_util::PipelinedChainFixture;
using testing_util::PlanFixture;

MachineConfig Machine(int sites) {
  MachineConfig m;
  m.num_sites = sites;
  return m;
}

/// Runs LISTSCHEDULE on a fixture; asserts success.
ListScheduleResult RunList(const PlanFixture& fx, int sites,
                       const ListScheduleOptions& options = {},
                       double eps = 0.5) {
  OverlapUsageModel usage(eps);
  auto result = ListSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             Machine(sites), usage, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Maps op id -> task id for a fixture.
std::vector<int> OpTask(const PlanFixture& fx) {
  std::vector<int> op_task(static_cast<size_t>(fx.op_tree.num_ops()), -1);
  for (const QueryTask& task : fx.task_tree.tasks()) {
    for (int oid : task.ops) op_task[static_cast<size_t>(oid)] = task.id;
  }
  return op_task;
}

TEST(ListScheduleTest, SingleScanPlanMatchesTree) {
  PlanFixture fx = testing_util::MakeFixture(
      {5000}, [](PlanTree* plan) { plan->AddLeaf(0).value(); });
  OverlapUsageModel usage(0.5);
  auto tree = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                           Machine(8), usage);
  ASSERT_TRUE(tree.ok());
  ListScheduleResult list = RunList(fx, 8);
  // One task, one round: the list schedule *is* the tree's single phase.
  EXPECT_EQ(list.rounds, 1);
  EXPECT_NEAR(list.makespan, tree->response_time, 1e-9);
  EXPECT_FALSE(list.used_tree_fallback);
}

TEST(ListScheduleTest, PrecedenceRespected) {
  PlanFixture fx = BushyFourWayFixture();
  ListScheduleResult result = RunList(fx, 12);
  const std::vector<int> op_task = OpTask(fx);

  // Task edges: a task starts no earlier than every child task finishes
  // (finish > start for any task with work).
  for (const QueryTask& task : fx.task_tree.tasks()) {
    const ListTaskInterval& interval =
        result.tasks[static_cast<size_t>(task.id)];
    EXPECT_EQ(interval.task, task.id);
    EXPECT_GT(interval.finish, interval.start);
    for (int child : task.children) {
      EXPECT_GE(interval.start,
                result.tasks[static_cast<size_t>(child)].finish - 1e-9)
          << "task " << task.id << " started before child " << child;
    }
  }
  // Clone starts: every clone starts exactly at its task's readiness
  // instant, and finishes within the task's interval.
  const auto& placements = result.schedule.placements();
  for (size_t p = 0; p < placements.size(); ++p) {
    const int tid = op_task[static_cast<size_t>(placements[p].op_id)];
    const ListTaskInterval& interval = result.tasks[static_cast<size_t>(tid)];
    EXPECT_DOUBLE_EQ(placements[p].start, interval.start);
    EXPECT_LE(result.clone_finish[p], interval.finish + 1e-9);
  }
}

TEST(ListScheduleTest, NoSiteOversubscribedInAnyEventWindow) {
  PlanFixture fx = PipelinedChainFixture(6);
  ListScheduleResult result = RunList(fx, 6);
  const Schedule& s = result.schedule;

  // Fluid feasibility (unit capacity per resource): for every window
  // [u, v] between event points of a site, the clones executed *entirely*
  // inside the window demand at most (v - u) on each resource.
  for (int j = 0; j < s.num_sites(); ++j) {
    std::vector<double> events{0.0};
    for (int p : s.SitePlacements(j)) {
      events.push_back(s.placements()[static_cast<size_t>(p)].start);
      events.push_back(result.clone_finish[static_cast<size_t>(p)]);
    }
    std::sort(events.begin(), events.end());
    for (size_t a = 0; a < events.size(); ++a) {
      for (size_t b = a + 1; b < events.size(); ++b) {
        const double u = events[a];
        const double v = events[b];
        if (v <= u) continue;
        WorkVector contained(static_cast<size_t>(s.dims()));
        for (int p : s.SitePlacements(j)) {
          const ClonePlacement& c = s.placements()[static_cast<size_t>(p)];
          if (c.start >= u &&
              result.clone_finish[static_cast<size_t>(p)] <= v + 1e-9) {
            contained += c.work;
          }
        }
        for (size_t i = 0; i < contained.dim(); ++i) {
          EXPECT_LE(contained[i], (v - u) + 1e-6)
              << "site " << j << " oversubscribed on resource " << i
              << " in [" << u << ", " << v << "]";
        }
      }
    }
  }
}

TEST(ListScheduleTest, DegreesWithinMoldableBounds) {
  PlanFixture fx = BushyFourWayFixture({60000, 45000, 70000, 30000});
  const int sites = 10;
  ListScheduleOptions options;
  options.tree.granularity = 0.5;
  ListScheduleResult result = RunList(fx, sites, options);
  ASSERT_EQ(static_cast<int>(result.ops.size()), fx.op_tree.num_ops());
  for (const ParallelizedOp& op : result.ops) {
    EXPECT_GE(op.degree, 1);
    EXPECT_LE(op.degree, sites);
    if (!op.rooted) {
      // Floating degrees respect the CG_f cap N_max (Prop. 4.1). The cap
      // is computed from the op's own cost; join-aware sizing only ever
      // *lowers* the chosen degree below this.
      const OperatorCost& cost =
          fx.costs[static_cast<size_t>(op.op_id)];
      const int n_max = MaxCoarseGrainDegree(
          cost.processing.Total(), cost.data_bytes, CostParams{},
          options.tree.granularity);
      EXPECT_LE(op.degree, std::max(n_max, 1)) << "op " << op.op_id;
    }
  }
}

TEST(ListScheduleTest, ScheduleValidatesAndCoversEveryOperator) {
  PlanFixture fx = BushyFourWayFixture();
  ListScheduleResult result = RunList(fx, 9);
  EXPECT_TRUE(result.schedule.Validate(result.ops).ok());
  std::vector<int> seen;
  for (const ParallelizedOp& op : result.ops) seen.push_back(op.op_id);
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(static_cast<int>(seen.size()), fx.op_tree.num_ops());
  for (int i = 0; i < fx.op_tree.num_ops(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ListScheduleTest, ProbeRootedAtBuildHome) {
  PlanFixture fx = BushyFourWayFixture();
  ListScheduleResult result = RunList(fx, 8);
  for (const PhysicalOp& op : fx.op_tree.ops()) {
    if (op.blocking_input < 0) continue;
    const std::vector<int> own = result.HomeOf(op.id);
    const std::vector<int> producer = result.HomeOf(op.blocking_input);
    ASSERT_FALSE(own.empty());
    EXPECT_EQ(own, producer) << "op " << op.id;
  }
}

TEST(ListScheduleTest, NeverWorseThanTreeWithGuard) {
  for (int sites : {2, 5, 16, 48}) {
    PlanFixture fx = PipelinedChainFixture(5);
    OverlapUsageModel usage(0.5);
    auto tree = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             Machine(sites), usage);
    ASSERT_TRUE(tree.ok());
    ListScheduleResult list = RunList(fx, sites);
    EXPECT_LE(list.makespan, tree->response_time + 1e-9) << sites << " sites";
    EXPECT_NEAR(list.tree_response_time, tree->response_time, 1e-9);
  }
}

TEST(ListScheduleTest, FallbackMakespanEqualsTreeResponse) {
  // Whenever the guard fires, the emitted schedule is the tree replayed on
  // the shared timeline, so its evaluated makespan is exactly the tree's
  // response time — and the schedule still validates.
  for (int sites : {2, 3, 4, 6, 8, 12, 16, 24, 32}) {
    PlanFixture fx = BushyFourWayFixture({90000, 80000, 85000, 70000});
    ListScheduleResult list = RunList(fx, sites);
    // Whether the guard fires is plan-dependent; when it does, the result
    // must be the tree bit-exactly.
    if (!list.used_tree_fallback) continue;
    EXPECT_NEAR(list.makespan, list.tree_response_time, 1e-9);
    EXPECT_TRUE(list.schedule.Validate(list.ops).ok());
  }
}

TEST(ListScheduleTest, GuardOffCanLoseToTreeButStillValid) {
  ListScheduleOptions options;
  options.tree_guard = false;
  PlanFixture fx = BushyFourWayFixture();
  ListScheduleResult list = RunList(fx, 8, options);
  EXPECT_FALSE(list.used_tree_fallback);
  EXPECT_DOUBLE_EQ(list.tree_response_time, 0.0);
  EXPECT_TRUE(list.schedule.Validate(list.ops).ok());
  EXPECT_GT(list.makespan, 0.0);
}

TEST(ListScheduleTest, MakespanMatchesScheduleSweep) {
  // The engine's event loop and Schedule's authoritative SweepSiteFinish
  // must tell the same story: same makespan, same per-clone finishes.
  for (int sites : {3, 8, 20}) {
    PlanFixture fx = PipelinedChainFixture(4);
    ListScheduleOptions options;
    options.tree_guard = false;  // compare the greedy schedule itself
    ListScheduleResult list = RunList(fx, sites, options);
    EXPECT_NEAR(list.makespan, list.schedule.Makespan(), 1e-6);
    const std::vector<double> swept = list.schedule.CloneFinishTimes();
    ASSERT_EQ(swept.size(), list.clone_finish.size());
    for (size_t p = 0; p < swept.size(); ++p) {
      EXPECT_NEAR(swept[p], list.clone_finish[p], 1e-6) << "clone " << p;
    }
  }
}

TEST(ListScheduleTest, SimulateTimedRealizesTheSchedule) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  ListScheduleOptions options;
  options.tree_guard = false;
  auto list = ListSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                           Machine(7), usage, options);
  ASSERT_TRUE(list.ok());
  FluidSimulator sim;
  auto simulated = sim.SimulateTimed(list->schedule);
  ASSERT_TRUE(simulated.ok()) << simulated.status().ToString();
  EXPECT_NEAR(simulated->makespan, list->makespan,
              1e-6 * std::max(1.0, list->makespan));
  ASSERT_EQ(simulated->clone_finish.size(), list->clone_finish.size());
  for (size_t p = 0; p < simulated->clone_finish.size(); ++p) {
    EXPECT_NEAR(simulated->clone_finish[p], list->clone_finish[p],
                1e-6 * std::max(1.0, list->clone_finish[p]));
  }
}

TEST(ListScheduleTest, DeterministicAcrossConcurrentCallers) {
  PlanFixture fx = BushyFourWayFixture();
  const std::string reference = ListScheduleToJson(RunList(fx, 11));
  constexpr int kThreads = 4;
  std::vector<std::string> outputs(kThreads);
  std::vector<std::thread> workers;
  for (int k = 0; k < kThreads; ++k) {
    workers.emplace_back([&, k] {
      PlanFixture local = BushyFourWayFixture();
      outputs[static_cast<size_t>(k)] =
          ListScheduleToJson(RunList(local, 11));
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& out : outputs) EXPECT_EQ(out, reference);
}

TEST(ListScheduleTest, MalleablePolicyProducesValidSchedules) {
  ListScheduleOptions options;
  options.tree.policy = ParallelizationPolicy::kMalleable;
  PlanFixture fx = BushyFourWayFixture();
  ListScheduleResult list = RunList(fx, 10, options);
  EXPECT_TRUE(list.schedule.Validate(list.ops).ok());
  EXPECT_GT(list.makespan, 0.0);
  OverlapUsageModel usage(0.5);
  TreeScheduleOptions tree_options;
  tree_options.policy = ParallelizationPolicy::kMalleable;
  auto tree = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                           Machine(10), usage, tree_options);
  ASSERT_TRUE(tree.ok());
  EXPECT_LE(list.makespan, tree->response_time + 1e-9);
}

TEST(ListScheduleTest, RejectsMismatchedCosts) {
  PlanFixture fx = BushyFourWayFixture();
  std::vector<OperatorCost> wrong(fx.costs.begin(), fx.costs.end() - 1);
  OverlapUsageModel usage(0.5);
  auto result = ListSchedule(fx.op_tree, fx.task_tree, wrong, CostParams{},
                             Machine(8), usage);
  EXPECT_FALSE(result.ok());
}

TEST(ListScheduleTest, SingleSiteMachineWorks) {
  PlanFixture fx = PipelinedChainFixture(3);
  ListScheduleResult list = RunList(fx, 1);
  EXPECT_TRUE(list.schedule.Validate(list.ops).ok());
  for (const ParallelizedOp& op : list.ops) EXPECT_EQ(op.degree, 1);
}

// --- External base load (list_options.base_load). ---

TEST(ListScheduleTest, ListOptionsBaseLoadIsValidatedAndHonored) {
  // A zero load changes nothing; a real one moves clones off the busy
  // sites; a load sized for another machine is rejected.
  PlanFixture fx = BushyFourWayFixture();
  MachineConfig machine = Machine(6);
  std::vector<WorkVector> load(
      static_cast<size_t>(machine.num_sites),
      WorkVector(static_cast<size_t>(machine.dims)));
  OverlapUsageModel usage(0.5);

  auto plain = ListSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                            machine, usage, ListScheduleOptions{});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  ListScheduleOptions options;
  options.tree.list_options.base_load = &load;
  auto zero = ListSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                           machine, usage, options);
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ(ListScheduleToJson(*zero), ListScheduleToJson(*plain));

  load[0] = WorkVector({50.0, 20.0, 10.0});
  load[1] = WorkVector({40.0, 25.0, 5.0});
  auto loaded = ListSchedule(fx.op_tree, fx.task_tree, fx.costs,
                             CostParams{}, machine, usage, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_NE(ListScheduleToJson(*loaded), ListScheduleToJson(*plain));

  load.pop_back();
  auto wrong = ListSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                            machine, usage, options);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

// --- Pipelined mode: rate matching + co-residency under the guard. ---

TEST(ListScheduleTest, PipelinedNeverLosesToTaskWaveList) {
  for (int sites : {2, 4, 8, 16, 32}) {
    for (int joins : {2, 4, 6}) {
      PlanFixture fx = PipelinedChainFixture(joins);
      ListScheduleResult plain = RunList(fx, sites);
      ListScheduleOptions options;
      options.pipeline = true;
      ListScheduleResult piped = RunList(fx, sites, options);
      // Exactly one of pipelined/wave-fallback: the guard may legally
      // fall back where the stage split packs worse than the wave.
      EXPECT_NE(piped.pipelined, piped.used_list_fallback)
          << sites << " sites, " << joins << " joins";
      EXPECT_LE(piped.makespan, plain.makespan + 1e-9)
          << sites << " sites, " << joins << " joins";
      EXPECT_NEAR(piped.list_makespan, plain.makespan, 1e-9);
      EXPECT_TRUE(piped.schedule.Validate(piped.ops).ok());
    }
  }
}

TEST(ListScheduleTest, PipelinedConsumerStartsWithItsProducer) {
  // Over every pipelined data edge, the consumer's earliest clone start
  // is never before the producer's (equality is the point: co-residency
  // from the first instant of the round).
  PlanFixture fx = PipelinedChainFixture(5);
  ListScheduleOptions options;
  options.pipeline = true;
  ListScheduleResult piped = RunList(fx, 12, options);
  std::vector<double> first_start(
      static_cast<size_t>(fx.op_tree.num_ops()),
      std::numeric_limits<double>::infinity());
  for (const ClonePlacement& p : piped.schedule.placements()) {
    first_start[static_cast<size_t>(p.op_id)] =
        std::min(first_start[static_cast<size_t>(p.op_id)], p.start);
  }
  for (const PhysicalOp& op : fx.op_tree.ops()) {
    for (int d : op.data_inputs) {
      EXPECT_GE(first_start[static_cast<size_t>(op.id)],
                first_start[static_cast<size_t>(d)] - 1e-9)
          << "op" << op.id << " starts before its producer op" << d;
    }
  }
}

TEST(ListScheduleTest, PipelineGuardOffStillValid) {
  ListScheduleOptions options;
  options.pipeline = true;
  options.pipeline_guard = false;
  options.tree_guard = false;
  PlanFixture fx = BushyFourWayFixture();
  ListScheduleResult piped = RunList(fx, 8, options);
  EXPECT_TRUE(piped.pipelined);
  EXPECT_FALSE(piped.used_list_fallback);
  EXPECT_TRUE(piped.schedule.Validate(piped.ops).ok());
  EXPECT_GT(piped.makespan, 0.0);
}

TEST(ListScheduleTest, PipelinedSimulateTimedAgrees) {
  // Overlapping producer/consumer residency runs through the same fluid
  // discipline: SimulateTimed must realize the pipelined schedule too.
  PlanFixture fx = PipelinedChainFixture(4);
  OverlapUsageModel usage(0.5);
  ListScheduleOptions options;
  options.pipeline = true;
  auto piped = ListSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                            Machine(9), usage, options);
  ASSERT_TRUE(piped.ok());
  FluidSimulator sim;
  auto simulated = sim.SimulateTimed(piped->schedule);
  ASSERT_TRUE(simulated.ok()) << simulated.status().ToString();
  EXPECT_NEAR(simulated->makespan, piped->makespan,
              1e-6 * std::max(1.0, piped->makespan));
  ASSERT_EQ(simulated->clone_finish.size(), piped->clone_finish.size());
  for (size_t p = 0; p < simulated->clone_finish.size(); ++p) {
    EXPECT_NEAR(simulated->clone_finish[p], piped->clone_finish[p],
                1e-6 * std::max(1.0, piped->clone_finish[p]));
  }
}

// --- d > WorkVector::kInlineDims: the heap storage path agrees with the
// engines and the simulator just like the inline path. ---

TEST(ListScheduleTest, HighDimensionalHeapPathAgrees) {
  // d = 12 > kInlineDims = 8 puts every work vector on the heap; the
  // same invariants that hold at d = 3 must hold bit-for-bit here.
  constexpr int kDisks = 10;  // dims = 2 + 10 = 12
  for (int sites : {3, 8, 20}) {
    PlanFixture fx = BushyFourWayFixture();
    MachineConfig machine = MachineConfig::WithDisks(sites, kDisks);
    CostModel model(CostParams{}, machine.dims, kDisks);
    auto costs = model.CostAll(fx.op_tree);
    ASSERT_TRUE(costs.ok()) << costs.status().ToString();
    OverlapUsageModel usage(0.5);

    auto tree = TreeSchedule(fx.op_tree, fx.task_tree, costs.value(),
                             CostParams{}, machine, usage);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    auto list = ListSchedule(fx.op_tree, fx.task_tree, costs.value(),
                             CostParams{}, machine, usage);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    EXPECT_LE(list->makespan, tree->response_time + 1e-9) << sites;
    EXPECT_TRUE(list->schedule.Validate(list->ops).ok());
    EXPECT_EQ(list->schedule.dims(), 2 + kDisks);

    // Event loop vs the authoritative sweep vs the simulator — three
    // independent fluid realizations over heap-backed vectors.
    EXPECT_NEAR(list->makespan, list->schedule.Makespan(),
                1e-6 * std::max(1.0, list->makespan));
    FluidSimulator sim;
    auto simulated = sim.SimulateTimed(list->schedule);
    ASSERT_TRUE(simulated.ok()) << simulated.status().ToString();
    EXPECT_NEAR(simulated->makespan, list->makespan,
                1e-6 * std::max(1.0, list->makespan));
    ASSERT_EQ(simulated->clone_finish.size(), list->clone_finish.size());
    for (size_t p = 0; p < simulated->clone_finish.size(); ++p) {
      EXPECT_NEAR(simulated->clone_finish[p], list->clone_finish[p],
                  1e-6 * std::max(1.0, list->clone_finish[p]));
    }

    // Pipelined mode rides the same heap path under its guard.
    ListScheduleOptions pipe;
    pipe.pipeline = true;
    auto piped = ListSchedule(fx.op_tree, fx.task_tree, costs.value(),
                              CostParams{}, machine, usage, pipe);
    ASSERT_TRUE(piped.ok()) << piped.status().ToString();
    EXPECT_LE(piped->makespan, list->makespan + 1e-9);
    EXPECT_TRUE(piped->schedule.Validate(piped->ops).ok());
  }
}

// --- Schedule generalization: aligned schedules stay byte-identical. ---

TEST(ScheduleStartTimeTest, PlaceAtZeroIsByteIdenticalToPlace) {
  OverlapUsageModel usage(0.5);
  ParallelizedOp a = MakeOp(0, {WorkVector({4, 1, 0}), WorkVector({3, 2, 0})},
                            usage);
  ParallelizedOp b = MakeOp(1, {WorkVector({2, 5, 1})}, usage);

  Schedule placed(3, 3);
  ASSERT_TRUE(placed.Place(a, 0, 0).ok());
  ASSERT_TRUE(placed.Place(a, 1, 1).ok());
  ASSERT_TRUE(placed.Place(b, 0, 0).ok());

  Schedule placed_at(3, 3);
  ASSERT_TRUE(placed_at.PlaceAt(a, 0, 0, 0.0).ok());
  ASSERT_TRUE(placed_at.PlaceAt(a, 1, 1, 0.0).ok());
  ASSERT_TRUE(placed_at.PlaceAt(b, 0, 0, 0.0).ok());

  EXPECT_TRUE(placed.aligned());
  EXPECT_TRUE(placed_at.aligned());
  EXPECT_EQ(placed.ToString(), placed_at.ToString());
  EXPECT_EQ(ScheduleToJson(placed), ScheduleToJson(placed_at));
  EXPECT_DOUBLE_EQ(placed.Makespan(), placed_at.Makespan());
  for (int j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(placed.SiteFinish(j), placed.SiteTime(j));
  }
}

TEST(ScheduleStartTimeTest, PositiveStartBreaksAlignment) {
  OverlapUsageModel usage(0.5);
  ParallelizedOp a = MakeOp(0, {WorkVector({4, 0, 0})}, usage);
  ParallelizedOp b = MakeOp(1, {WorkVector({2, 0, 0})}, usage);
  Schedule s(1, 3);
  ASSERT_TRUE(s.PlaceAt(a, 0, 0, 0.0).ok());
  EXPECT_TRUE(s.aligned());
  ASSERT_TRUE(s.PlaceAt(b, 0, 0, 4.0).ok());
  EXPECT_FALSE(s.aligned());
  // Two back-to-back waves: [0, 4) then [4, 6).
  EXPECT_DOUBLE_EQ(s.SiteFinish(0), 6.0);
  EXPECT_DOUBLE_EQ(s.Makespan(), 6.0);
  const std::vector<double> finish = s.CloneFinishTimes();
  EXPECT_DOUBLE_EQ(finish[0], 4.0);
  EXPECT_DOUBLE_EQ(finish[1], 6.0);
}

TEST(ScheduleStartTimeTest, RejectsNegativeStart) {
  OverlapUsageModel usage(0.5);
  ParallelizedOp a = MakeOp(0, {WorkVector({1, 0, 0})}, usage);
  Schedule s(1, 3);
  EXPECT_FALSE(s.PlaceAt(a, 0, 0, -1.0).ok());
}

TEST(ScheduleStartTimeTest, MidWaveArrivalStretchesResidents) {
  // One clone of 4ms CPU work running alone; at t=2 a second clone with
  // 4ms on an orthogonal resource arrives. Remaining work at t=2 is
  // (2, 0) + (0, 4): the common completion is 2 + max(2, 4) = 6, the
  // first clone stretched by its roommate's congestion-free overlap.
  OverlapUsageModel usage(1.0);  // full overlap: l(W) = max component
  ParallelizedOp a = MakeOp(0, {WorkVector({4, 0})}, usage);
  ParallelizedOp b = MakeOp(1, {WorkVector({0, 4})}, usage);
  Schedule s(1, 2);
  ASSERT_TRUE(s.PlaceAt(a, 0, 0, 0.0).ok());
  ASSERT_TRUE(s.PlaceAt(b, 0, 0, 2.0).ok());
  EXPECT_DOUBLE_EQ(s.SiteFinish(0), 6.0);
  const std::vector<double> finish = s.CloneFinishTimes();
  EXPECT_DOUBLE_EQ(finish[0], 6.0);
  EXPECT_DOUBLE_EQ(finish[1], 6.0);
}

}  // namespace
}  // namespace mrs
