#include "core/tree_schedule.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "cost/parallelize_cache.h"
#include "exec/trace.h"
#include "io/schedule_export.h"
#include "resource/usage_model.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::MakeFixture;
using testing_util::PipelinedChainFixture;
using testing_util::PlanFixture;

MachineConfig Machine(int sites) {
  MachineConfig m;
  m.num_sites = sites;
  return m;
}

TEST(TreeScheduleTest, SingleScanPlan) {
  PlanFixture fx = testing_util::MakeFixture(
      {5000}, [](PlanTree* plan) { plan->AddLeaf(0).value(); });
  OverlapUsageModel usage(0.5);
  auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             Machine(8), usage);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->phases.size(), 1u);
  EXPECT_GT(result->response_time, 0.0);
  EXPECT_DOUBLE_EQ(result->response_time, result->phases[0].makespan);
}

TEST(TreeScheduleTest, ResponseIsSumOfPhaseMakespans) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             Machine(16), usage);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(static_cast<int>(result->phases.size()),
            fx.task_tree.num_phases());
  double sum = 0.0;
  for (const auto& phase : result->phases) {
    EXPECT_NEAR(phase.makespan, phase.schedule.Makespan(), 1e-9);
    sum += phase.makespan;
  }
  EXPECT_NEAR(result->response_time, sum, 1e-9);
}

TEST(TreeScheduleTest, EveryPhaseScheduleIsValid) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.3);
  auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             Machine(10), usage);
  ASSERT_TRUE(result.ok());
  for (const auto& phase : result->phases) {
    EXPECT_TRUE(phase.schedule.Validate(phase.ops).ok());
  }
}

TEST(TreeScheduleTest, ProbeRootedAtBuildHome) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             Machine(12), usage);
  ASSERT_TRUE(result.ok());
  for (const auto& op : fx.op_tree.ops()) {
    if (op.kind != OperatorKind::kProbe) continue;
    std::vector<int> probe_home = result->HomeOf(op.id);
    std::vector<int> build_home = result->HomeOf(op.blocking_input);
    ASSERT_FALSE(probe_home.empty());
    ASSERT_FALSE(build_home.empty());
    EXPECT_EQ(probe_home, build_home)
        << "probe op" << op.id << " must run at its build's home";
  }
}

TEST(TreeScheduleTest, EveryOperatorScheduledExactlyOnce) {
  PlanFixture fx = PipelinedChainFixture(4);
  OverlapUsageModel usage(0.5);
  auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             Machine(8), usage);
  ASSERT_TRUE(result.ok());
  int scheduled_ops = 0;
  for (const auto& phase : result->phases) {
    scheduled_ops += static_cast<int>(phase.ops.size());
  }
  EXPECT_EQ(scheduled_ops, fx.op_tree.num_ops());
  for (const auto& op : fx.op_tree.ops()) {
    EXPECT_FALSE(result->HomeOf(op.id).empty());
  }
}

TEST(TreeScheduleTest, PipelinedChainUsesTwoPhases) {
  PlanFixture fx = PipelinedChainFixture(5);
  OverlapUsageModel usage(0.5);
  auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             Machine(20), usage);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->phases.size(), 2u);
}

TEST(TreeScheduleTest, MoreSitesNeverMuchWorse) {
  // Resource-limited vs large system: response should not grow with P
  // (modulo rooted-home effects, allow 5% slack).
  PlanFixture fx = BushyFourWayFixture({50000, 40000, 30000, 20000});
  OverlapUsageModel usage(0.3);
  auto small = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                            Machine(4), usage);
  auto large = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                            Machine(64), usage);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LE(large->response_time, small->response_time * 1.05);
}

TEST(TreeScheduleTest, GranularityRestrictsParallelism) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  TreeScheduleOptions tight;
  tight.granularity = 0.05;
  auto restricted = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                 CostParams{}, Machine(32), usage, tight);
  TreeScheduleOptions loose;
  loose.granularity = 0.9;
  auto free = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                           Machine(32), usage, loose);
  ASSERT_TRUE(restricted.ok());
  ASSERT_TRUE(free.ok());
  // A tiny f forces degree 1 for floating ops.
  int max_degree = 0;
  for (const auto& phase : restricted->phases) {
    for (const auto& op : phase.ops) {
      if (!op.rooted) max_degree = std::max(max_degree, op.degree);
    }
  }
  EXPECT_EQ(max_degree, 1);
  EXPECT_LE(free->response_time, restricted->response_time + 1e-9);
}

TEST(TreeScheduleTest, MalleablePolicyProducesValidSchedules) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  TreeScheduleOptions options;
  options.policy = ParallelizationPolicy::kMalleable;
  auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             Machine(16), usage, options);
  ASSERT_TRUE(result.ok());
  for (const auto& phase : result->phases) {
    EXPECT_TRUE(phase.schedule.Validate(phase.ops).ok());
  }
  EXPECT_GT(result->response_time, 0.0);
}

TEST(TreeScheduleTest, JoinAwareBuildsLiftProbeParallelism) {
  // A tiny inner relation (small build) joined with a huge outer: under
  // kBuildOnly the probe inherits the build's tiny home; kJoinAware sizes
  // the build for the whole join.
  PlanFixture fx = testing_util::MakeFixture(
      {100000, 1000}, [](PlanTree* plan) {
        plan->AddJoin(plan->AddLeaf(0).value(), plan->AddLeaf(1).value())
            .value();
      });
  OverlapUsageModel usage(0.3);
  const int sites = 64;
  MachineConfig machine = Machine(sites);

  auto degree_of_probe = [&](BuildDegreePolicy policy) {
    TreeScheduleOptions options;
    options.granularity = 0.7;
    options.build_degree = policy;
    auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                               CostParams{}, machine, usage, options);
    EXPECT_TRUE(result.ok());
    const int probe = fx.op_tree.root_op();
    return static_cast<int>(result->HomeOf(probe).size());
  };
  const int build_only = degree_of_probe(BuildDegreePolicy::kBuildOnly);
  const int join_aware = degree_of_probe(BuildDegreePolicy::kJoinAware);
  EXPECT_GT(join_aware, build_only);
}

TEST(TreeScheduleTest, JoinAwareNeverSlowerOnSkewedJoins) {
  PlanFixture fx = BushyFourWayFixture({100000, 1000, 90000, 2000});
  OverlapUsageModel usage(0.3);
  MachineConfig machine = Machine(40);
  TreeScheduleOptions build_only;
  build_only.build_degree = BuildDegreePolicy::kBuildOnly;
  TreeScheduleOptions join_aware;
  join_aware.build_degree = BuildDegreePolicy::kJoinAware;
  auto a = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                        machine, usage, build_only);
  auto b = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                        machine, usage, join_aware);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b->response_time, a->response_time + 1e-9);
}

TEST(TreeScheduleTest, BuildOnlyPolicyStillValid) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  TreeScheduleOptions options;
  options.build_degree = BuildDegreePolicy::kBuildOnly;
  auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             Machine(16), usage, options);
  ASSERT_TRUE(result.ok());
  for (const auto& phase : result->phases) {
    EXPECT_TRUE(phase.schedule.Validate(phase.ops).ok());
  }
}

TEST(TreeScheduleTest, RejectsMismatchedCosts) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  std::vector<OperatorCost> bad_costs(fx.costs.begin(), fx.costs.end() - 1);
  EXPECT_FALSE(TreeSchedule(fx.op_tree, fx.task_tree, bad_costs, CostParams{},
                            Machine(8), usage)
                   .ok());
}

TEST(PhasePlannerTest, PrepareWarmsEverySplitThePhasesUse) {
  // After Prepare, placing every phase hits the cache only, and the
  // schedule is the uncached TreeSchedule's, for both build policies.
  PlanFixture fx = BushyFourWayFixture({100000, 1000, 90000, 2000});
  OverlapUsageModel usage(0.5);
  const MachineConfig machine = Machine(16);
  for (const BuildDegreePolicy policy :
       {BuildDegreePolicy::kJoinAware, BuildDegreePolicy::kBuildOnly}) {
    TreeScheduleOptions options;
    options.build_degree = policy;
    auto offline = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                CostParams{}, machine, usage, options);
    ASSERT_TRUE(offline.ok());

    MetricsRegistry metrics;
    ParallelizeCache cache(CostParams{}, usage.epsilon(), options.granularity,
                           machine.num_sites, &metrics);
    options.cache = &cache;
    auto planner = PhasePlanner::Create(fx.op_tree, fx.task_tree, fx.costs,
                                        CostParams{}, machine, usage, options);
    ASSERT_TRUE(planner.ok());
    ASSERT_TRUE(planner->Prepare().ok());
    const uint64_t misses = cache.counter().misses();
    EXPECT_GT(misses, 0u);
    TreeScheduleResult placed;
    while (!planner->done()) {
      auto phase = planner->NextPhase();
      ASSERT_TRUE(phase.ok());
      placed.response_time += phase->makespan;
      placed.phases.push_back(std::move(phase).value());
    }
    EXPECT_EQ(cache.counter().misses(), misses);
    EXPECT_EQ(TreeScheduleToJson(placed), TreeScheduleToJson(*offline));
  }
}

TEST(PhasePlannerTest, PrepareLeavesTheCacheAloneUnderMalleable) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  MetricsRegistry metrics;
  ParallelizeCache cache(CostParams{}, usage.epsilon(), 0.7, 16, &metrics);
  TreeScheduleOptions options;
  options.policy = ParallelizationPolicy::kMalleable;
  options.cache = &cache;
  auto planner = PhasePlanner::Create(fx.op_tree, fx.task_tree, fx.costs,
                                      CostParams{}, Machine(16), usage,
                                      options);
  ASSERT_TRUE(planner.ok());
  ASSERT_TRUE(planner->Prepare().ok());
  EXPECT_EQ(cache.NumEntries(), 0u);
}

TEST(PhasePlannerTest, RejectsNegativeGranularityAtCreate) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  TreeScheduleOptions options;
  options.granularity = -1.0;
  auto planner = PhasePlanner::Create(fx.op_tree, fx.task_tree, fx.costs,
                                      CostParams{}, Machine(16), usage,
                                      options);
  ASSERT_FALSE(planner.ok());
  EXPECT_EQ(planner.status().message(),
            "granularity parameter f must be >= 0");
  // The malleable policy ignores f.
  options.policy = ParallelizationPolicy::kMalleable;
  EXPECT_TRUE(PhasePlanner::Create(fx.op_tree, fx.task_tree, fx.costs,
                                   CostParams{}, Machine(16), usage, options)
                  .ok());
}

TEST(TreeScheduleTest, TraceNamesTheSiteChoiceThatRan) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  for (SiteChoice choice :
       {SiteChoice::kLeastLoaded, SiteChoice::kFirstAllowable}) {
    ScheduleTrace trace(ScheduleTrace::CountingClock());
    TreeScheduleOptions options;
    options.list_options.site_choice = choice;
    options.trace = &trace;
    ASSERT_TRUE(TreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                             CostParams{}, Machine(8), usage, options)
                    .ok());
    const char* expected =
        choice == SiteChoice::kLeastLoaded ? "indexed" : "first_allowable";
    int phases = 0;
    for (const TraceSpan& span : trace.spans()) {
      if (span.name != "operator_schedule") continue;
      ++phases;
      const std::string* placement = span.FindAttr("placement");
      ASSERT_NE(placement, nullptr);
      EXPECT_EQ(*placement, expected);
    }
    EXPECT_EQ(phases, fx.task_tree.num_phases());
  }
}

TEST(TreeScheduleTest, SingleSiteMachineWorks) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             Machine(1), usage);
  ASSERT_TRUE(result.ok());
  for (const auto& phase : result->phases) {
    for (const auto& op : phase.ops) EXPECT_EQ(op.degree, 1);
  }
}

}  // namespace
}  // namespace mrs
