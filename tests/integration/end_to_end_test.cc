#include <gtest/gtest.h>

#include "baseline/synchronous.h"
#include "core/opt_bound.h"
#include "core/tree_schedule.h"
#include "exec/fluid_simulator.h"
#include "exec/gantt.h"
#include "workload/experiment.h"

namespace mrs {
namespace {

/// Full pipeline on randomly generated queries: generate -> expand ->
/// cost -> schedule (all algorithms) -> validate -> simulate.
class EndToEndTest : public ::testing::TestWithParam<int> {};

TEST_P(EndToEndTest, FullPipelineConsistency) {
  const int num_joins = GetParam();
  ExperimentConfig config;
  config.queries_per_point = 2;
  config.workload.num_joins = num_joins;
  config.machine.num_sites = 20;
  config.granularity = 0.7;
  config.overlap = 0.5;

  for (int q = 0; q < config.queries_per_point; ++q) {
    auto artifacts = PrepareQuery(config, q);
    ASSERT_TRUE(artifacts.ok());
    const OverlapUsageModel usage(config.overlap);

    // TREESCHEDULE: valid phases, probes rooted with builds.
    TreeScheduleOptions options;
    options.granularity = config.granularity;
    auto tree = TreeSchedule(artifacts->op_tree, artifacts->task_tree,
                             artifacts->costs, config.cost, config.machine,
                             usage, options);
    ASSERT_TRUE(tree.ok());
    ASSERT_EQ(static_cast<int>(tree->phases.size()),
              artifacts->task_tree.num_phases());
    for (const auto& phase : tree->phases) {
      ASSERT_TRUE(phase.schedule.Validate(phase.ops).ok());
    }
    for (const auto& op : artifacts->op_tree.ops()) {
      if (op.kind == OperatorKind::kProbe) {
        EXPECT_EQ(tree->HomeOf(op.id), tree->HomeOf(op.blocking_input));
      }
    }

    // The simulator reproduces the analytic response time.
    FluidSimulator sim;
    auto simulated = sim.Simulate(*tree);
    ASSERT_TRUE(simulated.ok());
    EXPECT_NEAR(simulated->response_time, tree->response_time,
                1e-6 * std::max(1.0, tree->response_time));

    // SYNCHRONOUS runs and produces a complete placement.
    auto sync = SynchronousSchedule(artifacts->op_tree, artifacts->task_tree,
                                    artifacts->costs, config.cost,
                                    config.machine, usage);
    ASSERT_TRUE(sync.ok());
    EXPECT_GT(sync->response_time, 0.0);

    // OPTBOUND lower-bounds both schedulers' CG_f executions.
    auto bound = OptBound(artifacts->op_tree, artifacts->task_tree,
                          artifacts->costs, config.cost, usage,
                          config.granularity, config.machine.num_sites);
    ASSERT_TRUE(bound.ok());
    EXPECT_LE(bound->Bound(), tree->response_time + 1e-6);

    // Gantt rendering works on real schedules.
    EXPECT_FALSE(RenderTreeGantt(*tree).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(QuerySizes, EndToEndTest,
                         ::testing::Values(1, 3, 5, 10, 20));

TEST(EndToEndTest, MalleableAlsoSoundOnRealQueries) {
  ExperimentConfig config;
  config.workload.num_joins = 8;
  config.machine.num_sites = 16;
  auto artifacts = PrepareQuery(config, 0);
  ASSERT_TRUE(artifacts.ok());
  const OverlapUsageModel usage(config.overlap);
  TreeScheduleOptions options;
  options.policy = ParallelizationPolicy::kMalleable;
  auto tree = TreeSchedule(artifacts->op_tree, artifacts->task_tree,
                           artifacts->costs, config.cost, config.machine,
                           usage, options);
  ASSERT_TRUE(tree.ok());
  for (const auto& phase : tree->phases) {
    ASSERT_TRUE(phase.schedule.Validate(phase.ops).ok());
  }
  FluidSimulator sim;
  auto simulated = sim.Simulate(*tree);
  ASSERT_TRUE(simulated.ok());
  EXPECT_NEAR(simulated->response_time, tree->response_time, 1e-6);
}

TEST(EndToEndTest, LargerMachinesHelpOnAverage) {
  ExperimentConfig config;
  config.queries_per_point = 5;
  config.workload.num_joins = 10;
  config.machine.num_sites = 10;
  auto small = MeasureAverageResponse(SchedulerKind::kTreeSchedule, config);
  config.machine.num_sites = 80;
  auto large = MeasureAverageResponse(SchedulerKind::kTreeSchedule, config);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LT(large->mean(), small->mean());
}

TEST(EndToEndTest, TreeScheduleBeatsSynchronousOnAverage) {
  // The paper's headline (Fig. 5/6): multi-dimensional scheduling wins on
  // average over the one-dimensional baseline.
  ExperimentConfig config;
  config.queries_per_point = 8;
  config.workload.num_joins = 15;
  config.machine.num_sites = 20;
  config.overlap = 0.3;
  auto stats = MeasureSchedulers(
      {SchedulerKind::kTreeSchedule, SchedulerKind::kSynchronous}, config);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT((*stats)[0].mean(), (*stats)[1].mean());
}

}  // namespace
}  // namespace mrs
