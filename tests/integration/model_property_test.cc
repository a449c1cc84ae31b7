#include <algorithm>

#include <gtest/gtest.h>

#include "core/tree_schedule.h"
#include "exec/fluid_simulator.h"
#include "workload/experiment.h"

namespace mrs {
namespace {

/// Model-level invariants checked across a (J, P, f, eps) sweep on real
/// generated queries — the union of the paper's assumptions A1-A5 as they
/// surface in schedules.
class ModelPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, double, double>> {};

TEST_P(ModelPropertyTest, ScheduleInvariantsHold) {
  const auto [joins, sites, f, eps] = GetParam();
  ExperimentConfig config;
  config.queries_per_point = 1;
  config.workload.num_joins = joins;
  config.machine.num_sites = sites;
  config.granularity = f;
  config.overlap = eps;

  auto artifacts = PrepareQuery(config, 0);
  ASSERT_TRUE(artifacts.ok());
  const OverlapUsageModel usage(eps);
  TreeScheduleOptions options;
  options.granularity = f;
  auto tree = TreeSchedule(artifacts->op_tree, artifacts->task_tree,
                           artifacts->costs, config.cost, config.machine,
                           usage, options);
  ASSERT_TRUE(tree.ok());

  for (const auto& phase : tree->phases) {
    ASSERT_TRUE(phase.schedule.Validate(phase.ops).ok());
    for (const auto& op : phase.ops) {
      // Degrees within machine size.
      EXPECT_GE(op.degree, 1);
      EXPECT_LE(op.degree, sites);
      // Clone times respect the §4.1 usage bounds.
      for (int k = 0; k < op.degree; ++k) {
        EXPECT_TRUE(SequentialTimeWithinBounds(
            op.clones[static_cast<size_t>(k)],
            op.t_seq[static_cast<size_t>(k)], 1e-6));
      }
      // Floating ops honor the CG_f condition (Prop 4.1) unless serial.
      // Builds are sized join-aware (default BuildDegreePolicy): their
      // CG_f condition applies to the combined build+probe cost.
      if (!op.rooted && op.degree > 1) {
        OperatorCost cost = artifacts->costs[static_cast<size_t>(op.op_id)];
        if (op.kind == OperatorKind::kBuild) {
          for (const auto& other : artifacts->op_tree.ops()) {
            if (other.kind == OperatorKind::kProbe &&
                other.blocking_input == op.op_id) {
              const OperatorCost& probe =
                  artifacts->costs[static_cast<size_t>(other.id)];
              cost.processing += probe.processing;
              cost.data_bytes += probe.data_bytes;
            }
          }
        }
        EXPECT_LE(config.cost.CommunicationArea(op.degree, cost.data_bytes),
                  f * cost.ProcessingArea() + 1e-6)
            << "op" << op.op_id << " degree " << op.degree;
      }
    }
    // Eq. (3) decomposition: phase makespan = max site time, bounded below
    // by each op's t_par.
    double max_t_par = 0.0;
    for (const auto& op : phase.ops) {
      max_t_par = std::max(max_t_par, op.t_par);
    }
    EXPECT_GE(phase.makespan + 1e-9, max_t_par);
  }

  // Probes co-located with their builds (constraint B across phases).
  for (const auto& op : artifacts->op_tree.ops()) {
    if (op.kind == OperatorKind::kProbe) {
      EXPECT_EQ(tree->HomeOf(op.id), tree->HomeOf(op.blocking_input));
    }
  }

  // Operational agreement: the fluid simulator reproduces eq. (2)/(3).
  FluidSimulator sim;
  auto simulated = sim.Simulate(*tree);
  ASSERT_TRUE(simulated.ok());
  EXPECT_NEAR(simulated->response_time, tree->response_time,
              1e-6 * std::max(1.0, tree->response_time));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelPropertyTest,
    ::testing::Combine(::testing::Values(2, 8, 15),
                       ::testing::Values(4, 20, 60),
                       ::testing::Values(0.3, 0.7),
                       ::testing::Values(0.1, 0.5, 0.9)));

/// Monotonicity of the coarse-grain response in f on a fixed query: a
/// larger granularity bound can only expand the space of allowed
/// parallelizations (and our A4 guard keeps T_par non-increasing), so the
/// average response should not increase... per-phase interactions can
/// occasionally flip a single query, so we assert on the average of
/// several queries.
TEST(GranularityMonotonicityTest, AverageResponseNonIncreasingInF) {
  ExperimentConfig config;
  config.queries_per_point = 6;
  config.workload.num_joins = 10;
  config.machine.num_sites = 20;
  config.overlap = 0.3;
  double prev = 0.0;
  bool first = true;
  for (double f : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    config.granularity = f;
    auto stat = MeasureAverageResponse(SchedulerKind::kTreeSchedule, config);
    ASSERT_TRUE(stat.ok());
    if (!first) {
      EXPECT_LE(stat->mean(), prev * 1.02)
          << "response should not grow materially with f";
    }
    prev = stat->mean();
    first = false;
  }
}

}  // namespace
}  // namespace mrs
