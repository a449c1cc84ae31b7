// Tests for the calibration harness (exec/calibrate.h): schedules replay
// on the execute backend, per-site measurements aggregate against the
// eq. (2)/(3) predictions, the least-squares scale fit is sane (and
// recovers a planted linear meter exactly), fitting reduces the mean
// relative error, and the versioned JSON report carries every field the
// tooling (scripts/compare_bench.py) reads.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "exec/calibrate.h"
#include "exec/exec_backend.h"
#include "json_checker.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::JsonChecker;
using testing_util::PipelinedChainFixture;
using testing_util::PlanFixture;

ExecuteOptions DeterministicExec() {
  ExecuteOptions exec;
  exec.meter = ExecMeter::kDeterministic;
  exec.threads = 2;
  return exec;
}

struct CalibrationFixture {
  PlanFixture fx;
  MachineConfig machine;
  OverlapUsageModel usage{0.5};
  TreeScheduleResult tree;
  ListScheduleResult list;
  std::vector<ExecOpSpec> specs;
};

CalibrationFixture MakeCalibrationFixture(PlanFixture base) {
  CalibrationFixture c;
  c.fx = std::move(base);
  auto tree = TreeSchedule(c.fx.op_tree, c.fx.task_tree, c.fx.costs,
                           CostParams{}, c.machine, c.usage);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  c.tree = std::move(tree).value();
  auto list = ListSchedule(c.fx.op_tree, c.fx.task_tree, c.fx.costs,
                           CostParams{}, c.machine, c.usage);
  EXPECT_TRUE(list.ok()) << list.status().ToString();
  c.list = std::move(list).value();
  c.specs = ExecOpSpecsFromTree(c.fx.op_tree);
  return c;
}

TEST(CalibratorTest, AccumulatesPlansAndCloneSamples) {
  CalibrationFixture c = MakeCalibrationFixture(BushyFourWayFixture());
  Calibrator calibrator(c.machine.dims, c.usage, DeterministicExec());
  EXPECT_EQ(calibrator.num_plans(), 0);
  ASSERT_TRUE(calibrator.AddTreePlan("bushy", c.tree, c.specs).ok());
  ASSERT_TRUE(calibrator.AddSchedule("bushy-list", c.list.schedule,
                                     c.specs).ok());
  EXPECT_EQ(calibrator.num_plans(), 2);
  int placed = 0;
  for (const PhaseSchedule& phase : c.tree.phases) {
    placed += phase.schedule.num_placements();
  }
  placed += c.list.schedule.num_placements();
  EXPECT_EQ(calibrator.num_clone_samples(), placed);
}

TEST(CalibratorTest, RejectsDimensionMismatch) {
  CalibrationFixture c = MakeCalibrationFixture(BushyFourWayFixture());
  Calibrator calibrator(c.machine.dims + 2, c.usage, DeterministicExec());
  EXPECT_FALSE(calibrator.AddTreePlan("bushy", c.tree, c.specs).ok());
}

TEST(CalibratorTest, FitScaleIsNonNegativeAndEmptyFitIsZero) {
  CalibrationFixture c = MakeCalibrationFixture(BushyFourWayFixture());
  Calibrator empty(c.machine.dims, c.usage, DeterministicExec());
  const std::vector<double> zero = empty.FitScale();
  ASSERT_EQ(static_cast<int>(zero.size()), c.machine.dims);
  for (double s : zero) EXPECT_EQ(s, 0.0);

  Calibrator calibrator(c.machine.dims, c.usage, DeterministicExec());
  ASSERT_TRUE(calibrator.AddTreePlan("bushy", c.tree, c.specs).ok());
  const std::vector<double> scale = calibrator.FitScale();
  ASSERT_EQ(static_cast<int>(scale.size()), c.machine.dims);
  for (double s : scale) EXPECT_GE(s, 0.0);
}

/// With the deterministic meter the "measurement" is a known function of
/// row counts, far from the model's milliseconds — exactly the situation
/// calibration exists for. The fitted per-dimension scale must cut the
/// mean relative error, and by a lot.
TEST(CalibratorTest, FittingReducesMeanRelativeError) {
  CalibrationFixture c = MakeCalibrationFixture(BushyFourWayFixture());
  Calibrator calibrator(c.machine.dims, c.usage, DeterministicExec());
  ASSERT_TRUE(calibrator.AddTreePlan("bushy", c.tree, c.specs).ok());
  CalibrationFixture chain = MakeCalibrationFixture(PipelinedChainFixture(4));
  ASSERT_TRUE(calibrator.AddTreePlan("chain", chain.tree, chain.specs).ok());
  ASSERT_TRUE(
      calibrator.AddSchedule("bushy-list", c.list.schedule, c.specs).ok());

  const double unfitted = calibrator.MeanRelativeError(/*fitted=*/false);
  const double fitted = calibrator.MeanRelativeError(/*fitted=*/true);
  EXPECT_GT(unfitted, 0.0);
  EXPECT_LT(fitted, unfitted);
}

/// The deterministic meter is linear in executed rows and the
/// fraction-scaled work vectors are too, so a 3-parameter per-dimension
/// scale — one shared across all operator kinds — should land the site
/// predictions in the right ballpark (it cannot be exact: different
/// kinds have different meter-to-work ratios).
TEST(CalibratorTest, DeterministicMeterFitsWithinCoarseTolerance) {
  CalibrationFixture c = MakeCalibrationFixture(BushyFourWayFixture());
  Calibrator calibrator(c.machine.dims, c.usage, DeterministicExec());
  ASSERT_TRUE(calibrator.AddTreePlan("bushy", c.tree, c.specs).ok());
  const double fitted = calibrator.MeanRelativeError(/*fitted=*/true);
  EXPECT_LT(fitted, 0.75)
      << "a linear meter over linear features should fit coarsely";
}

TEST(CalibratorTest, FittedOptionsScaleTheCostModel) {
  CalibrationFixture c = MakeCalibrationFixture(BushyFourWayFixture());
  Calibrator calibrator(c.machine.dims, c.usage, DeterministicExec());
  ASSERT_TRUE(calibrator.AddTreePlan("bushy", c.tree, c.specs).ok());
  const CostModelOptions options = calibrator.FittedOptions();
  EXPECT_TRUE(options.fitted);
  ASSERT_EQ(static_cast<int>(options.scale.size()), c.machine.dims);

  const CostModel analytic(CostParams{}, c.machine.dims);
  const CostModel fitted(CostParams{}, c.machine.dims, /*num_disks=*/1,
                         options);
  EXPECT_TRUE(fitted.options().fitted);
  for (const PhysicalOp& op : c.fx.op_tree.ops()) {
    auto a = analytic.Cost(op);
    auto f = fitted.Cost(op);
    ASSERT_TRUE(a.ok() && f.ok());
    for (size_t d = 0; d < a->processing.dim(); ++d) {
      EXPECT_DOUBLE_EQ(f->processing[d],
                       a->processing[d] * options.scale[d])
          << "op " << op.id << " dim " << d;
    }
  }
}

TEST(CalibratorTest, ReportJsonCarriesTheSchemaAndIsDeterministic) {
  CalibrationFixture c = MakeCalibrationFixture(BushyFourWayFixture());
  Calibrator calibrator(c.machine.dims, c.usage, DeterministicExec());
  ASSERT_TRUE(calibrator.AddTreePlan("bushy", c.tree, c.specs).ok());
  ASSERT_TRUE(
      calibrator.AddSchedule("bushy-list", c.list.schedule, c.specs).ok());
  const std::string report = calibrator.ReportJson();
  for (const char* field :
       {"\"calibration_report_version\": 1", "\"meter\": \"deterministic\"",
        "\"data_seed\"", "\"skew\"", "\"max_rows_per_op\"", "\"eps\"",
        "\"dims\"", "\"plans\": 2", "\"clone_samples\"", "\"fitted_scale\"",
        "\"mean_rel_error_unfitted\"", "\"mean_rel_error_fitted\"",
        "\"per_plan\"", "\"label\": \"bushy\"", "\"label\": \"bushy-list\"",
        "\"predicted_makespan_ms\"", "\"measured_makespan\"",
        "\"fitted_makespan\"", "\"sites\"", "\"predicted_ms\""}) {
    EXPECT_NE(report.find(field), std::string::npos)
        << "report missing " << field << "\n" << report;
  }

  // Deterministic meter => byte-identical reports across replays.
  Calibrator again(c.machine.dims, c.usage, DeterministicExec());
  ASSERT_TRUE(again.AddTreePlan("bushy", c.tree, c.specs).ok());
  ASSERT_TRUE(
      again.AddSchedule("bushy-list", c.list.schedule, c.specs).ok());
  EXPECT_EQ(report, again.ReportJson());
}

/// Plan labels are caller text: control characters, quotes and
/// backslashes in them must not break the report's JSON.
TEST(CalibratorTest, ReportJsonEscapesLabels) {
  CalibrationFixture c = MakeCalibrationFixture(BushyFourWayFixture());
  Calibrator calibrator(c.machine.dims, c.usage, DeterministicExec());
  ASSERT_TRUE(
      calibrator.AddTreePlan("two\nlines \"quoted\" \\ tab\t\x01", c.tree,
                             c.specs)
          .ok());
  const std::string report = calibrator.ReportJson();
  EXPECT_TRUE(JsonChecker(report).Valid()) << report;
  EXPECT_NE(report.find(
                "\"label\": \"two\\nlines \\\"quoted\\\" \\\\ tab\\t\\u0001\""),
            std::string::npos)
      << report;
}

/// The honest meter still produces a structurally valid report; no value
/// assertions (CPU time is noisy on CI), just plumbing.
TEST(CalibratorTest, ThreadCpuMeterProducesAReport) {
  CalibrationFixture c = MakeCalibrationFixture(BushyFourWayFixture());
  ExecuteOptions exec;
  exec.meter = ExecMeter::kThreadCpu;
  exec.threads = 2;
  Calibrator calibrator(c.machine.dims, c.usage, exec);
  ASSERT_TRUE(calibrator.AddTreePlan("bushy", c.tree, c.specs).ok());
  const std::string report = calibrator.ReportJson();
  EXPECT_NE(report.find("\"meter\": \"thread_cpu\""), std::string::npos);
  EXPECT_GE(calibrator.MeanRelativeError(/*fitted=*/false), 0.0);
  EXPECT_GE(calibrator.MeanRelativeError(/*fitted=*/true), 0.0);
}

}  // namespace
}  // namespace mrs
