// Slow property suite for the calibration loop: a single Calibrator
// replays well over twenty corpus-derived plans (TREESCHEDULE phased
// plans and LISTSCHEDULE timed schedules) on the execute backend and the
// fitted per-dimension scale must strictly reduce the mean relative
// error of the per-site predictions against the measured site times —
// the acceptance property of the execution-backed validation harness.
// The report is regenerated from scratch afterwards to pin that the
// whole loop (replay, fit, JSON rendering) is deterministic.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "exec/calibrate.h"
#include "exec/exec_backend.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"
#include "test_util.h"
#include "workload/generator.h"

namespace mrs {
namespace {

struct CorpusCase {
  uint64_t seed = 0;
  double eps = 0.5;
  double f = 0.7;
  int sites = 16;
  int threads = 2;
  int joins = 6;
  double sort_probability = 0.0;
  double aggregate_probability = 0.0;
};

std::vector<CorpusCase> LoadCorpus() {
  const std::string path = std::string(MRS_TEST_DATA_DIR) +
                           "/fuzz_corpus.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing corpus file: " << path;
  std::vector<CorpusCase> cases;
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    CorpusCase c;
    if (ls >> c.seed >> c.eps >> c.f >> c.sites >> c.threads >> c.joins >>
        c.sort_probability >> c.aggregate_probability) {
      cases.push_back(c);
    }
  }
  return cases;
}

struct PlanInputs {
  GeneratedQuery query;
  OperatorTree op_tree;
  TaskTree task_tree;
  std::vector<OperatorCost> costs;
};

bool BuildPlan(const CorpusCase& c, Rng* stream, PlanInputs* inputs) {
  WorkloadParams workload;
  workload.num_joins = c.joins;
  workload.sort_probability = c.sort_probability;
  workload.aggregate_probability = c.aggregate_probability;
  auto query = GenerateQuery(workload, stream);
  if (!query.ok()) return false;
  inputs->query = std::move(query).value();
  auto ops = OperatorTree::FromPlan(*inputs->query.plan);
  if (!ops.ok()) return false;
  inputs->op_tree = std::move(ops).value();
  auto tasks = TaskTree::FromOperatorTree(&inputs->op_tree);
  if (!tasks.ok()) return false;
  inputs->task_tree = std::move(tasks).value();
  CostModel model(CostParams{}, MachineConfig{}.dims);
  auto costs = model.CostAll(inputs->op_tree);
  if (!costs.ok()) return false;
  inputs->costs = std::move(costs).value();
  return true;
}

/// Feeds one calibrator with TREE and LIST plans from every corpus tuple
/// until at least `min_plans` plans are recorded. All plans share one
/// machine shape (the calibrator is per-dimensionality, and mixing site
/// counts is fine — samples aggregate per plan).
std::string CalibrateCorpus(int min_plans, double* unfitted, double* fitted,
                            int* num_plans) {
  const MachineConfig machine;
  const CostParams params;
  const OverlapUsageModel usage(0.5);
  ExecuteOptions exec;
  exec.meter = ExecMeter::kDeterministic;
  exec.threads = 2;
  Calibrator calibrator(machine.dims, usage, exec);

  const std::vector<CorpusCase> corpus = LoadCorpus();
  EXPECT_GE(corpus.size(), 6u);
  int plan_no = 0;
  for (const CorpusCase& c : corpus) {
    MachineConfig case_machine;
    case_machine.num_sites = c.sites;
    Rng master(c.seed);
    for (int plan_idx = 0; plan_idx < 2; ++plan_idx) {
      Rng stream = master.Fork();
      PlanInputs inputs;
      if (!BuildPlan(c, &stream, &inputs)) {
        ADD_FAILURE() << "corpus plan generation failed (seed " << c.seed
                      << ")";
        continue;
      }
      const std::vector<ExecOpSpec> specs =
          ExecOpSpecsFromTree(inputs.op_tree);

      TreeScheduleOptions tree_options;
      tree_options.granularity = c.f;
      auto tree = TreeSchedule(inputs.op_tree, inputs.task_tree, inputs.costs,
                               params, case_machine, OverlapUsageModel(c.eps),
                               tree_options);
      if (!tree.ok()) {
        ADD_FAILURE() << "TreeSchedule: " << tree.status().ToString();
        return "";
      }
      Status added = calibrator.AddTreePlan(
          StrFormat("corpus%d-tree", plan_no), *tree, specs);
      if (!added.ok()) {
        ADD_FAILURE() << "AddTreePlan: " << added.ToString();
        return "";
      }

      ListScheduleOptions list_options;
      list_options.tree.granularity = c.f;
      auto list = ListSchedule(inputs.op_tree, inputs.task_tree, inputs.costs,
                               params, case_machine, OverlapUsageModel(c.eps),
                               list_options);
      if (!list.ok()) {
        ADD_FAILURE() << "ListSchedule: " << list.status().ToString();
        return "";
      }
      added = calibrator.AddSchedule(StrFormat("corpus%d-list", plan_no),
                                     list->schedule, specs);
      if (!added.ok()) {
        ADD_FAILURE() << "AddSchedule: " << added.ToString();
        return "";
      }
      ++plan_no;
    }
  }

  EXPECT_GE(calibrator.num_plans(), min_plans)
      << "corpus must yield enough plans for the acceptance property";
  *unfitted = calibrator.MeanRelativeError(/*fitted=*/false);
  *fitted = calibrator.MeanRelativeError(/*fitted=*/true);
  *num_plans = calibrator.num_plans();
  return calibrator.ReportJson();
}

TEST(ExecCalibrationPropertyTest, FittedScaleReducesErrorOverTheCorpus) {
  double unfitted = 0.0;
  double fitted = 0.0;
  int num_plans = 0;
  const std::string report =
      CalibrateCorpus(/*min_plans=*/20, &unfitted, &fitted, &num_plans);
  if (HasFailure()) return;

  // The acceptance property: fitting strictly reduces the mean relative
  // error of the per-site predictions across >= 20 corpus plans.
  EXPECT_GT(unfitted, 0.0);
  EXPECT_LT(fitted, unfitted)
      << "fitted scale must improve on the analytic units";

  // The report reflects the same numbers it was built from.
  EXPECT_NE(report.find(StrFormat("\"plans\": %d,", num_plans)),
            std::string::npos);
  EXPECT_NE(report.find(StrFormat("\"mean_rel_error_unfitted\": %.6f,",
                                  unfitted)),
            std::string::npos);
  EXPECT_NE(report.find(StrFormat("\"mean_rel_error_fitted\": %.6f,",
                                  fitted)),
            std::string::npos);

  // The whole loop is deterministic: replaying it yields the same bytes.
  double unfitted2 = 0.0;
  double fitted2 = 0.0;
  int num_plans2 = 0;
  const std::string replay =
      CalibrateCorpus(/*min_plans=*/20, &unfitted2, &fitted2, &num_plans2);
  EXPECT_EQ(report, replay);
  EXPECT_EQ(num_plans, num_plans2);
}

}  // namespace
}  // namespace mrs
