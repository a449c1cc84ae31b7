// Execution-backend microbenchmark: the cost of really running a schedule
// (partitioned hash joins / group-bys over generated data on the replay
// pool, exec/execute_backend.h) next to simulating it, and the cost plus
// quality of a full calibration pass (exec/calibrate.h).
//
// BM_ExecuteTree replays a generated plan's TREESCHEDULE on the execute
// backend, sweeping the per-operator row cap R and the replay pool size;
// the throughput counter is input rows executed per second. BM_SimulateTree
// pushes the same schedules through the fluid simulator backend for scale.
// BM_Calibrate runs the whole measure-and-fit loop over a small plan mix
// (tree + list schedules) and reports the resulting mean relative errors
// as counters — compare_bench.py --counters diffs them across runs. See
// scripts/run_benches.sh -> BENCH_exec.json.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "cost/cost_model.h"
#include "exec/calibrate.h"
#include "exec/exec_backend.h"
#include "exec/execute_backend.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"
#include "resource/machine.h"
#include "resource/usage_model.h"
#include "workload/generator.h"

namespace mrs {
namespace {

constexpr uint64_t kBenchSeed = 20260808;
constexpr int kJoins = 4;
constexpr int kSites = 16;
constexpr int kDims = 3;

/// One generated plan scheduled both ways, with its exec specs. The task
/// tree points into the operator tree, so instances are built in place.
struct ExecBenchPlan {
  GeneratedQuery query;
  OperatorTree op_tree;
  TaskTree task_tree;
  std::vector<OperatorCost> costs;
  std::vector<ExecOpSpec> specs;
  TreeScheduleResult tree;
  Schedule list_schedule{1, 1};  // placeholder until Build()

  bool Build(const MachineConfig& machine, const OverlapUsageModel& usage,
             Rng* rng) {
    WorkloadParams workload;
    workload.num_joins = kJoins;
    workload.sort_probability = 0.2;
    auto generated = GenerateQuery(workload, rng);
    if (!generated.ok()) return false;
    query = std::move(generated).value();
    auto ops = OperatorTree::FromPlan(*query.plan);
    if (!ops.ok()) return false;
    op_tree = std::move(ops).value();
    auto tasks = TaskTree::FromOperatorTree(&op_tree);
    if (!tasks.ok()) return false;
    task_tree = std::move(tasks).value();
    CostModel model(CostParams{}, machine.dims, machine.dims - 2);
    auto costed = model.CostAll(op_tree);
    if (!costed.ok()) return false;
    costs = std::move(costed).value();
    specs = ExecOpSpecsFromTree(op_tree);
    auto scheduled = TreeSchedule(op_tree, task_tree, costs, CostParams{},
                                  machine, usage);
    if (!scheduled.ok()) return false;
    tree = std::move(scheduled).value();
    auto listed = ListSchedule(op_tree, task_tree, costs, CostParams{},
                               machine, usage);
    if (!listed.ok()) return false;
    list_schedule = std::move(listed).value().schedule;
    return true;
  }
};

std::vector<ExecBenchPlan> MakePlans(int count, const MachineConfig& machine,
                                     const OverlapUsageModel& usage) {
  std::vector<ExecBenchPlan> plans(count);
  Rng master(kBenchSeed);
  for (ExecBenchPlan& plan : plans) {
    Rng stream = master.Fork();
    if (!plan.Build(machine, usage, &stream)) {
      plans.clear();
      break;
    }
  }
  return plans;
}

ExecuteOptions BenchExecOptions(int64_t row_cap, int threads) {
  ExecuteOptions options;
  options.meter = ExecMeter::kDeterministic;
  options.max_rows_per_op = row_cap;
  options.threads = threads;
  return options;
}

void BM_ExecuteTree(benchmark::State& state) {
  const int64_t row_cap = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const MachineConfig machine = MachineConfig::WithDisks(kSites, kDims - 2);
  const OverlapUsageModel usage(0.5);
  const std::vector<ExecBenchPlan> plans = MakePlans(3, machine, usage);
  if (plans.empty()) {
    state.SkipWithError("plan generation failed");
    return;
  }
  int64_t rows = 0;
  for (auto _ : state) {
    for (const ExecBenchPlan& plan : plans) {
      ExecuteBackend backend(BenchExecOptions(row_cap, threads));
      auto runs = backend.RunTree(plan.tree, plan.specs);
      if (!runs.ok()) {
        state.SkipWithError("execution failed");
        return;
      }
      for (const ExecutionResult& run : *runs) {
        for (const CloneExecution& clone : run.clones) rows += clone.rows_in;
        benchmark::DoNotOptimize(run.digest);
      }
    }
  }
  state.SetItemsProcessed(rows);
  state.SetLabel("R=" + std::to_string(row_cap) +
                 " threads=" + std::to_string(threads));
}
BENCHMARK(BM_ExecuteTree)
    ->ArgsProduct({{2048, 8192}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_SimulateTree(benchmark::State& state) {
  const MachineConfig machine = MachineConfig::WithDisks(kSites, kDims - 2);
  const OverlapUsageModel usage(0.5);
  const std::vector<ExecBenchPlan> plans = MakePlans(3, machine, usage);
  if (plans.empty()) {
    state.SkipWithError("plan generation failed");
    return;
  }
  for (auto _ : state) {
    for (const ExecBenchPlan& plan : plans) {
      SimulateBackend backend;
      auto runs = backend.RunTree(plan.tree, plan.specs);
      if (!runs.ok()) {
        state.SkipWithError("simulation failed");
        return;
      }
      benchmark::DoNotOptimize(runs->back().timeline.makespan);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plans.size()));
}
BENCHMARK(BM_SimulateTree)->Unit(benchmark::kMillisecond);

// The full calibration loop: replay every plan (tree and list shapes),
// collect clone samples, fit the per-dimension scale, and evaluate both
// error metrics. Counters carry the model-quality side of the story.
void BM_Calibrate(benchmark::State& state) {
  const MachineConfig machine = MachineConfig::WithDisks(kSites, kDims - 2);
  const OverlapUsageModel usage(0.5);
  const std::vector<ExecBenchPlan> plans = MakePlans(3, machine, usage);
  if (plans.empty()) {
    state.SkipWithError("plan generation failed");
    return;
  }
  double unfitted = 0.0;
  double fitted = 0.0;
  for (auto _ : state) {
    Calibrator calibrator(machine.dims, usage, BenchExecOptions(4096, 2));
    for (size_t p = 0; p < plans.size(); ++p) {
      const std::string label = "plan" + std::to_string(p);
      if (!calibrator.AddTreePlan(label + "-tree", plans[p].tree,
                                  plans[p].specs)
               .ok() ||
          !calibrator
               .AddSchedule(label + "-list", plans[p].list_schedule,
                            plans[p].specs)
               .ok()) {
        state.SkipWithError("calibration failed");
        return;
      }
    }
    unfitted = calibrator.MeanRelativeError(/*fitted=*/false);
    fitted = calibrator.MeanRelativeError(/*fitted=*/true);
    benchmark::DoNotOptimize(fitted);
  }
  state.counters["mean_rel_error_unfitted"] = unfitted;
  state.counters["mean_rel_error_fitted"] = fitted;
}
BENCHMARK(BM_Calibrate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mrs
