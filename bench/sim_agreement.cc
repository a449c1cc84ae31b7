// Ablation A6: agreement between the analytic cost model (eq. (2)/(3))
// and the operational fluid simulator, plus the price of a naive
// uniform-time-slicing engine relative to the model-optimal discipline.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "common/stats.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "core/tree_schedule.h"
#include "exec/fluid_simulator.h"

int main(int argc, char** argv) {
  using namespace mrs;
  ExperimentConfig config = bench::DefaultConfig();
  config.queries_per_point = bench::QuickMode(argc, argv) ? 5 : 20;
  bench::PrintHeader(
      "sim_agreement: analytic response time vs fluid simulation",
      "operational validation of the Section 5.2 execution model", config);

  TablePrinter table("Per-query agreement over random 20-join plans");
  table.SetHeader({"sites", "max |analytic-sim|/analytic",
                   "naive/optimal mean", "naive/optimal max"});

  config.workload.num_joins = 20;
  for (int sites : {10, 40, 140}) {
    config.machine.num_sites = sites;
    double max_rel_err = 0.0;
    RunningStat naive_ratio;
    for (int q = 0; q < config.queries_per_point; ++q) {
      auto artifacts = PrepareQuery(config, q);
      if (!artifacts.ok()) return 1;
      const OverlapUsageModel usage(config.overlap);
      TreeScheduleOptions options;
      options.granularity = config.granularity;
      auto plan = TreeSchedule(artifacts->op_tree, artifacts->task_tree,
                               artifacts->costs, config.cost, config.machine,
                               usage, options);
      if (!plan.ok()) return 1;
      FluidSimulator optimal(SharingPolicy::kOptimalStretch);
      FluidSimulator naive(SharingPolicy::kUniformSlowdown);
      auto fast = optimal.Simulate(*plan);
      auto slow = naive.Simulate(*plan);
      if (!fast.ok() || !slow.ok()) return 1;
      max_rel_err = std::max(
          max_rel_err, std::fabs(fast->response_time - plan->response_time) /
                           plan->response_time);
      naive_ratio.Add(slow->response_time / fast->response_time);
    }
    table.AddRow({StrFormat("%d", sites), StrFormat("%.2e", max_rel_err),
                  StrFormat("%.3f", naive_ratio.mean()),
                  StrFormat("%.3f", naive_ratio.max())});
  }
  table.Print();
  std::printf(
      "\nExpected shape: the optimal-stretch simulation reproduces the\n"
      "analytic eq. (3) response to floating-point precision (the model\n"
      "is operationally achievable under assumptions A2/A3); a naive\n"
      "round-robin engine pays a modest overhead, quantifying how much\n"
      "the model asks of the execution engine.\n");
  return 0;
}
