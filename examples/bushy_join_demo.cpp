// Bushy join demo: generate a random 20-join tree query, schedule it with
// both TREESCHEDULE (multi-dimensional) and SYNCHRONOUS (one-dimensional
// baseline), execute the TREESCHEDULE result on the fluid simulator, and
// report response times plus machine utilization.
//
// Usage: bushy_join_demo [num_joins] [num_sites] [seed]

#include <cstdio>
#include <cstdlib>

#include "baseline/synchronous.h"
#include "common/str_util.h"
#include "core/opt_bound.h"
#include "core/tree_schedule.h"
#include "exec/fluid_simulator.h"
#include "workload/experiment.h"

int main(int argc, char** argv) {
  using namespace mrs;

  ExperimentConfig config;
  config.workload.num_joins = argc > 1 ? std::atoi(argv[1]) : 20;
  config.machine.num_sites = argc > 2 ? std::atoi(argv[2]) : 40;
  config.seed = argc > 3 ? static_cast<uint64_t>(std::atoll(argv[3])) : 9607;
  config.granularity = 0.7;
  config.overlap = 0.5;

  auto artifacts = PrepareQuery(config, /*index=*/0);
  if (!artifacts.ok()) {
    std::printf("query generation failed: %s\n",
                artifacts.status().ToString().c_str());
    return 1;
  }
  std::printf("Random query: %d joins over %d relations, plan height %d\n",
              config.workload.num_joins,
              artifacts->query.catalog->num_relations(),
              artifacts->query.plan->Height());
  std::printf("Task tree: %d pipelines in %d synchronized phases\n\n",
              artifacts->task_tree.num_tasks(),
              artifacts->task_tree.num_phases());

  const OverlapUsageModel usage(config.overlap);

  // Multi-dimensional scheduling.
  TreeScheduleOptions options;
  options.granularity = config.granularity;
  auto tree = TreeSchedule(artifacts->op_tree, artifacts->task_tree,
                           artifacts->costs, config.cost, config.machine,
                           usage, options);
  if (!tree.ok()) return 1;

  // One-dimensional baseline.
  auto sync = SynchronousSchedule(artifacts->op_tree, artifacts->task_tree,
                                  artifacts->costs, config.cost,
                                  config.machine, usage);
  if (!sync.ok()) return 1;

  // Optimal lower bound.
  auto bound = OptBound(artifacts->op_tree, artifacts->task_tree,
                        artifacts->costs, config.cost, usage,
                        config.granularity, config.machine.num_sites);
  if (!bound.ok()) return 1;

  std::printf("TREESCHEDULE response: %s\n",
              FormatMillis(tree->response_time).c_str());
  std::printf("SYNCHRONOUS  response: %s   (%.2fx of TREESCHEDULE)\n",
              FormatMillis(sync->response_time).c_str(),
              sync->response_time / tree->response_time);
  std::printf("OPTBOUND     lower bd: %s   (TREESCHEDULE within %.2fx)\n\n",
              FormatMillis(bound->Bound()).c_str(),
              tree->response_time / bound->Bound());

  // Execute the schedule operationally.
  FluidSimulator sim;
  auto run = sim.Simulate(*tree);
  if (!run.ok()) return 1;
  std::printf("Fluid simulation: response %s (analytic %s)\n",
              FormatMillis(run->response_time).c_str(),
              FormatMillis(tree->response_time).c_str());
  std::printf("Average utilization: cpu %.0f%%  disk %.0f%%  net %.0f%%\n",
              run->average_utilization[0] * 100.0,
              run->average_utilization[1] * 100.0,
              run->average_utilization[2] * 100.0);

  // And under a naive round-robin engine.
  FluidSimulator naive(SharingPolicy::kUniformSlowdown);
  auto slow = naive.Simulate(*tree);
  if (!slow.ok()) return 1;
  std::printf(
      "Naive time-slicing engine: response %s (%.2fx of the model-optimal "
      "discipline)\n",
      FormatMillis(slow->response_time).c_str(),
      slow->response_time / run->response_time);
  return 0;
}
