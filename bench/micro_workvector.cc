// Work-vector core microbenchmarks (DESIGN.md §4f): the end-to-end
// split -> place -> simulate path that the inline small-buffer storage,
// the uniform-clone compression, and the fused scaled-add primitives
// accelerate, swept over dimensionality d in {2, 3, 6} (all inline) and
// machine size P in {64, 1024, 4096}.
//
// BM_SplitPlaceSimulate builds a fresh operator batch (uniform clone
// sets), runs OPERATORSCHEDULE, and fluid-simulates the resulting phase —
// every iteration exercises the allocation paths a scheduler service hits
// per query. BM_SplitOnly isolates parallelization (where uniform-clone
// compression turns O(N*d) allocations into O(1)) and BM_SimulateOnly the
// fused event loops. See scripts/run_benches.sh -> BENCH_workvector.json
// and scripts/compare_bench.py for baseline diffs.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/operator_schedule.h"
#include "core/schedule.h"
#include "cost/clone_set.h"
#include "cost/parallelize.h"
#include "exec/fluid_simulator.h"
#include "resource/usage_model.h"

namespace mrs {
namespace {

constexpr int kOpsPerBatch = 48;

/// A batch of uniform-clone operators at dimensionality d, with degrees
/// cycling up to min(P, 32). Dimensions beyond CPU get a rotating share
/// of the work so every resource is exercised.
std::vector<ParallelizedOp> MakeBatch(int d, int num_sites,
                                      const OverlapUsageModel& usage) {
  std::vector<ParallelizedOp> ops;
  ops.reserve(kOpsPerBatch);
  const int max_degree = num_sites < 32 ? num_sites : 32;
  for (int i = 0; i < kOpsPerBatch; ++i) {
    const int degree = 1 + (i * 7) % max_degree;
    WorkVector total(static_cast<size_t>(d));
    for (int r = 0; r < d; ++r) {
      total[static_cast<size_t>(r)] =
          400.0 + 120.0 * ((i + r) % 5) + 40.0 * r;
    }
    const double share = 1.0 / static_cast<double>(degree);
    WorkVector base = total * share;
    WorkVector coordinator = base;
    coordinator[0] += 7.5 * degree;  // EA1 startup at the coordinator
    ParallelizedOp op;
    op.op_id = i;
    op.degree = degree;
    op.clones = CloneSet::Uniform(std::move(coordinator), std::move(base),
                                  degree);
    const double t_coord = usage.SequentialTime(op.clones[0]);
    const double t_base =
        degree > 1 ? usage.SequentialTime(op.clones[1]) : t_coord;
    op.t_seq.assign(static_cast<size_t>(degree), t_base);
    op.t_seq[0] = t_coord;
    op.t_par = t_coord > t_base ? t_coord : t_base;
    ops.push_back(std::move(op));
  }
  return ops;
}

void BM_SplitPlaceSimulate(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int num_sites = static_cast<int>(state.range(1));
  const OverlapUsageModel usage(0.5);
  const FluidSimulator simulator(SharingPolicy::kOptimalStretch);
  for (auto _ : state) {
    std::vector<ParallelizedOp> ops = MakeBatch(d, num_sites, usage);
    auto schedule = OperatorSchedule(ops, num_sites, d);
    if (!schedule.ok()) {
      state.SkipWithError("scheduling failed");
      return;
    }
    auto sim = simulator.SimulatePhase(*schedule);
    if (!sim.ok()) {
      state.SkipWithError("simulation failed");
      return;
    }
    benchmark::DoNotOptimize(sim->makespan);
  }
  state.SetLabel("d=" + std::to_string(d) +
                 " P=" + std::to_string(num_sites));
}
BENCHMARK(BM_SplitPlaceSimulate)
    ->ArgsProduct({{2, 3, 6}, {64, 1024, 4096}})
    ->Unit(benchmark::kMicrosecond);

// Parallelization alone through the production SplitIntoCloneSet path
// (d = 3 only: the cost-model split is tied to the CPU/disk/net layout).
void BM_SplitOnly(benchmark::State& state) {
  const int num_sites = static_cast<int>(state.range(0));
  const CostParams params;
  const OverlapUsageModel usage(0.5);
  std::vector<OperatorCost> costs;
  for (int i = 0; i < kOpsPerBatch; ++i) {
    OperatorCost cost;
    cost.op_id = i;
    cost.processing = WorkVector(
        {400.0 + 30.0 * (i % 7), 300.0 + 50.0 * (i % 3), 10.0});
    cost.data_bytes = 25000.0 * (1 + i % 4);
    costs.push_back(cost);
  }
  for (auto _ : state) {
    for (const OperatorCost& cost : costs) {
      auto op = ParallelizeFloating(cost, params, usage, 0.7, num_sites);
      if (!op.ok()) {
        state.SkipWithError("parallelization failed");
        return;
      }
      benchmark::DoNotOptimize(op->t_par);
    }
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerBatch);
}
BENCHMARK(BM_SplitOnly)->Arg(64)->Arg(1024)->Arg(4096);

// The fluid simulator's fused event loops over a fixed schedule.
void BM_SimulateOnly(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int num_sites = static_cast<int>(state.range(1));
  const OverlapUsageModel usage(0.5);
  std::vector<ParallelizedOp> ops = MakeBatch(d, num_sites, usage);
  auto schedule = OperatorSchedule(ops, num_sites, d);
  if (!schedule.ok()) {
    state.SkipWithError("scheduling failed");
    return;
  }
  const FluidSimulator simulator(SharingPolicy::kUniformSlowdown);
  for (auto _ : state) {
    auto sim = simulator.SimulatePhase(*schedule);
    if (!sim.ok()) {
      state.SkipWithError("simulation failed");
      return;
    }
    benchmark::DoNotOptimize(sim->makespan);
  }
  state.SetLabel("d=" + std::to_string(d) +
                 " P=" + std::to_string(num_sites));
}
BENCHMARK(BM_SimulateOnly)
    ->ArgsProduct({{2, 3, 6}, {64, 1024, 4096}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace mrs
