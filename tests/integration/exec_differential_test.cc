// Differential execution harness: every plan is scheduled by the engines
// (TREESCHEDULE, LISTSCHEDULE task-wave and pipelined, SYNCHRONOUS) and
// then *run* on the execute backend, whose virtual timeline must equal the
// fluid simulator's SimulateTimed bit for bit and agree with an
// independent realization of the optimal-stretch fluid discipline
// (per-clone remaining fractions, tests/oracles/virtual_timeline_oracle.cc)
// within tolerance on every site finish time, busy vector, clone
// completion, and the phase makespan. The SYNCHRONOUS baseline emits task
// placements rather than a Schedule, so its plan is reconstructed with
// ParallelizeRooted + PlaceAt at each task's start instant and compared on
// the same shared timeline.
//
// Replayability matches engine_differential_test.cc: SCOPED_TRACE carries
// the case tuple, MRS_FUZZ_SEED re-roots the sweep, and the pinned
// tests/data/fuzz_corpus.txt tuples replay verbatim.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/synchronous.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "cost/parallelize.h"
#include "exec/exec_backend.h"
#include "exec/execute_backend.h"
#include "exec/fluid_simulator.h"
#include "oracles/virtual_timeline_oracle.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"
#include "test_util.h"
#include "workload/generator.h"

namespace mrs {
namespace {

/// Same tuple layout as tests/data/fuzz_corpus.txt (seed eps f sites
/// threads joins sortp aggp); `threads` sizes the execute backend's pool.
struct ExecDiffCase {
  uint64_t seed = 0;
  double eps = 0.5;
  double f = 0.7;
  int sites = 16;
  int threads = 2;
  int joins = 6;
  double sort_probability = 0.0;
  double aggregate_probability = 0.0;

  std::string ToString() const {
    return StrFormat("(seed=%llu eps=%g f=%g P=%d threads=%d joins=%d "
                     "sortp=%g aggp=%g)",
                     static_cast<unsigned long long>(seed), eps, f, sites,
                     threads, joins, sort_probability,
                     aggregate_probability);
  }
};

struct EngineInputs {
  GeneratedQuery query;
  OperatorTree op_tree;
  TaskTree task_tree;
  std::vector<OperatorCost> costs;
};

bool BuildInputs(const ExecDiffCase& c, Rng* stream, EngineInputs* inputs) {
  WorkloadParams workload;
  workload.num_joins = c.joins;
  workload.sort_probability = c.sort_probability;
  workload.aggregate_probability = c.aggregate_probability;
  auto query = GenerateQuery(workload, stream);
  if (!query.ok()) {
    ADD_FAILURE() << "GenerateQuery: " << query.status().ToString();
    return false;
  }
  inputs->query = std::move(query).value();
  auto ops = OperatorTree::FromPlan(*inputs->query.plan);
  if (!ops.ok()) {
    ADD_FAILURE() << "FromPlan: " << ops.status().ToString();
    return false;
  }
  inputs->op_tree = std::move(ops).value();
  auto tasks = TaskTree::FromOperatorTree(&inputs->op_tree);
  if (!tasks.ok()) {
    ADD_FAILURE() << "FromOperatorTree: " << tasks.status().ToString();
    return false;
  }
  inputs->task_tree = std::move(tasks).value();
  CostModel model(CostParams{}, MachineConfig{}.dims);
  auto costs = model.CostAll(inputs->op_tree);
  if (!costs.ok()) {
    ADD_FAILURE() << "CostAll: " << costs.status().ToString();
    return false;
  }
  inputs->costs = std::move(costs).value();
  return true;
}

/// The two timelines must agree everywhere: both implement eq. (2) on
/// remaining work under staggered arrivals, one via fractions, one via
/// mutated vectors, so differences beyond floating-point noise are bugs
/// in either realization.
void ExpectTimelinesAgree(const PhaseSimulation& exec,
                          const PhaseSimulation& sim,
                          const Schedule& schedule) {
  const double scale = std::max(1.0, sim.makespan);
  const double tol = 1e-6 * scale;
  EXPECT_NEAR(exec.makespan, sim.makespan, tol);
  ASSERT_EQ(exec.sites.size(), sim.sites.size());
  for (size_t j = 0; j < sim.sites.size(); ++j) {
    SCOPED_TRACE(::testing::Message() << "site " << j);
    EXPECT_NEAR(exec.sites[j].finish, sim.sites[j].finish, tol);
    ASSERT_EQ(exec.sites[j].busy.dim(), sim.sites[j].busy.dim());
    for (size_t d = 0; d < sim.sites[j].busy.dim(); ++d) {
      EXPECT_NEAR(exec.sites[j].busy[d], sim.sites[j].busy[d], tol)
          << "busy dim " << d;
    }
  }
  ASSERT_EQ(exec.clone_finish.size(), sim.clone_finish.size());
  ASSERT_EQ(exec.clone_finish.size(),
            static_cast<size_t>(schedule.num_placements()));
  for (size_t p = 0; p < sim.clone_finish.size(); ++p) {
    EXPECT_NEAR(exec.clone_finish[p], sim.clone_finish[p], tol)
        << "clone " << p;
    // A clone never finishes before it starts.
    EXPECT_GE(exec.clone_finish[p],
              schedule.placements()[p].start - tol);
  }
}

/// The execute backend's timeline is SimulateTimed's, bit for bit, and
/// agrees with the independent oracle sweep within tolerance.
void CheckTimeline(const ExecutionResult& run, const FluidSimulator& simulator,
                   const Schedule& schedule) {
  auto sim = simulator.SimulateTimed(schedule);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_EQ(run.timeline.makespan, sim->makespan);
  ASSERT_EQ(run.timeline.sites.size(), sim->sites.size());
  for (size_t j = 0; j < sim->sites.size(); ++j) {
    EXPECT_EQ(run.timeline.sites[j].finish, sim->sites[j].finish);
    EXPECT_EQ(run.timeline.sites[j].busy, sim->sites[j].busy);
  }
  EXPECT_EQ(run.timeline.clone_finish, sim->clone_finish);

  PhaseSimulation oracle_timeline;
  const Status oracle_status =
      oracle::ComputeVirtualTimeline(schedule, &oracle_timeline);
  ASSERT_TRUE(oracle_status.ok()) << oracle_status.ToString();
  ExpectTimelinesAgree(run.timeline, oracle_timeline, schedule);
}

/// Sanity on the execution records themselves (rows ran, fractions sane,
/// records parallel to the placements).
void ExpectExecutionSane(const ExecutionResult& run,
                         const Schedule& schedule) {
  ASSERT_EQ(run.clones.size(),
            static_cast<size_t>(schedule.num_placements()));
  for (size_t p = 0; p < run.clones.size(); ++p) {
    const CloneExecution& clone = run.clones[p];
    const ClonePlacement& placement = schedule.placements()[p];
    EXPECT_EQ(clone.op_id, placement.op_id);
    EXPECT_EQ(clone.site, placement.site);
    EXPECT_GE(clone.rows_in, 0);
    EXPECT_GE(clone.rows_out, 0);
    EXPECT_GE(clone.measured_ms, 0.0);
    EXPECT_GE(clone.row_fraction, 0.0);
    EXPECT_LE(clone.row_fraction, 1.0);
    EXPECT_LE(clone.virtual_start, clone.virtual_finish);
  }
}

/// Rebuilds the SYNCHRONOUS baseline's placement as a timed Schedule:
/// every stage is a rooted parallelization at its allotted sites, placed
/// at the task's start instant on the shared timeline.
bool ReconstructSyncSchedule(const SynchronousResult& sync,
                             const EngineInputs& inputs,
                             const CostParams& params,
                             const MachineConfig& machine,
                             const OverlapUsageModel& usage,
                             Schedule* schedule) {
  for (const SyncTaskPlacement& task : sync.tasks) {
    for (const SyncStagePlacement& stage : task.stages) {
      auto op = ParallelizeRooted(
          inputs.costs[static_cast<size_t>(stage.op_id)], params, usage,
          stage.sites, machine.num_sites);
      if (!op.ok()) {
        ADD_FAILURE() << "ParallelizeRooted op" << stage.op_id << ": "
                      << op.status().ToString();
        return false;
      }
      for (int k = 0; k < op->degree; ++k) {
        Status placed = schedule->PlaceAt(*op, k, op->home[static_cast<size_t>(k)],
                                          task.start_time);
        if (!placed.ok()) {
          ADD_FAILURE() << "PlaceAt op" << stage.op_id << " clone " << k
                        << ": " << placed.ToString();
          return false;
        }
      }
    }
  }
  return true;
}

void CheckExecutionCase(const ExecDiffCase& c, int plans_per_case) {
  SCOPED_TRACE("execution differential case " + c.ToString() +
               " — replay via MRS_FUZZ_SEED or tests/data/fuzz_corpus.txt");
  MachineConfig machine;
  machine.num_sites = c.sites;
  const CostParams params;
  const OverlapUsageModel usage(c.eps);
  const FluidSimulator simulator(SharingPolicy::kOptimalStretch);
  ExecuteOptions exec;
  exec.meter = ExecMeter::kDeterministic;
  exec.threads = c.threads;

  Rng master(c.seed);
  for (int plan_idx = 0; plan_idx < plans_per_case; ++plan_idx) {
    SCOPED_TRACE(::testing::Message() << "plan " << plan_idx);
    Rng stream = master.Fork();
    EngineInputs inputs;
    if (!BuildInputs(c, &stream, &inputs)) return;
    const std::vector<ExecOpSpec> specs = ExecOpSpecsFromTree(inputs.op_tree);

    // --- TREESCHEDULE: phases replay back to back on one backend. ---
    TreeScheduleOptions tree_options;
    tree_options.granularity = c.f;
    auto tree = TreeSchedule(inputs.op_tree, inputs.task_tree, inputs.costs,
                             params, machine, usage, tree_options);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    {
      ExecuteBackend backend(exec);
      for (const PhaseSchedule& phase : tree->phases) {
        SCOPED_TRACE(::testing::Message() << "tree phase " << phase.phase);
        auto run = backend.Run(phase.schedule, specs);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        CheckTimeline(*run, simulator, phase.schedule);
        ExpectExecutionSane(*run, phase.schedule);
      }
    }

    // --- LISTSCHEDULE: one timed schedule with staggered starts. ---
    ListScheduleOptions list_options;
    list_options.tree.granularity = c.f;
    auto list = ListSchedule(inputs.op_tree, inputs.task_tree, inputs.costs,
                             params, machine, usage, list_options);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    {
      SCOPED_TRACE("list schedule");
      ExecuteBackend backend(exec);
      auto run = backend.Run(list->schedule, specs);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      CheckTimeline(*run, simulator, list->schedule);
      ExpectExecutionSane(*run, list->schedule);
    }

    // --- PIPELINED LISTSCHEDULE: overlapping producer/consumer residency
    // on the same timeline discipline; the pipelined replay (bounded
    // queues, dedicated threads) must still carry SimulateTimed's
    // timeline and stay byte-identical across thread counts. ---
    ListScheduleOptions pipe_sched_options;
    pipe_sched_options.tree.granularity = c.f;
    pipe_sched_options.pipeline = true;
    auto piped = ListSchedule(inputs.op_tree, inputs.task_tree, inputs.costs,
                              params, machine, usage, pipe_sched_options);
    ASSERT_TRUE(piped.ok()) << piped.status().ToString();
    {
      SCOPED_TRACE("pipelined list schedule");
      ExecuteOptions pipe_exec = exec;
      pipe_exec.pipeline_edges = true;
      ExecuteBackend backend(pipe_exec);
      auto run = backend.Run(piped->schedule, specs);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      CheckTimeline(*run, simulator, piped->schedule);
      ExpectExecutionSane(*run, piped->schedule);

      ExecuteOptions repool = pipe_exec;
      repool.threads = c.threads == 1 ? 3 : 1;
      ExecuteBackend backend2(repool);
      auto run2 = backend2.Run(piped->schedule, specs);
      ASSERT_TRUE(run2.ok()) << run2.status().ToString();
      EXPECT_EQ(run->digest, run2->digest)
          << "pipelined digest depends on the pool size";
      EXPECT_EQ(run->rows_out, run2->rows_out);
    }

    // --- SYNCHRONOUS: reconstructed as a timed schedule. ---
    auto sync = SynchronousSchedule(inputs.op_tree, inputs.task_tree,
                                    inputs.costs, params, machine, usage);
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    {
      SCOPED_TRACE("synchronous schedule");
      Schedule schedule(machine.num_sites, machine.dims);
      if (!ReconstructSyncSchedule(*sync, inputs, params, machine, usage,
                                   &schedule)) {
        return;
      }
      ExecuteBackend backend(exec);
      auto run = backend.Run(schedule, specs);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      CheckTimeline(*run, simulator, schedule);
      ExpectExecutionSane(*run, schedule);
    }
  }
}

ExecDiffCase DrawCase(Rng* rng) {
  ExecDiffCase c;
  c.joins = 2 + static_cast<int>(rng->Index(8));
  c.sort_probability = rng->Bernoulli(0.3) ? 0.2 : 0.0;
  c.aggregate_probability = rng->Bernoulli(0.3) ? 0.2 : 0.0;
  c.eps = rng->UniformDouble();
  c.f = rng->UniformDouble(0.3, 0.9);
  c.sites = 4 + static_cast<int>(rng->Index(28));
  c.threads = 1 + static_cast<int>(rng->Index(4));
  c.seed = rng->Next();
  return c;
}

class ExecDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecDifferentialTest, ExecuteTimelineMatchesSimulator) {
  const uint64_t sweep_seed = testing_util::FuzzSeed(GetParam());
  Rng rng(sweep_seed);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(::testing::Message() << "sweep seed " << sweep_seed
                                      << " round " << round);
    CheckExecutionCase(DrawCase(&rng), /*plans_per_case=*/2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExecDifferentialTest,
                         ::testing::Values(44044u, 55055u, 66066u));

/// Every pinned corpus tuple replays through the execution differential
/// harness across all three engines.
TEST(ExecDifferentialCorpusTest, PinnedTuplesAgreeWithSimulator) {
  const std::string path = std::string(MRS_TEST_DATA_DIR) +
                           "/fuzz_corpus.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing corpus file: " << path;
  std::string line;
  int cases = 0;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    ExecDiffCase c;
    if (!(ls >> c.seed >> c.eps >> c.f >> c.sites >> c.threads >> c.joins >>
          c.sort_probability >> c.aggregate_probability)) {
      continue;  // blank / comment-only line (grammar pinned elsewhere)
    }
    SCOPED_TRACE(::testing::Message()
                 << "corpus line " << line_no << " of " << path);
    CheckExecutionCase(c, /*plans_per_case=*/2);
    ++cases;
  }
  EXPECT_GE(cases, 6) << "corpus should pin at least six tuples";
}

}  // namespace
}  // namespace mrs
