// Differential correctness harness across the engines: on every fuzz
// plan, TREESCHEDULE, LISTSCHEDULE (task-wave and pipelined), and the
// SYNCHRONOUS baseline are run with matched knobs and cross-checked
// against each other and against the analytic lower bounds:
//
//   * PIPELINED <= LIST <= TREE on every plan (the guard chain);
//   * a pipelined consumer clone never starts before its producer;
//   * every engine's answer is >= its own lower bound — the critical-path
//     bound over the task tree (sum of per-task max T_par along any
//     root-leaf path, under the engine's chosen degrees) and the packing
//     bound l(S_total)/P;
//   * LIST stays within (2d+1) of the per-phase lower-bound sum, the
//     Theorem 5.1(a) guarantee it inherits from TREESCHEDULE via the
//     guard;
//   * structural validity (constraint A, rooted homes) and precedence on
//     the shared timeline;
//   * capacity feasibility of every reported timeline (TREE per phase,
//     LIST and PIPELINED with their guards on and off): no site window
//     holds more work than its length on any resource, and no clone runs
//     faster than its T_seq (CheckWindowCapacity).
//
// Replayability matches batch_fuzz_test.cc: every check runs under a
// SCOPED_TRACE carrying the full case tuple, MRS_FUZZ_SEED re-roots the
// random sweeps, and tests/data/fuzz_corpus.txt tuples replay verbatim.

#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/synchronous.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"
#include "test_util.h"
#include "workload/generator.h"

namespace mrs {
namespace {

using testing_util::CheckWindowCapacity;
using testing_util::ListScheduleLowerBound;

/// One pinned differential case (same tuple layout as batch_fuzz_test.cc
/// and tests/data/fuzz_corpus.txt: seed eps f sites threads joins sortp
/// aggp — `threads` is parsed for corpus compatibility but unused here,
/// the engines under test are single-query).
struct DiffCase {
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

/// Scheduler inputs derived from one generated plan. The task tree holds a
/// pointer into the operator tree, so both live here together.
struct EngineInputs {
  GeneratedQuery query;
  OperatorTree op_tree;
  TaskTree task_tree;
  std::vector<OperatorCost> costs;
};

bool BuildInputs(const DiffCase& c, Rng* stream, EngineInputs* inputs) {
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

/// Critical-path lower bound over the task tree for a concrete
/// parallelization: max over root-leaf paths of the per-task max T_par.
/// Valid for any engine that (a) never runs a clone faster than its
/// stand-alone time and (b) starts a task only after its children finish.
double CriticalPathBound(const TaskTree& task_tree,
                         const std::vector<ParallelizedOp>& ops) {
  std::vector<double> task_tpar(
      static_cast<size_t>(task_tree.num_tasks()), 0.0);
  for (const QueryTask& task : task_tree.tasks()) {
    for (int oid : task.ops) {
      for (const ParallelizedOp& op : ops) {
        if (op.op_id == oid) {
          task_tpar[static_cast<size_t>(task.id)] =
              std::max(task_tpar[static_cast<size_t>(task.id)], op.t_par);
        }
      }
    }
  }
  // Deepest-first accumulation: cp(task) = own + max over children.
  std::vector<double> cp = task_tpar;
  std::vector<int> order;
  for (const QueryTask& task : task_tree.tasks()) order.push_back(task.id);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return task_tree.task(a).depth > task_tree.task(b).depth;
  });
  double best = 0.0;
  for (int tid : order) {
    const QueryTask& task = task_tree.task(tid);
    double deepest_child = 0.0;
    for (int child : task.children) {
      deepest_child =
          std::max(deepest_child, cp[static_cast<size_t>(child)]);
    }
    cp[static_cast<size_t>(tid)] += deepest_child;
    best = std::max(best, cp[static_cast<size_t>(tid)]);
  }
  return best;
}

/// Runs all three engines on every plan of one case and cross-checks.
void CheckCase(const DiffCase& c, int plans_per_case) {
  SCOPED_TRACE("differential case " + c.ToString() +
               " — replay via MRS_FUZZ_SEED or tests/data/fuzz_corpus.txt");
  MachineConfig machine;
  machine.num_sites = c.sites;
  const CostParams params;
  const OverlapUsageModel usage(c.eps);
  const double tol = 1e-6;

  Rng master(c.seed);
  for (int plan_idx = 0; plan_idx < plans_per_case; ++plan_idx) {
    SCOPED_TRACE(::testing::Message() << "plan " << plan_idx);
    Rng stream = master.Fork();
    EngineInputs inputs;
    if (!BuildInputs(c, &stream, &inputs)) return;

    TreeScheduleOptions tree_options;
    tree_options.granularity = c.f;
    auto tree = TreeSchedule(inputs.op_tree, inputs.task_tree, inputs.costs,
                             params, machine, usage, tree_options);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();

    ListScheduleOptions list_options;
    list_options.tree.granularity = c.f;
    auto list = ListSchedule(inputs.op_tree, inputs.task_tree, inputs.costs,
                             params, machine, usage, list_options);
    ASSERT_TRUE(list.ok()) << list.status().ToString();

    auto sync = SynchronousSchedule(inputs.op_tree, inputs.task_tree,
                                    inputs.costs, params, machine, usage);
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();

    ListScheduleOptions pipe_options;
    pipe_options.tree.granularity = c.f;
    pipe_options.pipeline = true;
    auto piped = ListSchedule(inputs.op_tree, inputs.task_tree, inputs.costs,
                              params, machine, usage, pipe_options);
    ASSERT_TRUE(piped.ok()) << piped.status().ToString();

    // --- The dominance invariants: PIPELINED <= LIST <= TREE. ---
    EXPECT_LE(list->makespan, tree->response_time + tol)
        << "barrier-free schedule slower than the phased engine";
    EXPECT_NEAR(list->tree_response_time, tree->response_time,
                tol * std::max(1.0, tree->response_time));
    EXPECT_LE(piped->makespan, list->makespan + tol)
        << "pipelined schedule slower than task-wave LIST despite the guard";
    EXPECT_LE(piped->makespan, tree->response_time + tol);
    // Exactly one of pipelined/wave-fallback, unless the tree_guard
    // overrode both with the phased schedule.
    if (!piped->used_tree_fallback) {
      EXPECT_NE(piped->pipelined, piped->used_list_fallback);
    }
    EXPECT_NEAR(piped->list_makespan, list->makespan,
                tol * std::max(1.0, list->makespan));

    // --- Pipelined structure: a consumer clone never starts before its
    // producer (equal starts are the point — co-residency). Checked over
    // every pipelined data edge via earliest clone start per op. ---
    EXPECT_TRUE(piped->schedule.Validate(piped->ops).ok());
    {
      std::vector<double> first_start(
          static_cast<size_t>(inputs.op_tree.num_ops()),
          std::numeric_limits<double>::infinity());
      for (const ClonePlacement& p : piped->schedule.placements()) {
        first_start[static_cast<size_t>(p.op_id)] =
            std::min(first_start[static_cast<size_t>(p.op_id)], p.start);
      }
      for (const PhysicalOp& op : inputs.op_tree.ops()) {
        for (int d : op.data_inputs) {
          EXPECT_GE(first_start[static_cast<size_t>(op.id)],
                    first_start[static_cast<size_t>(d)] - tol)
              << "op" << op.id << " starts before its producer op" << d;
        }
      }
    }

    // --- Pipelined lower bounds: rate matching never runs a clone
    // faster than its stand-alone time and tasks still respect the task
    // tree, so the same critical-path + packing bounds apply to the
    // pipelined engine's own degrees. ---
    const double piped_lb =
        std::max(CriticalPathBound(inputs.task_tree, piped->ops),
                 ListScheduleLowerBound(piped->ops, c.sites));
    EXPECT_GE(piped->makespan, piped_lb - tol)
        << "pipelined beat its lower bound";

    // --- Structural validity. ---
    EXPECT_TRUE(list->schedule.Validate(list->ops).ok());
    for (const PhaseSchedule& phase : tree->phases) {
      EXPECT_TRUE(phase.schedule.Validate(phase.ops).ok());
    }
    // Precedence on the shared timeline.
    for (const QueryTask& task : inputs.task_tree.tasks()) {
      for (int child : task.children) {
        EXPECT_GE(list->tasks[static_cast<size_t>(task.id)].start,
                  list->tasks[static_cast<size_t>(child)].finish - tol);
      }
    }

    // --- Lower bounds, each engine against its own degrees. ---
    const double list_lb =
        std::max(CriticalPathBound(inputs.task_tree, list->ops),
                 ListScheduleLowerBound(list->ops, c.sites));
    EXPECT_GE(list->makespan, list_lb - tol) << "list beat its lower bound";

    std::vector<ParallelizedOp> tree_ops;
    double tree_phase_lb_sum = 0.0;
    for (const PhaseSchedule& phase : tree->phases) {
      tree_phase_lb_sum += ListScheduleLowerBound(phase.ops, c.sites);
      tree_ops.insert(tree_ops.end(), phase.ops.begin(), phase.ops.end());
    }
    const double tree_lb =
        std::max(CriticalPathBound(inputs.task_tree, tree_ops),
                 ListScheduleLowerBound(tree_ops, c.sites));
    EXPECT_GE(tree->response_time, tree_lb - tol)
        << "tree beat its lower bound";

    // --- Theorem 5.1(a) inherited through the guard: LIST is within
    // (2d+1) of the per-phase lower-bound sum. ---
    EXPECT_LE(list->makespan,
              (2.0 * machine.dims + 1.0) * tree_phase_lb_sum + tol);
    // The pipelined engine inherits the same guarantee through its guard
    // chain (PIPELINED <= LIST <= (2d+1) * sum of phase lower bounds).
    EXPECT_LE(piped->makespan,
              (2.0 * machine.dims + 1.0) * tree_phase_lb_sum + tol);

    // --- Capacity feasibility, from placements and finishes alone. The
    // unguarded greedy schedules are checked too: with the guards on they
    // are mostly replaced by the aligned fallback. ---
    for (const PhaseSchedule& phase : tree->phases) {
      EXPECT_TRUE(CheckWindowCapacity(phase.schedule,
                                      phase.schedule.CloneFinishTimes()))
          << "tree phase " << phase.phase;
    }
    EXPECT_TRUE(CheckWindowCapacity(list->schedule, list->clone_finish))
        << "list";
    EXPECT_TRUE(CheckWindowCapacity(piped->schedule, piped->clone_finish))
        << "pipelined";
    for (bool pipeline : {false, true}) {
      ListScheduleOptions greedy_options;
      greedy_options.tree.granularity = c.f;
      greedy_options.pipeline = pipeline;
      greedy_options.pipeline_guard = false;
      greedy_options.tree_guard = false;
      auto greedy = ListSchedule(inputs.op_tree, inputs.task_tree,
                                 inputs.costs, params, machine, usage,
                                 greedy_options);
      ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
      EXPECT_TRUE(CheckWindowCapacity(greedy->schedule, greedy->clone_finish))
          << (pipeline ? "unguarded pipelined" : "unguarded list");
    }

    // --- SYNCHRONOUS: structurally sound and positive (it is the
    // adversary baseline, so no dominance direction is asserted). ---
    EXPECT_GT(sync->response_time, 0.0);
    ASSERT_EQ(static_cast<int>(sync->tasks.size()),
              inputs.task_tree.num_tasks());
    // Placements arrive in traversal order, not task-id order.
    std::vector<const SyncTaskPlacement*> by_id(sync->tasks.size(), nullptr);
    for (const SyncTaskPlacement& task : sync->tasks) {
      ASSERT_GE(task.task_id, 0);
      ASSERT_LT(task.task_id, static_cast<int>(by_id.size()));
      by_id[static_cast<size_t>(task.task_id)] = &task;
    }
    for (const SyncTaskPlacement& task : sync->tasks) {
      EXPECT_GE(task.start_time, -tol);
      EXPECT_LE(task.start_time + task.duration, sync->response_time + tol);
      for (int child : inputs.task_tree.task(task.task_id).children) {
        const SyncTaskPlacement& child_placement =
            *by_id[static_cast<size_t>(child)];
        EXPECT_GE(task.start_time, child_placement.start_time +
                                       child_placement.duration - tol);
      }
    }
  }
}

TEST(CapacityCheckTest, FlagsOversubscribedWindowsAndTooFastClones) {
  const OverlapUsageModel usage(1.0);  // T_seq = l(W)
  Schedule s(1, 2);
  ASSERT_TRUE(s.PlaceAt(testing_util::MakeUnitOp(0, {4.0, 0.0}, usage), 0,
                        0, 0.0)
                  .ok());
  ASSERT_TRUE(s.PlaceAt(testing_util::MakeUnitOp(1, {4.0, 1.0}, usage), 0,
                        0, 2.0)
                  .ok());
  EXPECT_TRUE(CheckWindowCapacity(s, s.CloneFinishTimes()));
  EXPECT_TRUE(CheckWindowCapacity(s, {4.0, 10.0}));  // idles, feasible
  // 8 ms of CPU work inside [0, 7]: one resource oversubscribed.
  EXPECT_FALSE(CheckWindowCapacity(s, {6.0, 7.0}));
  // Clone 1 needs 4 ms alone but would run [2, 5.5].
  EXPECT_FALSE(CheckWindowCapacity(s, {4.0, 5.5}));
  EXPECT_FALSE(CheckWindowCapacity(s, {4.0}));  // not parallel to placements
}

DiffCase DrawCase(Rng* rng) {
  DiffCase c;
  c.joins = 2 + static_cast<int>(rng->Index(10));
  c.sort_probability = rng->Bernoulli(0.3) ? 0.2 : 0.0;
  c.aggregate_probability = rng->Bernoulli(0.3) ? 0.2 : 0.0;
  c.eps = rng->UniformDouble();
  c.f = rng->UniformDouble(0.3, 0.9);
  c.sites = 4 + static_cast<int>(rng->Index(60));
  c.seed = rng->Next();
  return c;
}

class EngineDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineDifferentialTest, ListNeverLosesAndBoundsHold) {
  // 10 cases x 7 plans = 70 plans per sweep seed; three seeds and the
  // corpus together cover well over 200 plans per ctest invocation.
  const uint64_t sweep_seed = testing_util::FuzzSeed(GetParam());
  Rng rng(sweep_seed);
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE(::testing::Message() << "sweep seed " << sweep_seed
                                      << " round " << round);
    CheckCase(DrawCase(&rng), /*plans_per_case=*/7);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineDifferentialTest,
                         ::testing::Values(11011u, 22022u, 33033u));

/// The pinned corpus tuples replay through the differential harness too —
/// the same file batch_fuzz_test.cc uses, parsed with the same grammar.
TEST(EngineDifferentialCorpusTest, PinnedTuplesStillHold) {
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
    DiffCase c;
    if (!(ls >> c.seed >> c.eps >> c.f >> c.sites >> c.threads >> c.joins >>
          c.sort_probability >> c.aggregate_probability)) {
      std::istringstream check(line);
      std::string stray;
      ASSERT_FALSE(static_cast<bool>(check >> stray))
          << "malformed corpus line " << line_no << ": " << line;
      continue;  // blank / comment-only line
    }
    SCOPED_TRACE(::testing::Message()
                 << "corpus line " << line_no << " of " << path);
    CheckCase(c, /*plans_per_case=*/8);
    ++cases;
  }
  EXPECT_GE(cases, 6) << "corpus should pin at least six tuples";
}

}  // namespace
}  // namespace mrs
