// Tests for the backend split (exec/exec_backend.h): the factory, the
// SimulateBackend's equivalence with the raw fluid simulator, and the
// ExecuteBackend's contracts — deterministic digests across thread
// counts, row-cap accounting, cross-phase state (probe after build),
// error paths for dangling blocking edges, and the allocation-free
// steady state of the operator hot loops.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/tree_schedule.h"
#include "cost/parallelize.h"
#include "exec/calibrate.h"
#include "exec/exec_backend.h"
#include "exec/execute_backend.h"
#include "exec/fluid_simulator.h"
#include "exec/operators.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::PipelinedChainFixture;
using testing_util::PlanFixture;

struct BackendFixture {
  PlanFixture fx;
  MachineConfig machine;
  OverlapUsageModel usage{0.5};
  TreeScheduleResult plan;
  std::vector<ExecOpSpec> specs;
};

BackendFixture MakeBackendFixture(PlanFixture fx) {
  BackendFixture b;
  b.fx = std::move(fx);
  auto plan = TreeSchedule(b.fx.op_tree, b.fx.task_tree, b.fx.costs,
                           CostParams{}, b.machine, b.usage);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  b.plan = std::move(plan).value();
  b.specs = ExecOpSpecsFromTree(b.fx.op_tree);
  return b;
}

TEST(ExecOpSpecsTest, SpecsMirrorTheOperatorTree) {
  const PlanFixture fx = BushyFourWayFixture();
  const std::vector<ExecOpSpec> specs = ExecOpSpecsFromTree(fx.op_tree);
  ASSERT_EQ(static_cast<int>(specs.size()), fx.op_tree.num_ops());
  int probes = 0;
  for (const ExecOpSpec& spec : specs) {
    EXPECT_EQ(spec.op_id, specs[static_cast<size_t>(spec.op_id)].op_id)
        << "specs must be indexed by operator id";
    if (spec.kind == OperatorKind::kProbe) {
      ++probes;
      ASSERT_GE(spec.blocking_input, 0) << "probe must name its build";
      EXPECT_EQ(specs[static_cast<size_t>(spec.blocking_input)].kind,
                OperatorKind::kBuild);
    }
  }
  EXPECT_EQ(probes, 3) << "bushy four-way plan has three joins";
}

TEST(ExecBackendFactoryTest, ResolvesModesAndRejectsUnknown) {
  auto simulate = MakeExecBackend("simulate");
  ASSERT_TRUE(simulate.ok());
  EXPECT_EQ((*simulate)->name(), "simulate");
  auto execute = MakeExecBackend("execute");
  ASSERT_TRUE(execute.ok());
  EXPECT_EQ((*execute)->name(), "execute");
  EXPECT_FALSE(MakeExecBackend("warp-drive").ok());
}

TEST(SimulateBackendTest, MatchesTheRawFluidSimulator) {
  BackendFixture b = MakeBackendFixture(BushyFourWayFixture());
  SimulateBackend backend;
  const FluidSimulator simulator;
  for (const PhaseSchedule& phase : b.plan.phases) {
    auto run = backend.Run(phase.schedule, b.specs);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    auto sim = simulator.SimulateTimed(phase.schedule);
    ASSERT_TRUE(sim.ok()) << sim.status().ToString();
    EXPECT_EQ(run->timeline.makespan, sim->makespan);
    ASSERT_EQ(run->timeline.clone_finish.size(), sim->clone_finish.size());
    for (size_t p = 0; p < sim->clone_finish.size(); ++p) {
      EXPECT_EQ(run->timeline.clone_finish[p], sim->clone_finish[p]);
      // The simulator's "measurement" is the model's own T_seq.
      EXPECT_EQ(run->clones[p].measured_ms,
                phase.schedule.placements()[p].t_seq);
    }
  }
}

Result<std::vector<ExecutionResult>> RunWholePlan(const BackendFixture& b,
                                                  int threads) {
  ExecuteOptions options;
  options.meter = ExecMeter::kDeterministic;
  options.threads = threads;
  ExecuteBackend backend(options);
  return backend.RunTree(b.plan, b.specs);
}

TEST(ExecuteBackendTest, DigestsAreByteIdenticalAcrossThreadCounts) {
  BackendFixture b = MakeBackendFixture(BushyFourWayFixture());
  auto one = RunWholePlan(b, 1);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  auto four = RunWholePlan(b, 4);
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  ASSERT_EQ(one->size(), four->size());
  for (size_t phase = 0; phase < one->size(); ++phase) {
    const ExecutionResult& a = (*one)[phase];
    const ExecutionResult& c = (*four)[phase];
    EXPECT_EQ(a.digest, c.digest) << "phase " << phase;
    EXPECT_EQ(a.rows_out, c.rows_out);
    EXPECT_EQ(a.timeline.makespan, c.timeline.makespan);
    ASSERT_EQ(a.clones.size(), c.clones.size());
    for (size_t p = 0; p < a.clones.size(); ++p) {
      EXPECT_EQ(a.clones[p].rows_in, c.clones[p].rows_in);
      EXPECT_EQ(a.clones[p].rows_out, c.clones[p].rows_out);
      // The deterministic meter is a pure function of the row counts, so
      // even "measured" times replay byte-identically.
      EXPECT_EQ(a.clones[p].measured_ms, c.clones[p].measured_ms);
      EXPECT_EQ(a.clones[p].virtual_start, c.clones[p].virtual_start);
      EXPECT_EQ(a.clones[p].virtual_finish, c.clones[p].virtual_finish);
    }
  }
}

TEST(ExecuteBackendTest, RowCapBindsAndReportsTheFraction) {
  BackendFixture b = MakeBackendFixture(BushyFourWayFixture());
  ExecuteOptions options;
  options.meter = ExecMeter::kDeterministic;
  options.max_rows_per_op = 100;
  options.threads = 2;
  ExecuteBackend backend(options);
  auto runs = backend.RunTree(b.plan, b.specs);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  for (const ExecutionResult& run : *runs) {
    for (const CloneExecution& clone : run.clones) {
      const ExecOpSpec& spec = b.specs[static_cast<size_t>(clone.op_id)];
      EXPECT_GE(clone.row_fraction, 0.0);
      EXPECT_LE(clone.row_fraction, 1.0);
      if (spec.input_tuples > 100) {
        EXPECT_NEAR(clone.row_fraction,
                    100.0 / static_cast<double>(spec.input_tuples), 1e-12);
      }
    }
  }
}

TEST(ExecuteBackendTest, UncappedRunExecutesTheModeledCardinality) {
  BackendFixture b = MakeBackendFixture(
      testing_util::BushyFourWayFixture({500, 300, 400, 200}));
  ExecuteOptions options;
  options.meter = ExecMeter::kDeterministic;
  options.max_rows_per_op = 0;  // uncapped
  options.threads = 2;
  ExecuteBackend backend(options);
  auto runs = backend.RunTree(b.plan, b.specs);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  for (const ExecutionResult& run : *runs) {
    for (const CloneExecution& clone : run.clones) {
      EXPECT_EQ(clone.row_fraction, 1.0);
    }
  }
}

/// A probe scheduled with neither its build in the schedule nor build
/// state from an earlier phase must fail loudly, and Reset must drop the
/// state that made it work.
TEST(ExecuteBackendTest, DanglingBlockingEdgeFailsAndResetDropsState) {
  BackendFixture b = MakeBackendFixture(BushyFourWayFixture());
  // Find a probe phase (every phase after the first contains probes).
  ASSERT_GE(b.plan.phases.size(), 2u);
  const PhaseSchedule& build_phase = b.plan.phases[0];
  const PhaseSchedule& probe_phase = b.plan.phases[1];

  ExecuteOptions options;
  options.meter = ExecMeter::kDeterministic;
  ExecuteBackend backend(options);
  // Probe phase without its build phase: dangling blocking edge.
  EXPECT_FALSE(backend.Run(probe_phase.schedule, b.specs).ok());

  // Build then probe succeeds...
  ASSERT_TRUE(backend.Run(build_phase.schedule, b.specs).ok());
  EXPECT_TRUE(backend.Run(probe_phase.schedule, b.specs).ok());

  // ...and Reset forgets the materialized tables.
  backend.Reset();
  EXPECT_FALSE(backend.Run(probe_phase.schedule, b.specs).ok());
}

TEST(ExecuteBackendTest, RejectsUnknownSkew) {
  BackendFixture b = MakeBackendFixture(BushyFourWayFixture());
  ExecuteOptions options;
  options.skew = 1.5;  // outside [0, 1)
  ExecuteBackend backend(options);
  EXPECT_FALSE(backend.Run(b.plan.phases[0].schedule, b.specs).ok());
}

TEST(ExecuteBackendTest, ExplainRendersSitesAndClones) {
  BackendFixture b = MakeBackendFixture(BushyFourWayFixture());
  ExecuteOptions options;
  options.meter = ExecMeter::kDeterministic;
  ExecuteBackend backend(options);
  auto run = backend.Run(b.plan.phases[0].schedule, b.specs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string text = ExplainExecution(*run, b.machine);
  EXPECT_NE(text.find("EXECUTION"), std::string::npos);
  EXPECT_NE(text.find("makespan="), std::string::npos);
  EXPECT_NE(text.find("site "), std::string::npos);
  EXPECT_EQ(text.find("wall="), std::string::npos)
      << "wall time must stay out of the deterministic rendering";
  const std::string with_wall =
      ExplainExecution(*run, b.machine, /*wall=*/true);
  EXPECT_NE(with_wall.find("wall="), std::string::npos);
}

/// The execute path's skew knob changes the generated keys (and hence the
/// digest) but not the virtual timeline, which depends only on the
/// schedule's predicted work.
TEST(ExecuteBackendTest, SkewChangesDataNotTheTimeline) {
  BackendFixture b = MakeBackendFixture(BushyFourWayFixture());
  ExecuteOptions uniform;
  uniform.meter = ExecMeter::kDeterministic;
  ExecuteOptions skewed = uniform;
  skewed.skew = 0.8;
  ExecuteBackend a(uniform);
  ExecuteBackend c(skewed);
  auto run_a = a.RunTree(b.plan, b.specs);
  auto run_c = c.RunTree(b.plan, b.specs);
  ASSERT_TRUE(run_a.ok() && run_c.ok());
  uint64_t digest_a = 0;
  uint64_t digest_c = 0;
  for (size_t i = 0; i < run_a->size(); ++i) {
    digest_a += (*run_a)[i].digest;
    digest_c += (*run_c)[i].digest;
    EXPECT_EQ((*run_a)[i].timeline.makespan, (*run_c)[i].timeline.makespan);
  }
  EXPECT_NE(digest_a, digest_c);
}

// --- Allocation-free steady state of the operator hot loops. ---

TEST(ExecAllocTest, HashTableSteadyStateIsAllocationFree) {
  if (!testing_util::AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build)";
  }
  const ExecKeyDist dist{256, 0.0};
  const int64_t rows = 2000;
  ExecHashTable table;
  // Warm-up pass sizes the storage.
  (void)BuildClonePartition(1, rows, dist, /*clone=*/0, /*degree=*/1, &table);

  // Bind `tables` outside the counted region; the build and probe loops
  // themselves must not allocate.
  uint64_t key_sum = 0;
  std::vector<const ExecHashTable*> tables = {&table};

  const uint64_t before = testing_util::AllocCount();
  (void)BuildClonePartition(1, rows, dist, /*clone=*/0, /*degree=*/1, &table);
  const uint64_t before_probe = testing_util::AllocCount();
  (void)ProbeCloneSlice(2, rows, dist, /*clone=*/0, /*degree=*/1, tables,
                        &key_sum);
  const uint64_t after = testing_util::AllocCount();
  EXPECT_EQ(before, before_probe)
      << "steady-state build pass must not allocate";
  EXPECT_EQ(before_probe, after) << "probe loop must not allocate";
}

TEST(ExecAllocTest, GroupTableSteadyStateIsAllocationFree) {
  if (!testing_util::AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build)";
  }
  const ExecKeyDist dist{128, 0.2};
  const int64_t rows = 2000;
  ExecGroupTable partial;
  (void)AccumulateCloneSlice(1, rows, dist, /*clone=*/0, /*degree=*/1,
                             &partial);
  const uint64_t before = testing_util::AllocCount();
  (void)AccumulateCloneSlice(1, rows, dist, /*clone=*/0, /*degree=*/1,
                             &partial);
  const uint64_t after = testing_util::AllocCount();
  EXPECT_EQ(before, after) << "steady-state accumulate must not allocate";
}

}  // namespace
}  // namespace mrs
