// Pins the allocation-free guarantees of the work-vector core (DESIGN.md
// §4f): with d <= WorkVector::kInlineDims, splitting an operator into a
// uniform clone set allocates nothing, placing a clone into a reserved
// schedule allocates nothing, and the marginal allocation cost per extra
// clone of OPERATORSCHEDULE and of the fluid simulator's event loops is
// zero (total allocation counts are invariant in the clone count).

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/operator_schedule.h"
#include "core/schedule.h"
#include "cost/parallelize.h"
#include "exec/fluid_simulator.h"
#include "resource/usage_model.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::AllocCount;
using testing_util::AllocCountingAvailable;
using testing_util::MakeOp;

/// Uniform degree-N ops at dimension 3 (inline storage).
std::vector<ParallelizedOp> UniformOps(int m, int degree,
                                       const OverlapUsageModel& usage) {
  std::vector<ParallelizedOp> ops;
  ops.reserve(static_cast<size_t>(m));
  const CostParams params;
  for (int i = 0; i < m; ++i) {
    OperatorCost cost;
    cost.op_id = i;
    cost.processing =
        WorkVector({90.0 + 7.0 * (i % 5), 60.0 + 11.0 * (i % 3), 4.0});
    cost.data_bytes = 20000.0 * (1 + i % 4);
    auto op = ParallelizeAtDegree(cost, params, usage, degree, degree);
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    ops.push_back(std::move(op).value());
  }
  return ops;
}

TEST(AllocFreeTest, SplitIntoCloneSetAllocatesNothingAtInlineDims) {
  if (!AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting unavailable under sanitizers";
  }
  const CostParams params;
  OperatorCost cost;
  cost.op_id = 7;
  cost.processing = WorkVector({120.0, 80.0, 10.0});
  cost.data_bytes = 50000.0;

  const uint64_t before = AllocCount();
  CloneSet set = SplitIntoCloneSet(cost, 64, params);
  const uint64_t used = AllocCount() - before;
  EXPECT_EQ(used, 0u) << "uniform split of a d=3 operator heap-allocated";
  EXPECT_TRUE(set.uniform());
  EXPECT_EQ(set.size(), 64u);
}

TEST(AllocFreeTest, PlaceAfterReserveForAllocatesNothing) {
  if (!AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting unavailable under sanitizers";
  }
  const OverlapUsageModel usage(0.5);
  const int degree = 16;
  std::vector<ParallelizedOp> ops = UniformOps(12, degree, usage);

  Schedule schedule(degree, 3);
  schedule.ReserveFor(ops);
  const uint64_t before = AllocCount();
  for (const auto& op : ops) {
    for (int k = 0; k < op.degree; ++k) {
      ASSERT_TRUE(schedule.Place(op, k, (k + op.op_id) % degree).ok());
    }
  }
  const uint64_t used = AllocCount() - before;
  EXPECT_EQ(used, 0u) << "Place after ReserveFor performed " << used
                      << " heap allocations for "
                      << schedule.num_placements() << " clones";
}

// The steady-state loop of OPERATORSCHEDULE: doubling every operator's
// degree (same operator count, same machine) must not change the total
// number of heap allocations — all allocation is setup whose *count* is
// degree-independent, so the marginal allocations per clone are zero.
TEST(AllocFreeTest, OperatorScheduleMarginalAllocationsPerCloneAreZero) {
  if (!AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting unavailable under sanitizers";
  }
  const OverlapUsageModel usage(0.5);
  const int num_sites = 64;
  const auto count_for = [&](int degree) -> uint64_t {
    std::vector<ParallelizedOp> ops = UniformOps(10, degree, usage);
    const uint64_t before = AllocCount();
    auto schedule = OperatorSchedule(ops, num_sites, 3);
    EXPECT_TRUE(schedule.ok()) << schedule.status().ToString();
    return AllocCount() - before;
  };
  const uint64_t at_n = count_for(8);
  const uint64_t at_2n = count_for(16);
  EXPECT_EQ(at_n, at_2n)
      << "doubling the clone count changed the allocation count: "
      << at_n << " -> " << at_2n;
}

// Same invariance for the fluid simulator: doubling the clones per site
// must not change the allocation count of SimulatePhase (the per-event
// accumulators are hoisted and the consumed-work temporaries are fused).
TEST(AllocFreeTest, FluidSimulatorMarginalAllocationsPerCloneAreZero) {
  if (!AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting unavailable under sanitizers";
  }
  const OverlapUsageModel usage(0.5);
  const auto count_for = [&](int clones_per_site,
                             SharingPolicy policy) -> uint64_t {
    const int num_sites = 8;
    std::vector<ParallelizedOp> ops;
    for (int i = 0; i < clones_per_site; ++i) {
      std::vector<WorkVector> clones(
          static_cast<size_t>(num_sites),
          WorkVector({30.0 + i, 20.0 + 2.0 * i, 5.0}));
      ops.push_back(MakeOp(i, std::move(clones), usage));
    }
    Schedule schedule(num_sites, 3);
    schedule.ReserveFor(ops);
    for (const auto& op : ops) {
      for (int k = 0; k < op.degree; ++k) {
        EXPECT_TRUE(schedule.Place(op, k, k).ok());
      }
    }
    const FluidSimulator simulator(policy);
    const uint64_t before = AllocCount();
    auto sim = simulator.SimulatePhase(schedule);
    EXPECT_TRUE(sim.ok()) << sim.status().ToString();
    return AllocCount() - before;
  };
  for (SharingPolicy policy :
       {SharingPolicy::kOptimalStretch, SharingPolicy::kUniformSlowdown}) {
    const uint64_t at_k = count_for(6, policy);
    const uint64_t at_2k = count_for(12, policy);
    EXPECT_EQ(at_k, at_2k)
        << "doubling clones per site changed the simulator's allocation "
           "count: "
        << at_k << " -> " << at_2k;
  }
}

}  // namespace
}  // namespace mrs
