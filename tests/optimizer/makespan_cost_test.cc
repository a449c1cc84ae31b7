#include "optimizer/makespan_cost.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/list_schedule.h"
#include "core/opt_bound.h"
#include "core/tree_schedule.h"
#include "test_util.h"
#include "workload/generator.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::PlanFixture;

TEST(MakespanCostTest, TreeEngineMatchesTreeScheduleBitExactly) {
  PlanFixture fx = BushyFourWayFixture();
  const MachineConfig machine;
  const OverlapUsageModel usage(0.5);
  auto fn = MakespanCostFn::Create(fx.catalog.get(), CostParams{}, machine,
                                   usage, MakespanCostOptions{});
  ASSERT_TRUE(fn.ok()) << fn.status().ToString();
  auto prepared = fn->Prepare(*fx.plan);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto got = fn->Makespan(*prepared);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  auto direct = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             machine, usage, TreeScheduleOptions{});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(*got, direct->response_time);
}

TEST(MakespanCostTest, ListEngineMatchesListScheduleBitExactly) {
  PlanFixture fx = BushyFourWayFixture();
  const MachineConfig machine;
  const OverlapUsageModel usage(0.5);
  MakespanCostOptions options;
  options.engine = OptimizerEngine::kList;
  auto fn = MakespanCostFn::Create(fx.catalog.get(), CostParams{}, machine,
                                   usage, options);
  ASSERT_TRUE(fn.ok()) << fn.status().ToString();
  auto prepared = fn->Prepare(*fx.plan);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto got = fn->Makespan(*prepared);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  auto direct = ListSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             machine, usage, ListScheduleOptions{});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(*got, direct->makespan);
}

TEST(MakespanCostTest, LowerBoundNeverExceedsTheMakespan) {
  PlanFixture fx = BushyFourWayFixture();
  const MachineConfig machine;
  const OverlapUsageModel usage(0.5);
  for (const OptimizerEngine engine :
       {OptimizerEngine::kTree, OptimizerEngine::kList}) {
    MakespanCostOptions options;
    options.engine = engine;
    auto fn = MakespanCostFn::Create(fx.catalog.get(), CostParams{}, machine,
                                     usage, options);
    ASSERT_TRUE(fn.ok()) << fn.status().ToString();
    auto prepared = fn->Prepare(*fx.plan);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    const double lb = fn->LowerBound(*prepared, 0b1111);  // all four
    auto ms = fn->Makespan(*prepared);
    ASSERT_TRUE(ms.ok()) << ms.status().ToString();
    EXPECT_LE(lb, *ms);
    EXPECT_GT(lb, 0.0);
  }
}

TEST(MakespanCostTest, UncoveredScansRaiseThePartialPlanBound) {
  // A two-relation subplan of a four-relation query: folding the two
  // uncovered scans into the work bound can only raise the bound.
  auto catalog = testing_util::MakeCatalog({4000, 2000, 8000, 1000});
  PlanTree sub(catalog.get());
  auto l0 = sub.AddLeaf(0);
  auto l1 = sub.AddLeaf(1);
  ASSERT_TRUE(l0.ok() && l1.ok());
  ASSERT_TRUE(sub.AddJoin(*l0, *l1).ok());
  ASSERT_TRUE(sub.Finalize().ok());

  const MachineConfig machine;
  const OverlapUsageModel usage(0.5);
  auto fn = MakespanCostFn::Create(catalog.get(), CostParams{}, machine, usage,
                                   MakespanCostOptions{});
  ASSERT_TRUE(fn.ok()) << fn.status().ToString();
  auto prepared = fn->Prepare(sub);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_GE(fn->LowerBound(*prepared, 0b0011),
            fn->LowerBound(*prepared, 0b1111));
}

TEST(MakespanCostTest, LowerBoundSubsumesOptBoundWorkBound) {
  // LowerBound does not call OPTBOUND: its augmented work bound sums the
  // same vectors in the same order plus non-negative scan terms, so
  // OPTBOUND's work bound can never raise it. Oracle: the bound that still
  // took the max with OptBound's work_bound is bit-equal.
  Rng rng(testing_util::FuzzSeed(0xb0a7d));
  const MachineConfig machine;
  const OverlapUsageModel usage(0.5);
  const double f = MakespanCostOptions{}.granularity;
  for (int trial = 0; trial < 24; ++trial) {
    WorkloadParams params;
    params.num_joins = 2 + trial % 7;
    auto q = GenerateQuery(params, &rng);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const int n = q->catalog->num_relations();
    const uint64_t full_mask = (uint64_t{1} << n) - 1;
    for (const OptimizerEngine engine :
         {OptimizerEngine::kTree, OptimizerEngine::kList}) {
      MakespanCostOptions options;
      options.engine = engine;
      auto fn = MakespanCostFn::Create(q->catalog.get(), CostParams{},
                                       machine, usage, options);
      ASSERT_TRUE(fn.ok()) << fn.status().ToString();
      auto prepared = fn->Prepare(*q->plan);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      auto ob = OptBound(prepared->ops, prepared->tasks, prepared->costs,
                         CostParams{}, usage, f, machine.num_sites);
      ASSERT_TRUE(ob.ok()) << ob.status().ToString();
      // The full query, and the same plan read as covering only some
      // relations (the uncovered scans join the work bound).
      for (const uint64_t mask : {full_mask, full_mask >> 1, uint64_t{1}}) {
        const double lb = fn->LowerBound(*prepared, mask);
        EXPECT_EQ(lb, std::max(ob->work_bound, lb))
            << "trial " << trial << " mask " << mask;
      }
    }
  }
}

TEST(MakespanCostTest, RejectsUndersizedMachine) {
  auto catalog = testing_util::MakeCatalog({1000});
  MachineConfig machine;
  machine.dims = 2;  // needs 2 + num_disks = 3
  const OverlapUsageModel usage(0.5);
  EXPECT_FALSE(MakespanCostFn::Create(catalog.get(), CostParams{}, machine,
                                      usage, MakespanCostOptions{})
                   .ok());
}

}  // namespace
}  // namespace mrs
