// Slow differential suite for the scheduler-in-the-loop join-order
// optimizer (see src/optimizer/optimizer.h):
//
//   * pruned search vs the exhaustive baseline: bit-equal makespans and
//     identical winning plan ids over random tree queries with J <= 6;
//   * byte-identical Explain() output across 1/2/8 search threads, on
//     random trees and on a chain;
//   * pruning soundness over random *cyclic* connected graphs (extra
//     edges added to a random tree);
//   * the winner never loses to the generator's own random bushy plan
//     priced by the same cost function.
//
// Every random draw derives from MRS_FUZZ_SEED (see
// testing_util::FuzzSeed), so a failure replays exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "optimizer/makespan_cost.h"
#include "optimizer/optimizer.h"
#include "plan/query_graph.h"
#include "test_util.h"
#include "workload/generator.h"

namespace mrs {
namespace {

GeneratedQuery MakeQuery(int joins, Rng* rng) {
  WorkloadParams params;
  params.num_joins = joins;
  auto q = GenerateQuery(params, rng);
  if (!q.ok()) std::abort();
  return std::move(q).value();
}

TEST(OptimizerDifferentialTest, PrunedMatchesExhaustiveOnRandomTreeQueries) {
  Rng rng(testing_util::FuzzSeed(0x5eed07));
  const MachineConfig machine;
  const OverlapUsageModel usage(0.5);
  for (int trial = 0; trial < 12; ++trial) {
    const int joins = 2 + trial % 5;  // J in 2..6
    GeneratedQuery q = MakeQuery(joins, &rng);
    auto pruned = OptimizeJoinOrder(*q.catalog, *q.graph, CostParams{},
                                    machine, usage, OptimizerOptions{});
    auto full = ExhaustivePlanSearch(*q.catalog, *q.graph, CostParams{},
                                     machine, usage, OptimizerOptions{});
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_EQ(pruned->makespan, full->makespan)
        << "trial " << trial << ": " << q.graph->ToString();
    EXPECT_EQ(pruned->plan_id, full->plan_id)
        << "trial " << trial << ": " << q.graph->ToString();
    EXPECT_EQ(pruned->plan->ToString(), full->plan->ToString());
  }
}

TEST(OptimizerDifferentialTest, ThreadCountsProduceByteIdenticalReports) {
  Rng rng(testing_util::FuzzSeed(0xdecaf));
  const MachineConfig machine;
  const OverlapUsageModel usage(0.5);
  for (int trial = 0; trial < 5; ++trial) {
    GeneratedQuery q = MakeQuery(6, &rng);
    if (trial == 4) {
      // A chain: its root slices split 1 vs n-1 relations, so a few
      // slices hold most of the plans.
      QueryGraph chain(q.catalog->num_relations());
      for (int r = 0; r + 1 < chain.num_relations(); ++r) {
        ASSERT_TRUE(chain.AddJoin(r, r + 1).ok());
      }
      *q.graph = std::move(chain);
    }
    std::string reference;
    for (const int threads : {1, 2, 8}) {
      OptimizerOptions options;
      options.num_threads = threads;
      auto result = OptimizeJoinOrder(*q.catalog, *q.graph, CostParams{},
                                      machine, usage, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (reference.empty()) {
        reference = result->Explain();
      } else {
        EXPECT_EQ(result->Explain(), reference)
            << "trial " << trial << " threads " << threads;
      }
    }
  }
}

TEST(OptimizerDifferentialTest, PruningIsSoundOnRandomCyclicGraphs) {
  Rng rng(testing_util::FuzzSeed(0xc1c1e));
  const MachineConfig machine;
  const OverlapUsageModel usage(0.5);
  for (int trial = 0; trial < 8; ++trial) {
    const int joins = 3 + trial % 3;  // J in 3..5
    GeneratedQuery q = MakeQuery(joins, &rng);
    // Densify: add up to two random extra edges, turning the tree into a
    // cyclic (still connected) join graph.
    const int n = q.graph->num_relations();
    for (int extra = 0; extra < 2; ++extra) {
      const int a = static_cast<int>(rng.UniformInt(0, n - 1));
      const int b = static_cast<int>(rng.UniformInt(0, n - 1));
      if (a != b) (void)q.graph->AddJoin(a, b);  // duplicates rejected
    }
    auto pruned = OptimizeJoinOrder(*q.catalog, *q.graph, CostParams{},
                                    machine, usage, OptimizerOptions{});
    auto full = ExhaustivePlanSearch(*q.catalog, *q.graph, CostParams{},
                                     machine, usage, OptimizerOptions{});
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_EQ(pruned->makespan, full->makespan)
        << "trial " << trial << ": " << q.graph->ToString();
    EXPECT_EQ(pruned->plan_id, full->plan_id);
    EXPECT_LE(pruned->stats.plans_scheduled, full->stats.plans_scheduled);
  }
}

TEST(OptimizerDifferentialTest, WinnerNeverLosesToTheRandomPlan) {
  Rng rng(testing_util::FuzzSeed(0xbea7));
  const MachineConfig machine;
  const OverlapUsageModel usage(0.5);
  for (int trial = 0; trial < 10; ++trial) {
    const int joins = 2 + trial % 5;
    GeneratedQuery q = MakeQuery(joins, &rng);
    auto result = OptimizeJoinOrder(*q.catalog, *q.graph, CostParams{},
                                    machine, usage, OptimizerOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Price the generator's random bushy plan with the same cost function.
    auto fn = MakespanCostFn::Create(q.catalog.get(), CostParams{}, machine,
                                     usage, MakespanCostOptions{});
    ASSERT_TRUE(fn.ok()) << fn.status().ToString();
    auto prepared = fn->Prepare(*q.plan);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto random_ms = fn->Makespan(*prepared);
    ASSERT_TRUE(random_ms.ok()) << random_ms.status().ToString();
    EXPECT_LE(result->makespan, *random_ms)
        << "trial " << trial << ": " << q.graph->ToString();
  }
}

TEST(OptimizerDifferentialTest, ListEnginePrunedMatchesExhaustive) {
  Rng rng(testing_util::FuzzSeed(0x115f));
  const MachineConfig machine;
  const OverlapUsageModel usage(0.5);
  for (int trial = 0; trial < 6; ++trial) {
    GeneratedQuery q = MakeQuery(2 + trial % 4, &rng);
    OptimizerOptions options;
    options.engine = OptimizerEngine::kList;
    auto pruned = OptimizeJoinOrder(*q.catalog, *q.graph, CostParams{},
                                    machine, usage, options);
    auto full = ExhaustivePlanSearch(*q.catalog, *q.graph, CostParams{},
                                     machine, usage, options);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_EQ(pruned->makespan, full->makespan)
        << "trial " << trial << ": " << q.graph->ToString();
    EXPECT_EQ(pruned->plan_id, full->plan_id);
  }
}

}  // namespace
}  // namespace mrs
