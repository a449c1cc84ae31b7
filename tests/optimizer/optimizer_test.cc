#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "optimizer/makespan_cost.h"
#include "optimizer/plan_enumerator.h"
#include "plan/query_graph.h"
#include "test_util.h"
#include "workload/generator.h"

namespace mrs {
namespace {

QueryGraph Chain(int n) {
  QueryGraph g(n);
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(g.AddJoin(i, i + 1).ok());
  }
  return g;
}

/// Generator graphs per (seed, join count) in the best-first floor test.
constexpr int kFloorGraphs = 16;

std::vector<int64_t> ChainSizes(int n) {
  std::vector<int64_t> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(1000 + 7919ll * i % 9000 * 11);
  }
  return sizes;
}

TEST(OptimizerTest, PrunedSearchMatchesExhaustiveBitExactly) {
  for (int n = 2; n <= 5; ++n) {
    auto catalog = testing_util::MakeCatalog(ChainSizes(n));
    const QueryGraph graph = Chain(n);
    const MachineConfig machine;
    const OverlapUsageModel usage(0.5);
    auto pruned = OptimizeJoinOrder(*catalog, graph, CostParams{}, machine,
                                    usage, OptimizerOptions{});
    auto full = ExhaustivePlanSearch(*catalog, graph, CostParams{}, machine,
                                     usage, OptimizerOptions{});
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_EQ(pruned->makespan, full->makespan) << "chain of " << n;
    EXPECT_EQ(pruned->plan_id, full->plan_id) << "chain of " << n;
    EXPECT_EQ(pruned->plan->ToString(), full->plan->ToString());
    EXPECT_EQ(full->stats.plans_pruned, 0u);
    EXPECT_EQ(full->stats.subplans_pruned, 0u);
    EXPECT_LE(pruned->stats.plans_scheduled, full->stats.plans_scheduled);
  }
}

TEST(OptimizerTest, ExplainIsByteIdenticalAcrossThreadCounts) {
  auto catalog = testing_util::MakeCatalog(ChainSizes(6));
  const QueryGraph graph = Chain(6);
  const MachineConfig machine;
  const OverlapUsageModel usage(0.5);
  std::string reference;
  for (const int threads : {1, 2, 8}) {
    OptimizerOptions options;
    options.num_threads = threads;
    auto result =
        OptimizeJoinOrder(*catalog, graph, CostParams{}, machine, usage,
                          options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (reference.empty()) {
      reference = result->Explain();
    } else {
      EXPECT_EQ(result->Explain(), reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(OptimizerTest, WinnerNeverWorseThanTheGreedySeed) {
  auto catalog = testing_util::MakeCatalog(ChainSizes(5));
  const QueryGraph graph = Chain(5);
  auto result = OptimizeJoinOrder(*catalog, graph, CostParams{},
                                  MachineConfig{}, OverlapUsageModel(0.5),
                                  OptimizerOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->makespan, result->seed_makespan);
  EXPECT_GT(result->makespan, 0.0);
}

TEST(OptimizerTest, SingleRelationQueryIsJustTheScan) {
  auto catalog = testing_util::MakeCatalog({5000});
  const QueryGraph graph(1);
  auto result = OptimizeJoinOrder(*catalog, graph, CostParams{},
                                  MachineConfig{}, OverlapUsageModel(0.5),
                                  OptimizerOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->plan, nullptr);
  EXPECT_EQ(result->plan->num_joins(), 0);
  EXPECT_EQ(result->plan_id, 0u);
  EXPECT_GT(result->makespan, 0.0);
}

TEST(OptimizerTest, StatsAreInternallyConsistent) {
  auto catalog = testing_util::MakeCatalog(ChainSizes(5));
  const QueryGraph graph = Chain(5);
  auto result = OptimizeJoinOrder(*catalog, graph, CostParams{},
                                  MachineConfig{}, OverlapUsageModel(0.5),
                                  OptimizerOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const OptimizerStats& s = result->stats;
  EXPECT_EQ(s.plans_considered, s.plans_scheduled + s.plans_pruned);
  EXPECT_EQ(s.subplans_considered, s.subplans_kept + s.subplans_pruned);
  EXPECT_GT(s.num_subsets, 0);
  EXPECT_GT(s.num_slices, 0);
}

TEST(OptimizerTest, ExhaustiveSchedulesTheWholeChainPlanSpace) {
  // Chain of 4: Catalan(3) * 2^3 = 40 complete plans.
  auto catalog = testing_util::MakeCatalog(ChainSizes(4));
  auto result = ExhaustivePlanSearch(*catalog, Chain(4), CostParams{},
                                     MachineConfig{}, OverlapUsageModel(0.5),
                                     OptimizerOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.plans_considered, 40u);
  EXPECT_EQ(result->stats.plans_scheduled, 40u);
}

TEST(OptimizerTest, ListEngineAgreesWithItsExhaustiveBaseline) {
  auto catalog = testing_util::MakeCatalog(ChainSizes(4));
  const QueryGraph graph = Chain(4);
  OptimizerOptions options;
  options.engine = OptimizerEngine::kList;
  auto pruned = OptimizeJoinOrder(*catalog, graph, CostParams{},
                                  MachineConfig{}, OverlapUsageModel(0.5),
                                  options);
  auto full = ExhaustivePlanSearch(*catalog, graph, CostParams{},
                                   MachineConfig{}, OverlapUsageModel(0.5),
                                   options);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(pruned->makespan, full->makespan);
  EXPECT_EQ(pruned->plan_id, full->plan_id);
}

TEST(OptimizerTest, CountersLandInTheProvidedRegistry) {
  auto catalog = testing_util::MakeCatalog(ChainSizes(4));
  MetricsRegistry registry;
  OptimizerOptions options;
  options.metrics = &registry;
  auto result = OptimizeJoinOrder(*catalog, Chain(4), CostParams{},
                                  MachineConfig{}, OverlapUsageModel(0.5),
                                  options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(registry.GetCounter("opt.plans_considered")->value(),
            result->stats.plans_considered);
  EXPECT_EQ(registry.GetCounter("opt.plans_scheduled")->value(),
            result->stats.plans_scheduled);
  EXPECT_EQ(registry.GetCounter("opt.plans_pruned")->value(),
            result->stats.plans_pruned);
}

TEST(OptimizerTest, RejectsGraphCatalogMismatchAndDisconnectedGraphs) {
  auto catalog = testing_util::MakeCatalog(ChainSizes(4));
  EXPECT_FALSE(OptimizeJoinOrder(*catalog, Chain(3), CostParams{},
                                 MachineConfig{}, OverlapUsageModel(0.5),
                                 OptimizerOptions{})
                   .ok());
  QueryGraph disconnected(4);
  ASSERT_TRUE(disconnected.AddJoin(0, 1).ok());
  ASSERT_TRUE(disconnected.AddJoin(2, 3).ok());
  EXPECT_FALSE(OptimizeJoinOrder(*catalog, disconnected, CostParams{},
                                 MachineConfig{}, OverlapUsageModel(0.5),
                                 OptimizerOptions{})
                   .ok());
}

TEST(OptimizerTest, CandidateCapFailsClosed) {
  auto catalog = testing_util::MakeCatalog(ChainSizes(6));
  OptimizerOptions options;
  options.max_candidates = 4;
  auto result = OptimizeJoinOrder(*catalog, Chain(6), CostParams{},
                                  MachineConfig{}, OverlapUsageModel(0.5),
                                  options);
  EXPECT_FALSE(result.ok());
}

TEST(OptimizerTest, TraceRecordsTheSearchPhases) {
  auto catalog = testing_util::MakeCatalog(ChainSizes(4));
  ScheduleTrace trace(ScheduleTrace::CountingClock());
  OptimizerOptions options;
  options.trace = &trace;
  auto result = OptimizeJoinOrder(*catalog, Chain(4), CostParams{},
                                  MachineConfig{}, OverlapUsageModel(0.5),
                                  options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  bool saw_seed = false;
  bool saw_dp = false;
  bool saw_search = false;
  bool saw_whole = false;
  for (const auto& span : trace.spans()) {
    if (span.name == "opt_seed") saw_seed = true;
    if (span.name == "opt_dp") saw_dp = true;
    if (span.name == "opt_search") saw_search = true;
    if (span.name == "optimize") saw_whole = true;
  }
  EXPECT_TRUE(saw_seed);
  EXPECT_TRUE(saw_dp);
  EXPECT_TRUE(saw_search);
  EXPECT_TRUE(saw_whole);
}


/// The best-first floor of `graph`: the complete plans whose tier-1
/// (CombineBound + CheapLowerBound) and tier-2 (LowerBound) bounds are
/// both <= `optimum`. A search that only ever compares exact bounds with
/// an incumbent >= the optimum must schedule at least these.
uint64_t BestFirstFloor(const Catalog& catalog, const QueryGraph& graph,
                        double optimum) {
  auto enumerator = PlanEnumerator::Create(graph);
  auto fn = MakespanCostFn::Create(&catalog, CostParams{}, MachineConfig{},
                                   OverlapUsageModel(0.5),
                                   MakespanCostOptions{});
  EXPECT_TRUE(enumerator.ok() && fn.ok());
  std::vector<std::vector<SubplanBound>> bounds(
      static_cast<size_t>(enumerator->num_subsets()));
  auto bound_of = [&](PlanEnumerator::CandidateRef ref) -> SubplanBound& {
    return bounds[static_cast<size_t>(ref.subset)]
                 [static_cast<size_t>(ref.idx)];
  };
  for (int id : enumerator->SubsetsOfSize(1)) {
    const int r = std::countr_zero(enumerator->subset_mask(id));
    bounds[static_cast<size_t>(id)].push_back(*fn->LeafBound(r));
  }
  const int n = enumerator->num_relations();
  for (int size = 2; size < n; ++size) {
    for (int id : enumerator->SubsetsOfSize(size)) {
      enumerator->GenerateCandidates(
          id, [&](const PlanEnumerator::Candidate& cand) {
            bounds[static_cast<size_t>(id)].push_back(
                *fn->CombineBound(bound_of(cand.outer), bound_of(cand.inner)));
            return true;
          });
    }
  }
  const uint64_t full_mask = (uint64_t{1} << n) - 1;
  uint64_t floor = 0;
  for (const PlanEnumerator::RootSlice& slice : enumerator->root_slices()) {
    const int outers =
        static_cast<int>(enumerator->candidates(slice.outer_subset).size());
    const int inners =
        static_cast<int>(enumerator->candidates(slice.inner_subset).size());
    for (int i = 0; i < outers; ++i) {
      for (int j = 0; j < inners; ++j) {
        for (int orient = 0; orient < 2; ++orient) {
          PlanEnumerator::CandidateRef outer{slice.outer_subset, i};
          PlanEnumerator::CandidateRef inner{slice.inner_subset, j};
          if (orient == 1) std::swap(outer, inner);
          auto root = fn->CombineBound(bound_of(outer), bound_of(inner));
          if (fn->CheapLowerBound(*root, full_mask) > optimum) continue;
          auto plan = enumerator->BuildRootPlan(&catalog, outer, inner);
          auto prepared = fn->Prepare(*plan);
          if (fn->LowerBound(*prepared, full_mask) > optimum) continue;
          ++floor;
        }
      }
    }
  }
  return floor;
}

TEST(OptimizerTest, SearchSchedulesNearTheBestFirstFloor) {
  // Pricing plans in enumeration order from the greedy seed schedules
  // about twice the floor; best-first batches come within 10% of it.
  uint64_t scheduled = 0;
  uint64_t floor = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    for (int joins = 3; joins <= 5; ++joins) {
      for (int g = 0; g < kFloorGraphs; ++g) {
        WorkloadParams params;
        params.num_joins = joins;
        auto q = GenerateQuery(params, &rng);
        ASSERT_TRUE(q.ok()) << q.status().ToString();
        auto result = OptimizeJoinOrder(*q->catalog, *q->graph, CostParams{},
                                        MachineConfig{},
                                        OverlapUsageModel(0.5),
                                        OptimizerOptions{});
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        scheduled += result->stats.plans_scheduled;
        floor += BestFirstFloor(*q->catalog, *q->graph, result->makespan);
      }
    }
  }
  ASSERT_GT(floor, 0u);
  EXPECT_LE(static_cast<double>(scheduled), 1.10 * static_cast<double>(floor))
      << "scheduled " << scheduled << " vs floor " << floor;
}

}  // namespace
}  // namespace mrs
