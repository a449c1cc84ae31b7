// Tests for the TREESCHEDULE allotment (§5.4) every engine shares: the
// order and degrees Allotment::Parallelize returns, join-aware sizing and
// input validation. The digest tests pin the degree of each operator
// under TREE, LIST and PIPELINED for both floating policies and both
// build-degree rules, the parallelize-cache traffic those calls make, and
// the memory-aware engine's degrees and phase splits. Their constants
// were captured on the code where each engine still carried its own copy
// of the allotment rules.

#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/list_schedule.h"
#include "core/memory_aware.h"
#include "core/tree_schedule.h"
#include "cost/cost_model.h"
#include "cost/parallelize_cache.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"
#include "test_util.h"
#include "workload/generator.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::HashDouble;
using testing_util::HashInt;
using testing_util::PlanFixture;

/// One generated plan with its trees and costs.
struct DigestPlan {
  GeneratedQuery query;
  OperatorTree op_tree;
  TaskTree task_tree;
  std::vector<OperatorCost> costs;
};

/// Four generated plans (2-10 joins, sorts and aggregates mixed in) from
/// `stream`; an empty vector after a reported failure.
std::vector<DigestPlan> GeneratePlans(Rng* stream, const CostModel& model) {
  std::vector<DigestPlan> plans;
  for (int i = 0; i < 4; ++i) {
    WorkloadParams workload;
    workload.num_joins = 2 + static_cast<int>(stream->Index(9));
    workload.sort_probability = 0.2;
    workload.aggregate_probability = 0.2;
    auto query = GenerateQuery(workload, stream);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (!query.ok()) return {};
    auto op_tree = OperatorTree::FromPlan(*query->plan);
    EXPECT_TRUE(op_tree.ok());
    if (!op_tree.ok()) return {};
    plans.push_back(DigestPlan{std::move(query).value(),
                               std::move(op_tree).value(), TaskTree(), {}});
  }
  // The task tree points into its operator tree, so build it in place.
  for (DigestPlan& plan : plans) {
    auto task_tree = TaskTree::FromOperatorTree(&plan.op_tree);
    EXPECT_TRUE(task_tree.ok());
    if (!task_tree.ok()) return {};
    plan.task_tree = std::move(task_tree).value();
    auto costs = model.CostAll(plan.op_tree);
    EXPECT_TRUE(costs.ok());
    if (!costs.ok()) return {};
    plan.costs = std::move(costs).value();
  }
  return plans;
}

/// Each op's id, degree and rootedness, in the engine's result order.
void HashOps(const std::vector<ParallelizedOp>& ops, uint64_t* h) {
  for (const ParallelizedOp& op : ops) {
    HashInt("op", op.op_id, h);
    HashInt("degree", op.degree, h);
    HashInt("rooted", op.rooted ? 1 : 0, h);
  }
}

void HashCache(const ParallelizeCache* cache, uint64_t* h) {
  if (cache == nullptr) return;
  HashInt("hits", static_cast<long long>(cache->counter().hits()), h);
  HashInt("misses", static_cast<long long>(cache->counter().misses()), h);
}

/// Digest of the allotment of TREE, LIST and PIPELINED over P in {8, 64}
/// x four generated plans, under {kCoarseGrain, kMalleable} x {kJoinAware,
/// kBuildOnly}, each with no cache and with one ParallelizeCache shared by
/// every call on the machine: per call, every op's degree, the makespan,
/// and the cache's cumulative hits and misses.
uint64_t EngineAllotmentDigest(uint64_t seed) {
  uint64_t h = 14695981039346656037ull;
  Rng master(seed);
  const CostParams params;
  const CostModel model(params, 3, 1);
  for (int sites : {8, 64}) {
    const MachineConfig machine = MachineConfig::WithDisks(sites, 1);
    const OverlapUsageModel usage(0.5);
    MetricsRegistry registry;
    ParallelizeCache shared(params, usage.epsilon(), 0.7, sites, &registry);
    Rng stream = master.Fork();
    const std::vector<DigestPlan> plans = GeneratePlans(&stream, model);
    if (plans.empty()) return 0;
    for (const DigestPlan& plan : plans) {
      for (ParallelizationPolicy policy :
           {ParallelizationPolicy::kCoarseGrain,
            ParallelizationPolicy::kMalleable}) {
        for (BuildDegreePolicy build :
             {BuildDegreePolicy::kJoinAware, BuildDegreePolicy::kBuildOnly}) {
          for (ParallelizeCache* cache : {static_cast<ParallelizeCache*>(nullptr),
                                          &shared}) {
            TreeScheduleOptions tree_options;
            tree_options.policy = policy;
            tree_options.build_degree = build;
            tree_options.cache = cache;
            auto tree = TreeSchedule(plan.op_tree, plan.task_tree, plan.costs,
                                     params, machine, usage, tree_options);
            EXPECT_TRUE(tree.ok()) << tree.status().ToString();
            if (!tree.ok()) return 0;
            for (const PhaseSchedule& phase : tree->phases) {
              HashOps(phase.ops, &h);
            }
            HashDouble("tree", tree->response_time, &h);
            HashCache(cache, &h);

            for (bool pipeline : {false, true}) {
              ListScheduleOptions options;
              options.tree = tree_options;
              options.pipeline = pipeline;
              auto list = ListSchedule(plan.op_tree, plan.task_tree,
                                       plan.costs, params, machine, usage,
                                       options);
              EXPECT_TRUE(list.ok()) << list.status().ToString();
              if (!list.ok()) return 0;
              HashOps(list->ops, &h);
              HashDouble("makespan", list->makespan, &h);
              HashInt("mode", list->used_tree_fallback * 2 +
                                  list->used_list_fallback, &h);
              HashCache(cache, &h);
            }
          }
        }
      }
    }
  }
  return h;
}

/// Digest of MemoryAwareTreeSchedule over the same kind of plan set on
/// P in {4, 8, 64}, for both build-degree rules and per-site memory from
/// ample through phase-splitting to too small:
/// the status code, and on success the response time, the phase splits,
/// the peak, and every subphase's index, degrees and makespan.
uint64_t MemoryAwareDigest(uint64_t seed) {
  uint64_t h = 14695981039346656037ull;
  Rng master(seed);
  const CostParams params;
  const CostModel model(params, 3, 1);
  for (int sites : {4, 8, 64}) {
    const MachineConfig machine = MachineConfig::WithDisks(sites, 1);
    const OverlapUsageModel usage(0.5);
    Rng stream = master.Fork();
    const std::vector<DigestPlan> plans = GeneratePlans(&stream, model);
    if (plans.empty()) return 0;
    for (const DigestPlan& plan : plans) {
      for (BuildDegreePolicy build :
           {BuildDegreePolicy::kJoinAware, BuildDegreePolicy::kBuildOnly}) {
        for (double site_bytes :
             {1e12, 4e6, 3e6, 1.2e6, 1e6, 8e5, 6e5, 4e5, 2e5}) {
          TreeScheduleOptions options;
          options.build_degree = build;
          MemoryOptions memory;
          memory.site_memory_bytes = site_bytes;
          auto result =
              MemoryAwareTreeSchedule(plan.op_tree, plan.task_tree, plan.costs,
                                      params, machine, usage, options, memory);
          HashInt("status", static_cast<int>(result.status().code()), &h);
          if (!result.ok()) continue;
          HashDouble("response", result->response_time, &h);
          HashInt("splits", result->phase_splits, &h);
          HashDouble("peak", result->peak_site_memory, &h);
          for (const MemoryPhase& phase : result->phases) {
            HashInt("phase", phase.task_phase, &h);
            HashInt("subphase", phase.subphase, &h);
            HashOps(phase.ops, &h);
            HashDouble("makespan", phase.makespan, &h);
          }
        }
      }
    }
  }
  return h;
}

MachineConfig Machine(int sites) {
  MachineConfig m;
  m.num_sites = sites;
  return m;
}

TEST(AllotmentTest, ParallelizesRootedFirstThenFloatingInInputOrder) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  auto allotment = Allotment::Create(fx.op_tree, fx.costs, CostParams{},
                                     Machine(8), usage, {});
  ASSERT_TRUE(allotment.ok()) << allotment.status().ToString();
  // Every operator at once, rooted ones homed at two sites.
  std::vector<int> op_ids;
  std::unordered_map<int, std::vector<int>> home_of;
  std::vector<int> rooted_ids;
  std::vector<int> floating_ids;
  for (int oid = fx.op_tree.num_ops() - 1; oid >= 0; --oid) {
    op_ids.push_back(oid);
    const int producer = fx.op_tree.op(oid).blocking_input;
    if (producer >= 0) {
      home_of[producer] = {2, 5};
      rooted_ids.push_back(oid);
    } else {
      floating_ids.push_back(oid);
    }
  }
  ASSERT_FALSE(rooted_ids.empty());
  auto ops = allotment->Parallelize(op_ids, home_of, nullptr, 0, nullptr);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  ASSERT_EQ(ops->size(), op_ids.size());
  std::vector<int> order = rooted_ids;
  order.insert(order.end(), floating_ids.begin(), floating_ids.end());
  for (size_t i = 0; i < order.size(); ++i) {
    const ParallelizedOp& op = (*ops)[i];
    EXPECT_EQ(op.op_id, order[i]);
    EXPECT_EQ(op.rooted, i < rooted_ids.size());
    if (op.rooted) {
      EXPECT_EQ(op.home, (std::vector<int>{2, 5}));
    } else {
      // A floating op gets the CG_f degree of its sizing cost.
      auto sized = ParallelizeFloating(
          allotment->SizingCost(op.op_id), CostParams{}, usage,
          TreeScheduleOptions{}.granularity, 8);
      ASSERT_TRUE(sized.ok());
      EXPECT_EQ(op.degree, sized->degree);
    }
  }

  // A rooted op whose producer has no home yet is an internal error.
  auto missing = allotment->Parallelize(op_ids, {}, nullptr, 0, nullptr);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInternal);
}

TEST(AllotmentTest, JoinAwareSizingAddsTheBlockingDependent) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  TreeScheduleOptions join_aware;
  TreeScheduleOptions build_only;
  build_only.build_degree = BuildDegreePolicy::kBuildOnly;
  auto joint = Allotment::Create(fx.op_tree, fx.costs, CostParams{},
                                 Machine(8), usage, join_aware);
  auto own = Allotment::Create(fx.op_tree, fx.costs, CostParams{}, Machine(8),
                               usage, build_only);
  ASSERT_TRUE(joint.ok());
  ASSERT_TRUE(own.ok());
  int builds = 0;
  for (const PhysicalOp& op : fx.op_tree.ops()) {
    const OperatorCost& cost = fx.costs[static_cast<size_t>(op.id)];
    EXPECT_EQ(own->SizingCost(op.id).data_bytes, cost.data_bytes);
    if (op.blocking_input < 0) continue;
    ++builds;
    EXPECT_TRUE(joint->HasBlockingDependent(op.blocking_input));
    const OperatorCost& dep = fx.costs[static_cast<size_t>(op.id)];
    const OperatorCost& build =
        fx.costs[static_cast<size_t>(op.blocking_input)];
    EXPECT_EQ(joint->SizingCost(op.blocking_input).data_bytes,
              build.data_bytes + dep.data_bytes);
  }
  EXPECT_GT(builds, 0);
}

TEST(AllotmentTest, CreateValidatesLikeTreeSchedule) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  std::vector<OperatorCost> short_costs = fx.costs;
  short_costs.pop_back();
  EXPECT_EQ(Allotment::Create(fx.op_tree, short_costs, CostParams{},
                              Machine(8), usage, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  MachineConfig no_sites = Machine(0);
  EXPECT_FALSE(Allotment::Create(fx.op_tree, fx.costs, CostParams{}, no_sites,
                                 usage, {})
                   .ok());
  // A cache built for another machine is refused.
  ParallelizeCache cache(CostParams{}, usage.epsilon(), 0.7, 16);
  TreeScheduleOptions options;
  options.cache = &cache;
  EXPECT_EQ(Allotment::Create(fx.op_tree, fx.costs, CostParams{}, Machine(8),
                              usage, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(Allotment::Create(fx.op_tree, fx.costs, CostParams{},
                                Machine(16), usage, options)
                  .ok());
}

// MRS_FUZZ_SEED replays another plan set; its digest is printed (to
// compare two builds), as only the default seed has a pinned value.

TEST(AllotmentTest, EngineDigestMatchesParent) {
  constexpr uint64_t kSeed = 33;
  const uint64_t seed = testing_util::FuzzSeed(kSeed);
  const uint64_t digest = EngineAllotmentDigest(seed);
  if (seed != kSeed) {
    std::printf("engine allotment digest seed=%llu: %llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(digest));
    return;
  }
  EXPECT_EQ(digest, 16210516063653007656ull);
}

TEST(AllotmentTest, MemoryAwareDigestMatchesParent) {
  constexpr uint64_t kSeed = 33;
  const uint64_t seed = testing_util::FuzzSeed(kSeed);
  const uint64_t digest = MemoryAwareDigest(seed);
  if (seed != kSeed) {
    std::printf("memory-aware digest seed=%llu: %llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(digest));
    return;
  }
  EXPECT_EQ(digest, 13921822293705485452ull);
}

}  // namespace
}  // namespace mrs
