#ifndef MRS_TESTS_TEST_UTIL_H_
#define MRS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/schedule.h"
#include "cost/cost_model.h"
#include "cost/parallelize.h"
#include "plan/operator_tree.h"
#include "plan/plan_tree.h"
#include "plan/task_tree.h"
#include "resource/usage_model.h"

namespace mrs {
namespace testing_util {

/// Assembles a ParallelizedOp directly from clone work vectors — used by
/// scheduler tests to craft synthetic instances without going through the
/// cost model.
inline ParallelizedOp MakeOp(int id, std::vector<WorkVector> clones,
                             const OverlapUsageModel& usage,
                             std::vector<int> home = {}) {
  ParallelizedOp op;
  op.op_id = id;
  op.kind = OperatorKind::kScan;
  op.degree = static_cast<int>(clones.size());
  op.clones = std::move(clones);
  for (const auto& w : op.clones) {
    const double t = usage.SequentialTime(w);
    op.t_seq.push_back(t);
    op.t_par = std::max(op.t_par, t);
  }
  if (!home.empty()) {
    op.rooted = true;
    op.home = std::move(home);
  }
  return op;
}

/// A single-clone op with the given work vector.
inline ParallelizedOp MakeUnitOp(int id, WorkVector w,
                                 const OverlapUsageModel& usage) {
  return MakeOp(id, {std::move(w)}, usage);
}

/// Lower bound used in Theorem 5.1(a)/7.1 style checks:
/// LB = max( l(S)/P , max_i T_par_i ).
inline double ListScheduleLowerBound(const std::vector<ParallelizedOp>& ops,
                                     int num_sites) {
  double h = 0.0;
  WorkVector sum;
  for (const auto& op : ops) {
    h = std::max(h, op.t_par);
    WorkVector total = op.TotalWork();
    if (sum.empty()) {
      sum = total;
    } else {
      sum += total;
    }
  }
  const double packing =
      sum.empty() ? 0.0 : sum.Length() / static_cast<double>(num_sites);
  return std::max(h, packing);
}

/// A self-contained bundle of plan-derived scheduler inputs for tests.
struct PlanFixture {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<PlanTree> plan;
  OperatorTree op_tree;
  TaskTree task_tree;
  std::vector<OperatorCost> costs;
};

/// Builds a catalog of relations with the given sizes.
inline std::unique_ptr<Catalog> MakeCatalog(
    const std::vector<int64_t>& sizes) {
  auto catalog = std::make_unique<Catalog>();
  for (size_t i = 0; i < sizes.size(); ++i) {
    Relation r;
    r.name = "R" + std::to_string(i);
    r.num_tuples = sizes[i];
    auto id = catalog->AddRelation(std::move(r));
    if (!id.ok()) std::abort();
  }
  return catalog;
}

/// Derives operator tree, task tree, and costs from a plan. `build`
/// receives the PlanTree and adds leaves/joins; the helper finalizes.
template <typename BuildFn>
PlanFixture MakeFixture(const std::vector<int64_t>& sizes, BuildFn build,
                        int dims = 3) {
  PlanFixture fx;
  fx.catalog = MakeCatalog(sizes);
  fx.plan = std::make_unique<PlanTree>(fx.catalog.get());
  build(fx.plan.get());
  if (!fx.plan->Finalize().ok()) std::abort();
  auto ops = OperatorTree::FromPlan(*fx.plan);
  if (!ops.ok()) std::abort();
  fx.op_tree = std::move(ops).value();
  auto tasks = TaskTree::FromOperatorTree(&fx.op_tree);
  if (!tasks.ok()) std::abort();
  fx.task_tree = std::move(tasks).value();
  CostModel model(CostParams{}, dims);
  auto costs = model.CostAll(fx.op_tree);
  if (!costs.ok()) std::abort();
  fx.costs = std::move(costs).value();
  return fx;
}

/// A balanced bushy plan fixture: (R0 JOIN R1) JOIN (R2 JOIN R3).
inline PlanFixture BushyFourWayFixture(
    std::vector<int64_t> sizes = {4000, 2000, 8000, 1000}) {
  return MakeFixture(sizes, [](PlanTree* plan) {
    int j0 =
        plan->AddJoin(plan->AddLeaf(0).value(), plan->AddLeaf(1).value())
            .value();
    int j1 =
        plan->AddJoin(plan->AddLeaf(2).value(), plan->AddLeaf(3).value())
            .value();
    plan->AddJoin(j0, j1).value();
  });
}

/// Seed for randomized/fuzz tests: the `MRS_FUZZ_SEED` environment
/// variable overrides `fallback`, so a failure printed as
/// `MRS_FUZZ_SEED=<seed> ctest -R <test>` replays exactly.
inline uint64_t FuzzSeed(uint64_t fallback) {
  const char* env = std::getenv("MRS_FUZZ_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

/// FNV-1a over `text`, folded into `*h`: the digest the *MatchesParent
/// tests pin a whole result set with.
inline void Fnv1a(const char* text, uint64_t* h) {
  for (const char* c = text; *c != '\0'; ++c) {
    *h ^= static_cast<unsigned char>(*c);
    *h *= 1099511628211ull;
  }
}

/// Folds one "%a"-formatted (bit-exact) double into the digest.
inline void HashDouble(const char* tag, double v, uint64_t* h) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %a\n", tag, v);
  Fnv1a(buf, h);
}

inline void HashInt(const char* tag, long long v, uint64_t* h) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %lld\n", tag, v);
  Fnv1a(buf, h);
}

/// Capacity feasibility of a reported timeline (paper eq. (2), A2/A3),
/// checked from the placements and clone finishes alone, without the
/// timeline code that produced them. Per site, with a 1e-9 tolerance
/// relative to the instants involved:
///   * every window [start_a, finish_b] holds at most its length of work,
///     per dimension, from the clones wholly inside it (unit capacity);
///   * every clone takes at least its stand-alone T_seq.
inline ::testing::AssertionResult CheckWindowCapacity(
    const Schedule& schedule, const std::vector<double>& clone_finish) {
  const std::vector<ClonePlacement>& placements = schedule.placements();
  if (clone_finish.size() != placements.size()) {
    return ::testing::AssertionFailure()
           << clone_finish.size() << " finishes for " << placements.size()
           << " placements";
  }
  constexpr double kRelTol = 1e-9;
  for (int j = 0; j < schedule.num_sites(); ++j) {
    std::vector<int> by_finish(schedule.SitePlacements(j).begin(),
                               schedule.SitePlacements(j).end());
    std::sort(by_finish.begin(), by_finish.end(), [&](int a, int b) {
      return clone_finish[static_cast<size_t>(a)] <
             clone_finish[static_cast<size_t>(b)];
    });
    for (int p : by_finish) {
      const ClonePlacement& c = placements[static_cast<size_t>(p)];
      const double finish = clone_finish[static_cast<size_t>(p)];
      if (finish - c.start < c.t_seq - kRelTol * std::max(1.0, finish)) {
        return ::testing::AssertionFailure()
               << "site " << j << ": op" << c.op_id << "." << c.clone_idx
               << " runs [" << c.start << ", " << finish
               << "], shorter than its T_seq " << c.t_seq;
      }
    }
    // Windows open at each clone's start; walking the clones in finish
    // order accumulates those wholly inside [open, finish].
    for (int a : by_finish) {
      const double open = placements[static_cast<size_t>(a)].start;
      WorkVector inside(static_cast<size_t>(schedule.dims()));
      for (int b : by_finish) {
        const ClonePlacement& c = placements[static_cast<size_t>(b)];
        if (c.start < open) continue;
        inside += c.work;
        const double close = clone_finish[static_cast<size_t>(b)];
        const double capacity =
            (close - open) + kRelTol * std::max(1.0, close);
        for (size_t i = 0; i < inside.dim(); ++i) {
          if (inside[i] > capacity) {
            return ::testing::AssertionFailure()
                   << "site " << j << " window [" << open << ", " << close
                   << "] holds " << inside[i] << " of resource " << i;
          }
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// A fully pipelined chain of `joins` joins (2 phases).
inline PlanFixture PipelinedChainFixture(int joins, int64_t tuples = 3000) {
  std::vector<int64_t> sizes(static_cast<size_t>(joins + 1), tuples);
  return MakeFixture(sizes, [joins](PlanTree* plan) {
    int cur = plan->AddLeaf(0).value();
    for (int i = 1; i <= joins; ++i) {
      cur = plan->AddJoin(cur, plan->AddLeaf(i).value()).value();
    }
  });
}

}  // namespace testing_util
}  // namespace mrs

#endif  // MRS_TESTS_TEST_UTIL_H_
