// CloneSet: uniform-clone compression semantics (DESIGN.md §4f) — the
// compressed {coordinator, base, degree} form must be observationally
// identical to the expanded vector of clones for every consumer, and
// mutation must expand (copy-on-write) without disturbing other clones.

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/exhaustive.h"
#include "core/operator_schedule.h"
#include "core/preemptability.h"
#include "core/schedule.h"
#include "cost/clone_set.h"
#include "cost/parallelize.h"
#include "exec/fluid_simulator.h"
#include "resource/usage_model.h"
#include "test_util.h"
#include "workload/skew.h"

namespace mrs {
namespace {

using testing_util::MakeOp;

CloneSet SampleUniform(int degree) {
  WorkVector base({10.0, 6.0, 2.0});
  WorkVector coordinator({14.0, 6.0, 6.0});
  return CloneSet::Uniform(coordinator, base, degree);
}

TEST(CloneSetTest, UniformExposesIndexedReads) {
  CloneSet set = SampleUniform(5);
  EXPECT_TRUE(set.uniform());
  EXPECT_EQ(set.size(), 5u);
  EXPECT_FALSE(set.empty());
  EXPECT_EQ(set[0], WorkVector({14.0, 6.0, 6.0}));
  EXPECT_EQ(set.front(), set[0]);
  for (size_t k = 1; k < set.size(); ++k) {
    EXPECT_EQ(set[k], WorkVector({10.0, 6.0, 2.0}));
  }
}

TEST(CloneSetTest, IterationMatchesExpandedForm) {
  CloneSet set = SampleUniform(4);
  CloneSet expanded = set;
  expanded.Materialize();
  EXPECT_FALSE(expanded.uniform());
  ASSERT_EQ(expanded.size(), 4u);
  size_t k = 0;
  for (const WorkVector& w : set) {
    EXPECT_EQ(w, expanded[k]) << "clone " << k;
    ++k;
  }
  EXPECT_EQ(k, 4u);
  EXPECT_EQ(set, expanded);
}

TEST(CloneSetTest, SumIsBitIdenticalToExpandedSum) {
  CloneSet set = SampleUniform(7);
  CloneSet expanded = set;
  const WorkVector sum = set.Sum();
  const WorkVector expanded_sum = SumVectors(expanded.Materialized());
  ASSERT_EQ(sum.dim(), expanded_sum.dim());
  for (size_t i = 0; i < sum.dim(); ++i) {
    // Exact equality: Sum accumulates in index order, like SumVectors.
    EXPECT_EQ(sum[i], expanded_sum[i]) << "component " << i;
  }
}

TEST(CloneSetTest, MutableExpandsAndWritesOneClone) {
  CloneSet set = SampleUniform(4);
  set.Mutable(2) = WorkVector({99.0, 0.0, 0.0});
  EXPECT_FALSE(set.uniform());
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(set[0], WorkVector({14.0, 6.0, 6.0}));
  EXPECT_EQ(set[1], WorkVector({10.0, 6.0, 2.0}));
  EXPECT_EQ(set[2], WorkVector({99.0, 0.0, 0.0}));
  EXPECT_EQ(set[3], WorkVector({10.0, 6.0, 2.0}));
}

TEST(CloneSetTest, PushBackExpandsFirst) {
  CloneSet set = SampleUniform(2);
  set.push_back(WorkVector({1.0, 2.0, 3.0}));
  EXPECT_FALSE(set.uniform());
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set[2], WorkVector({1.0, 2.0, 3.0}));
}

TEST(CloneSetTest, VectorAndInitializerListConstruction) {
  std::vector<WorkVector> clones = {WorkVector({1.0}), WorkVector({2.0})};
  CloneSet from_vector(clones);
  CloneSet from_list = {WorkVector({1.0}), WorkVector({2.0})};
  EXPECT_FALSE(from_vector.uniform());
  EXPECT_EQ(from_vector, from_list);
  EXPECT_NE(from_vector, CloneSet({WorkVector({3.0}), WorkVector({2.0})}));
}

TEST(CloneSetTest, SkewedClonesBecomeDistinctVectors) {
  const OverlapUsageModel usage(0.5);
  const CostParams params;
  OperatorCost cost;
  cost.op_id = 1;
  cost.processing = WorkVector({200.0, 150.0, 10.0});
  cost.data_bytes = 40000.0;
  auto op = ParallelizeAtDegree(cost, params, usage, 6, 8);
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(op->clones.uniform());

  SkewParams skew;
  skew.theta = 0.8;
  Rng rng(1234);
  const ParallelizedOp skewed = ApplySkew(*op, skew, usage, &rng);
  EXPECT_FALSE(skewed.clones.uniform())
      << "skew must expand the uniform set";
  // Zipf weights are all distinct, so (at least) two non-coordinator
  // clones must now differ — the uniform invariant is really broken.
  bool distinct = false;
  for (size_t k = 2; k < skewed.clones.size(); ++k) {
    if (skewed.clones[k] != skewed.clones[1]) distinct = true;
  }
  EXPECT_TRUE(distinct);
  // The source set stays compressed: ApplySkew reads through the const
  // indexed API and only the copy expands.
  EXPECT_TRUE(op->clones.uniform());
}

/// An op list whose clone sets are all uniform (the production path).
std::vector<ParallelizedOp> UniformOpMix(const OverlapUsageModel& usage,
                                         int num_sites) {
  const CostParams params;
  std::vector<ParallelizedOp> ops;
  for (int i = 0; i < 9; ++i) {
    OperatorCost cost;
    cost.op_id = i;
    cost.processing = WorkVector(
        {150.0 + 40.0 * (i % 4), 100.0 + 25.0 * (i % 3), 5.0 + i});
    cost.data_bytes = 15000.0 * (1 + i % 5);
    auto op = ParallelizeFloating(cost, params, usage, 0.7, num_sites);
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    ops.push_back(std::move(op).value());
  }
  return ops;
}

std::vector<ParallelizedOp> MaterializedCopy(
    const std::vector<ParallelizedOp>& ops) {
  std::vector<ParallelizedOp> expanded = ops;
  for (auto& op : expanded) op.clones.Materialize();
  return expanded;
}

void ExpectIdenticalSchedules(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.num_placements(), b.num_placements());
  for (int p = 0; p < a.num_placements(); ++p) {
    const ClonePlacement& pa = a.placements()[static_cast<size_t>(p)];
    const ClonePlacement& pb = b.placements()[static_cast<size_t>(p)];
    EXPECT_EQ(pa.op_id, pb.op_id);
    EXPECT_EQ(pa.clone_idx, pb.clone_idx);
    EXPECT_EQ(pa.site, pb.site);
    EXPECT_EQ(pa.work, pb.work);
    EXPECT_EQ(pa.t_seq, pb.t_seq);  // bitwise
  }
  EXPECT_EQ(a.Makespan(), b.Makespan());  // bitwise
}

// Differential sweep: OPERATORSCHEDULE must produce byte-identical
// schedules from compressed and materialized clone sets, across list
// orders and both site-selection engines.
TEST(CloneSetDifferentialTest, OperatorScheduleIdenticalAfterCompression) {
  const OverlapUsageModel usage(0.5);
  const int num_sites = 12;
  const std::vector<ParallelizedOp> uniform = UniformOpMix(usage, num_sites);
  const std::vector<ParallelizedOp> expanded = MaterializedCopy(uniform);
  for (ListOrder order : {ListOrder::kDecreasingLength,
                          ListOrder::kIncreasingLength,
                          ListOrder::kInputOrder, ListOrder::kRandom}) {
    for (bool indexed : {true, false}) {
      OperatorScheduleOptions options;
      options.order = order;
      options.placement_index = indexed;
      auto a = OperatorSchedule(uniform, num_sites, 3, options);
      auto b = OperatorSchedule(expanded, num_sites, 3, options);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectIdenticalSchedules(*a, *b);
    }
  }
}

TEST(CloneSetDifferentialTest, PenaltyAwareIdenticalAfterCompression) {
  const OverlapUsageModel usage(0.5);
  const int num_sites = 8;
  const std::vector<ParallelizedOp> uniform = UniformOpMix(usage, num_sites);
  const std::vector<ParallelizedOp> expanded = MaterializedCopy(uniform);
  const PreemptabilityPenalty penalty =
      PreemptabilityPenalty::ForDim(3, kDiskDim, 0.1);
  auto a = PenaltyAwareOperatorSchedule(uniform, num_sites, 3, penalty);
  auto b = PenaltyAwareOperatorSchedule(expanded, num_sites, 3, penalty);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdenticalSchedules(*a, *b);
  EXPECT_EQ(PenalizedMakespan(*a, penalty), PenalizedMakespan(*b, penalty));
}

TEST(CloneSetDifferentialTest, ExhaustiveSearchIdenticalAfterCompression) {
  const OverlapUsageModel usage(0.5);
  const CostParams params;
  // Small instance: the branch-and-bound search must visit the same tree.
  std::vector<ParallelizedOp> uniform;
  for (int i = 0; i < 4; ++i) {
    OperatorCost cost;
    cost.op_id = i;
    cost.processing = WorkVector({80.0 + 30.0 * i, 60.0, 5.0});
    cost.data_bytes = 10000.0;
    auto op = ParallelizeAtDegree(cost, params, usage, 2, 3);
    ASSERT_TRUE(op.ok());
    uniform.push_back(std::move(op).value());
  }
  const std::vector<ParallelizedOp> expanded = MaterializedCopy(uniform);
  auto a = ExhaustiveOptimalMakespan(uniform, 3, 3);
  auto b = ExhaustiveOptimalMakespan(expanded, 3, 3);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->proven_optimal);
  EXPECT_EQ(a->makespan, b->makespan);  // bitwise
  EXPECT_EQ(a->nodes_explored, b->nodes_explored);
}

TEST(CloneSetDifferentialTest, FluidSimulationIdenticalAfterCompression) {
  const OverlapUsageModel usage(0.5);
  const int num_sites = 6;
  const std::vector<ParallelizedOp> uniform = UniformOpMix(usage, num_sites);
  const std::vector<ParallelizedOp> expanded = MaterializedCopy(uniform);
  auto a = OperatorSchedule(uniform, num_sites, 3);
  auto b = OperatorSchedule(expanded, num_sites, 3);
  ASSERT_TRUE(a.ok() && b.ok());
  for (SharingPolicy policy :
       {SharingPolicy::kOptimalStretch, SharingPolicy::kUniformSlowdown}) {
    const FluidSimulator simulator(policy);
    auto sa = simulator.SimulatePhase(*a);
    auto sb = simulator.SimulatePhase(*b);
    ASSERT_TRUE(sa.ok() && sb.ok());
    EXPECT_EQ(sa->makespan, sb->makespan);  // bitwise
    ASSERT_EQ(sa->clone_finish.size(), sb->clone_finish.size());
    for (size_t i = 0; i < sa->clone_finish.size(); ++i) {
      EXPECT_EQ(sa->clone_finish[i], sb->clone_finish[i]);
    }
  }
}

}  // namespace
}  // namespace mrs
