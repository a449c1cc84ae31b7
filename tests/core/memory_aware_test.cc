#include "core/memory_aware.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::MakeFixture;
using testing_util::PipelinedChainFixture;
using testing_util::PlanFixture;

MachineConfig Machine(int sites) {
  MachineConfig m;
  m.num_sites = sites;
  return m;
}

MemoryOptions Memory(double bytes) {
  MemoryOptions m;
  m.site_memory_bytes = bytes;
  return m;
}

TEST(MemoryAwareTest, AmpleMemoryMatchesPlainTreeSchedule) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  auto plain = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                            Machine(12), usage);
  auto mem = MemoryAwareTreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                     CostParams{}, Machine(12), usage, {},
                                     Memory(1e12));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem->phase_splits, 0);
  EXPECT_EQ(mem->phases.size(), plain->phases.size());
  // Memory never constrains placement, so response matches the plain
  // scheduler exactly (identical list decisions).
  EXPECT_NEAR(mem->response_time, plain->response_time, 1e-9);
}

TEST(MemoryAwareTest, TracksResidentTables) {
  PlanFixture fx = BushyFourWayFixture({4000, 2000, 8000, 1000});
  OverlapUsageModel usage(0.5);
  auto mem = MemoryAwareTreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                     CostParams{}, Machine(8), usage, {},
                                     Memory(1e12));
  ASSERT_TRUE(mem.ok());
  EXPECT_GT(mem->peak_site_memory, 0.0);
  // Peak is at most the total table volume (2000+1000+8000 tuples inner,
  // 128B each, x1.2 overhead).
  const double total_tables = (2000.0 + 1000.0 + 8000.0) * 128.0 * 1.2;
  EXPECT_LE(mem->peak_site_memory, total_tables + 1.0);
}

// Bushy plan whose middle phase holds a memory-releasing probe task and a
// table-building task at once: (R0 JOIN R1) JOIN (R2 JOIN R3) on ONE site.
// Tables: t0 = |R1|, t1 = |R3|, t2 = |J1 out| = max(|R2|,|R3|), each times
// 128 B x 1.2 overhead. The middle phase needs t0 + t1 + t2 together =
// 6.14 MB; splitting it (probe task first, releasing t1) peaks at
// t1 + t2 = 4.6 MB.
PlanFixture SplittableBushyFixture() {
  return MakeFixture({5000, 10000, 20000, 10000}, [](PlanTree* plan) {
    int j0 =
        plan->AddJoin(plan->AddLeaf(0).value(), plan->AddLeaf(1).value())
            .value();
    int j1 =
        plan->AddJoin(plan->AddLeaf(2).value(), plan->AddLeaf(3).value())
            .value();
    plan->AddJoin(j0, j1).value();
  });
}

TEST(MemoryAwareTest, TightMemorySplitsPhases) {
  PlanFixture fx = SplittableBushyFixture();
  OverlapUsageModel usage(0.5);
  const MachineConfig machine = Machine(1);
  auto roomy = MemoryAwareTreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                       CostParams{}, machine, usage, {},
                                       Memory(1e12));
  ASSERT_TRUE(roomy.ok());
  ASSERT_EQ(roomy->phase_splits, 0);

  auto tight = MemoryAwareTreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                       CostParams{}, machine, usage, {},
                                       Memory(5.0 * 1024 * 1024));
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  EXPECT_GT(tight->phase_splits, 0);
  EXPECT_GT(tight->phases.size(), roomy->phases.size());
  // Serialization costs response time.
  EXPECT_GE(tight->response_time, roomy->response_time - 1e-9);
  // But memory stays within budget.
  EXPECT_LE(tight->peak_site_memory, 5.0 * 1024 * 1024 + 1.0);
}

TEST(MemoryAwareTest, SchedulesAllOperatorsDespiteSplits) {
  PlanFixture fx = SplittableBushyFixture();
  OverlapUsageModel usage(0.5);
  auto result = MemoryAwareTreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                        CostParams{}, Machine(1), usage, {},
                                        Memory(5.0 * 1024 * 1024));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->phase_splits, 0);
  for (const auto& op : fx.op_tree.ops()) {
    EXPECT_FALSE(result->HomeOf(op.id).empty()) << "op" << op.id;
  }
  // Probes still co-located with their builds.
  for (const auto& op : fx.op_tree.ops()) {
    if (op.kind == OperatorKind::kProbe) {
      EXPECT_EQ(result->HomeOf(op.id), result->HomeOf(op.blocking_input));
    }
  }
}

TEST(MemoryAwareTest, RaisesBuildDegreeToFitTables) {
  // One join with a big inner table and tiny per-site memory: the build's
  // degree must rise so per-site shares fit.
  PlanFixture fx = MakeFixture({50000, 100000}, [](PlanTree* plan) {
    plan->AddJoin(plan->AddLeaf(0).value(), plan->AddLeaf(1).value())
        .value();
  });
  OverlapUsageModel usage(0.5);
  // Table = 100000*128*1.2 = 15.36MB; with 2MB sites, need >= 8 clones.
  auto result = MemoryAwareTreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                        CostParams{}, Machine(16), usage, {},
                                        Memory(2.0 * 1024 * 1024));
  ASSERT_TRUE(result.ok());
  const int build = fx.op_tree.OpsOfKind(OperatorKind::kBuild).front();
  EXPECT_GE(static_cast<int>(result->HomeOf(build).size()), 8);
}

TEST(MemoryAwareTest, FailsWhenASingleTableCannotFit) {
  PlanFixture fx = MakeFixture({50000, 100000}, [](PlanTree* plan) {
    plan->AddJoin(plan->AddLeaf(0).value(), plan->AddLeaf(1).value())
        .value();
  });
  OverlapUsageModel usage(0.5);
  // Table 15.36MB over 2 sites: shares of 7.7MB; sites only hold 1MB.
  auto result = MemoryAwareTreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                        CostParams{}, Machine(2), usage, {},
                                        Memory(1.0 * 1024 * 1024));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MemoryAwareTest, RejectsBadOptions) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  MemoryOptions bad;
  bad.site_memory_bytes = 0;
  EXPECT_FALSE(MemoryAwareTreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                       CostParams{}, Machine(4), usage, {},
                                       bad)
                   .ok());
  bad = MemoryOptions{};
  bad.hash_table_overhead = 0.5;
  EXPECT_FALSE(MemoryAwareTreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                       CostParams{}, Machine(4), usage, {},
                                       bad)
                   .ok());
}

TEST(MemoryAwareTest, RejectsTheMalleablePolicy) {
  // The memory floor is defined on the CG_f degree; a malleable request
  // must not silently get CG_f degrees back.
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  TreeScheduleOptions options;
  options.policy = ParallelizationPolicy::kMalleable;
  auto result =
      MemoryAwareTreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                              CostParams{}, Machine(8), usage, options,
                              Memory(1e12));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MemoryAwareTest, ToStringMentionsSplits) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  auto result = MemoryAwareTreeSchedule(fx.op_tree, fx.task_tree, fx.costs,
                                        CostParams{}, Machine(8), usage, {},
                                        Memory(1e12));
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->ToString().find("MemoryAwareSchedule"),
            std::string::npos);
}

}  // namespace
}  // namespace mrs
