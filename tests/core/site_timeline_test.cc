// Tests for SiteTimeline, the one implementation of eq. (2) over
// remaining work with staggered arrivals, and for SweepSite, the per-site
// sweep Schedule and FluidSimulator run through it. The digest test pins
// every timeline path of the engines and the simulator bit for bit.

#include "core/site_timeline.h"

#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "cost/cost_model.h"
#include "exec/fluid_simulator.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"
#include "test_util.h"
#include "workload/generator.h"

namespace mrs {
namespace {

TEST(SiteTimelineTest, OneWaveIsEquation2) {
  // Paper §5.2.2: (22, [10,15]) with (10, [10,5]) -> 22, the slowest
  // clone binds; with (10, [5,10]) instead resource 2 congests -> 25.
  SiteTimeline squeeze(2);
  squeeze.Arrive(0, WorkVector{10.0, 15.0}, 22.0);
  squeeze.Arrive(1, WorkVector{10.0, 5.0}, 10.0);
  EXPECT_EQ(squeeze.Project(), 22.0);
  EXPECT_EQ(squeeze.longest_own(), 22.0);
  EXPECT_EQ(squeeze.load(), WorkVector({20.0, 20.0}));

  SiteTimeline congested(2);
  congested.Arrive(0, WorkVector{10.0, 15.0}, 22.0);
  congested.Arrive(1, WorkVector{5.0, 10.0}, 10.0);
  EXPECT_EQ(congested.Project(), 25.0);
  WorkVector busy(2);
  congested.Complete(&busy);
  EXPECT_TRUE(congested.empty());
  EXPECT_EQ(congested.now(), 25.0);
  EXPECT_EQ(congested.finish(), 25.0);
  EXPECT_EQ(busy, WorkVector({15.0, 25.0}));
}

TEST(SiteTimelineTest, MidWaveArrivalRescalesResidents) {
  // A 4 ms CPU clone runs alone; at t=2 it has half its work left, and a
  // 4 ms disk clone joins: common completion 2 + max(2, 4) = 6.
  SiteTimeline site(2);
  site.Arrive(0, WorkVector{4.0, 0.0}, 4.0);
  EXPECT_EQ(site.Project(), 4.0);
  WorkVector busy(2);
  site.AdvanceTo(2.0, &busy);
  EXPECT_EQ(busy, WorkVector({2.0, 0.0}));
  ASSERT_EQ(site.residents().size(), 1u);
  EXPECT_EQ(site.residents()[0].remaining, WorkVector({2.0, 0.0}));
  EXPECT_EQ(site.residents()[0].own, 2.0);
  site.Arrive(1, WorkVector{0.0, 4.0}, 4.0);
  EXPECT_EQ(site.Project(), 6.0);
  site.Complete(&busy);
  EXPECT_EQ(busy, WorkVector({4.0, 4.0}));  // work is conserved
  EXPECT_EQ(site.now(), 6.0);
}

TEST(SiteTimelineTest, IdleGapDelaysTheNextWave) {
  // The second clone arrives after the first finished: the site idles
  // from 4 to 10 and the second wave ends at 10 + 4.
  const std::vector<WorkVector> work = {WorkVector{4.0, 0.0},
                                        WorkVector{4.0, 0.0}};
  const std::vector<SiteArrival> arrivals = {{0.0, 0, &work[0], 4.0},
                                             {10.0, 1, &work[1], 4.0}};
  std::vector<double> finish(2, -1.0);
  WorkVector busy(2);
  EXPECT_EQ(SweepSite(arrivals, 2, &finish, &busy), 14.0);
  EXPECT_EQ(finish, (std::vector<double>{4.0, 14.0}));
  EXPECT_EQ(busy, WorkVector({8.0, 0.0}));

  // On an idle site AdvanceTo only moves the clock, never backwards.
  SiteTimeline idle(1);
  idle.AdvanceTo(5.0);
  idle.AdvanceTo(3.0);
  EXPECT_EQ(idle.now(), 5.0);
  EXPECT_EQ(SweepSite({}, 2, nullptr, nullptr), 0.0);
}

TEST(SiteTimelineTest, ZeroWorkCloneFinishesAtItsArrival) {
  const WorkVector zero(1);
  const WorkVector four{4.0};
  // Alone, after an idle gap: done the instant it arrives.
  std::vector<double> finish(1, -1.0);
  EXPECT_EQ(SweepSite({{3.0, 0, &zero, 0.0}}, 1, &finish, nullptr), 3.0);
  EXPECT_EQ(finish[0], 3.0);
  // Mid-wave it adds no work, so the resident's completion stands.
  finish.assign(2, -1.0);
  EXPECT_EQ(SweepSite({{0.0, 0, &four, 4.0}, {2.0, 1, &zero, 0.0}}, 1,
                      &finish, nullptr),
            4.0);
  EXPECT_EQ(finish, (std::vector<double>{4.0, 4.0}));
  // A zero-length wave (finish == now) is not rescaled by 0/0.
  SiteTimeline site(1);
  site.Arrive(0, zero, 0.0);
  EXPECT_EQ(site.Project(), 0.0);
  site.AdvanceTo(0.0);
  EXPECT_EQ(site.residents()[0].remaining, zero);
  EXPECT_EQ(site.residents()[0].own, 0.0);
}

TEST(SiteTimelineTest, TiedStartsArriveTogetherInCallerOrder) {
  const WorkVector four{4.0};
  const WorkVector two{2.0};
  std::vector<SiteArrival> arrivals = {
      {2.0, 0, &two, 2.0}, {0.0, 1, &four, 4.0}, {2.0, 2, &two, 2.0}};
  SortByArrival(&arrivals);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0].id, 1);
  EXPECT_EQ(arrivals[1].id, 0);
  EXPECT_EQ(arrivals[2].id, 2);
  // At t=2 the resident has 2 ms left; both newcomers join in one
  // projection: 2 + max(2, 2 + 2 + 2) = 8 for all three.
  std::vector<double> finish(3, -1.0);
  WorkVector busy(1);
  EXPECT_EQ(SweepSite(arrivals, 1, &finish, &busy), 8.0);
  EXPECT_EQ(finish, (std::vector<double>{8.0, 8.0, 8.0}));
  EXPECT_EQ(busy, WorkVector({8.0}));
}

using testing_util::HashDouble;
using testing_util::HashInt;

void HashFinishes(const std::vector<double>& finish, uint64_t* h) {
  for (double f : finish) HashDouble("f", f, h);
}

/// SimulatePhase and SimulateTimed of `schedule` under both policies:
/// makespan, per-site busy and finish, per-clone finish.
void HashSimulations(const Schedule& schedule, uint64_t* h) {
  for (SharingPolicy policy :
       {SharingPolicy::kOptimalStretch, SharingPolicy::kUniformSlowdown}) {
    const FluidSimulator sim(policy);
    for (int timed = 0; timed < 2; ++timed) {
      auto r = timed ? sim.SimulateTimed(schedule)
                     : sim.SimulatePhase(schedule);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      HashDouble("sim", r->makespan, h);
      for (const SiteUtilization& site : r->sites) {
        HashDouble("site", site.finish, h);
        for (double b : site.busy) HashDouble("b", b, h);
      }
      HashFinishes(r->clone_finish, h);
    }
  }
}

/// Digest of every timeline path over a fixed plan set: P in {8, 64} x
/// d in {3, 12}, four generated plans each. Per plan: LIST and PIPELINED
/// with their guards on and off (makespan, clone starts and finishes,
/// task intervals, eq. (3) diagnosis), Schedule::CloneFinishTimes of the
/// list schedule and of every TREESCHEDULE phase, and both simulator
/// entry points under both sharing policies on each of those schedules.
uint64_t TimelineDigest(uint64_t seed) {
  uint64_t h = 14695981039346656037ull;
  Rng master(seed);
  for (int sites : {8, 64}) {
    for (int dims : {3, 12}) {
      MachineConfig machine = MachineConfig::WithDisks(sites, dims - 2);
      const CostModel model(CostParams{}, dims, dims - 2);
      for (int plan = 0; plan < 4; ++plan) {
        Rng stream = master.Fork();
        WorkloadParams workload;
        workload.num_joins = 2 + static_cast<int>(stream.Index(9));
        workload.sort_probability = 0.2;
        workload.aggregate_probability = 0.2;
        const OverlapUsageModel usage(stream.UniformDouble());
        auto query = GenerateQuery(workload, &stream);
        EXPECT_TRUE(query.ok()) << query.status().ToString();
        if (!query.ok()) return 0;
        auto op_tree = OperatorTree::FromPlan(*query->plan);
        EXPECT_TRUE(op_tree.ok());
        if (!op_tree.ok()) return 0;
        auto task_tree = TaskTree::FromOperatorTree(&*op_tree);
        EXPECT_TRUE(task_tree.ok());
        if (!task_tree.ok()) return 0;
        auto costs = model.CostAll(*op_tree);
        EXPECT_TRUE(costs.ok());
        if (!costs.ok()) return 0;

        auto tree = TreeSchedule(*op_tree, *task_tree, *costs, CostParams{},
                                 machine, usage);
        EXPECT_TRUE(tree.ok()) << tree.status().ToString();
        if (!tree.ok()) return 0;
        for (const PhaseSchedule& phase : tree->phases) {
          HashFinishes(phase.schedule.CloneFinishTimes(), &h);
          HashSimulations(phase.schedule, &h);
        }

        for (bool pipeline : {false, true}) {
          for (bool guard : {true, false}) {
            ListScheduleOptions options;
            options.pipeline = pipeline;
            options.pipeline_guard = guard;
            options.tree_guard = guard;
            auto list = ListSchedule(*op_tree, *task_tree, *costs,
                                     CostParams{}, machine, usage, options);
            EXPECT_TRUE(list.ok()) << list.status().ToString();
            if (!list.ok()) return 0;
            HashDouble("makespan", list->makespan, &h);
            HashFinishes(list->clone_finish, &h);
            for (const ClonePlacement& p : list->schedule.placements()) {
              HashInt("site", p.site, &h);
              HashDouble("start", p.start, &h);
            }
            for (const ListTaskInterval& t : list->tasks) {
              HashDouble("ts", t.start, &h);
              HashDouble("tf", t.finish, &h);
            }
            HashInt("critical_site", list->critical_site, &h);
            HashInt("critical_resource", list->critical_resource, &h);
            HashInt("load_bound", list->load_bound ? 1 : 0, &h);
            HashFinishes(list->schedule.CloneFinishTimes(), &h);
            HashDouble("schedule_makespan", list->schedule.Makespan(), &h);
            HashSimulations(list->schedule, &h);
          }
        }
      }
    }
  }
  return h;
}

TEST(SiteTimelineTest, TimelineDigestMatchesParent) {
  // The constant was captured by running TimelineDigest on the code
  // before SiteTimeline existed, when Schedule, FluidSimulator and
  // LISTSCHEDULE each swept their own resident sets: every timeline the
  // engines and the simulator report is bit-identical to theirs.
  // MRS_FUZZ_SEED replays another plan set; its digest is printed (to
  // compare two builds), as only the default seed has a pinned value.
  constexpr uint64_t kSeed = 20;
  const uint64_t seed = testing_util::FuzzSeed(kSeed);
  const uint64_t digest = TimelineDigest(seed);
  if (seed != kSeed) {
    std::printf("timeline digest seed=%llu: %llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(digest));
    return;
  }
  EXPECT_EQ(digest, 17611304811184567919ull);
}

}  // namespace
}  // namespace mrs
