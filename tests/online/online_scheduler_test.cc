#include "online/online_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "common/rng.h"
#include "core/tree_schedule.h"
#include "io/schedule_export.h"
#include "test_util.h"
#include "workload/generator.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::MakeFixture;
using testing_util::PipelinedChainFixture;
using testing_util::PlanFixture;

PlanFixture SingleJoinFixture(int64_t outer, int64_t inner) {
  return MakeFixture({outer, inner}, [](PlanTree* plan) {
    plan->AddJoin(plan->AddLeaf(0).value(), plan->AddLeaf(1).value()).value();
  });
}

/// The offline TREESCHEDULE of a fixture under the scheduler's defaults.
TreeScheduleResult OfflineSchedule(const PlanFixture& fx,
                                   const MachineConfig& machine,
                                   const TreeScheduleOptions& options = {}) {
  OverlapUsageModel usage(0.5);
  auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             machine, usage, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(OnlineSchedulerTest, IdleSystemMatchesOfflineByteForByte) {
  PlanFixture fx = BushyFourWayFixture();
  MachineConfig machine;
  const TreeScheduleResult offline = OfflineSchedule(fx, machine);

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t id = sched.Submit(*fx.plan);
  ASSERT_TRUE(sched.ResolveQuery(id).ok());
  const OnlineQueryResult* r = sched.result(id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->state, OnlineQueryState::kRunning);  // placed, clock behind
  ASSERT_TRUE(sched.Drain().ok());
  EXPECT_EQ(r->state, OnlineQueryState::kDone);

  // With nothing else resident the incremental path must reproduce the
  // offline schedule exactly — same placements, same phase makespans,
  // byte-identical JSON.
  EXPECT_EQ(TreeScheduleToJson(r->schedule), TreeScheduleToJson(offline));
  EXPECT_DOUBLE_EQ(r->schedule.response_time, offline.response_time);
  EXPECT_DOUBLE_EQ(r->finish_ms - r->admit_ms, offline.response_time);
  ASSERT_EQ(r->timings.size(), offline.phases.size());
  for (size_t k = 0; k < r->timings.size(); ++k) {
    EXPECT_DOUBLE_EQ(r->timings[k].DurationMs(),
                     offline.phases[k].makespan);
    EXPECT_DOUBLE_EQ(r->timings[k].uncontended_ms,
                     offline.phases[k].makespan);
  }
}

TEST(OnlineSchedulerTest, PlacementIndexMatchesLinearOnResidualPath) {
  // The placement-index switch threads through the online service's
  // residual-load branch: an overlapping multi-query workload placed with
  // the indexed engine must produce byte-identical schedule JSON to the
  // linear-scan oracle, phase by phase, while residents actually contend.
  PlanFixture fa = BushyFourWayFixture();
  PlanFixture fb = PipelinedChainFixture(3);
  MachineConfig machine;

  auto run = [&](bool use_index) {
    MetricsRegistry metrics;
    OnlineSchedulerOptions options;
    options.metrics = &metrics;
    options.tree.list_options.placement_index = use_index;
    OnlineScheduler sched(CostParams{}, machine, options);
    const uint64_t a = sched.Submit(*fa.plan, 0.0);
    // Overlap: B arrives while A's clones are resident.
    const uint64_t b = sched.Submit(*fb.plan, 0.5);
    EXPECT_TRUE(sched.Drain().ok());
    const OnlineQueryResult* ra = sched.result(a);
    const OnlineQueryResult* rb = sched.result(b);
    EXPECT_EQ(ra->state, OnlineQueryState::kDone);
    EXPECT_EQ(rb->state, OnlineQueryState::kDone);
    return TreeScheduleToJson(ra->schedule) + TreeScheduleToJson(rb->schedule);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(OnlineSchedulerTest, DisjointCapacityKeepsSingleQueryMakespans) {
  PlanFixture fa = SingleJoinFixture(8000, 4000);
  PlanFixture fb = SingleJoinFixture(1500, 1200);
  MachineConfig machine;
  // Coarse granularity keeps both queries' degrees well under the site
  // count, so least-loaded placement puts B on sites A does not touch.
  TreeScheduleOptions coarse;
  coarse.granularity = 0.1;
  const TreeScheduleResult offline_a = OfflineSchedule(fa, machine, coarse);
  const TreeScheduleResult offline_b = OfflineSchedule(fb, machine, coarse);

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.tree.granularity = 0.1;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fa.plan, 0.0);
  const OnlineQueryResult* ra = sched.result(a);
  ASSERT_NE(ra, nullptr);
  ASSERT_EQ(ra->state, OnlineQueryState::kRunning);
  ASSERT_FALSE(ra->timings.empty());
  // B arrives late in A's first phase (so A is still resident when B
  // places, and B is still resident when A places its probe phase).
  const uint64_t b = sched.Submit(*fb.plan, 0.85 * ra->timings[0].DurationMs());
  ASSERT_TRUE(sched.Drain().ok());
  const OnlineQueryResult* rb = sched.result(b);
  ASSERT_NE(rb, nullptr);
  ASSERT_EQ(ra->state, OnlineQueryState::kDone);
  ASSERT_EQ(rb->state, OnlineQueryState::kDone);

  // The queries' lifetimes genuinely interleave...
  EXPECT_LT(rb->admit_ms, ra->finish_ms);
  EXPECT_GT(rb->finish_ms, ra->finish_ms - ra->timings.back().DurationMs());
  // ...yet least-loaded placement routed every clone onto capacity the
  // other query was not using, so contention changes nothing: each
  // interleaved phase runs for exactly its uncontended makespan, which in
  // turn equals the single-query (offline) phase makespan.
  ASSERT_EQ(ra->timings.size(), offline_a.phases.size());
  for (size_t k = 0; k < ra->timings.size(); ++k) {
    EXPECT_DOUBLE_EQ(ra->timings[k].DurationMs(),
                     ra->timings[k].uncontended_ms);
    EXPECT_NEAR(ra->timings[k].DurationMs(), offline_a.phases[k].makespan,
                1e-9);
  }
  ASSERT_EQ(rb->timings.size(), offline_b.phases.size());
  for (size_t k = 0; k < rb->timings.size(); ++k) {
    EXPECT_DOUBLE_EQ(rb->timings[k].DurationMs(),
                     rb->timings[k].uncontended_ms);
    EXPECT_NEAR(rb->timings[k].DurationMs(), offline_b.phases[k].makespan,
                1e-9);
  }
  EXPECT_NEAR(rb->schedule.response_time, offline_b.response_time, 1e-9);
  // A's first phase was placed on a genuinely idle machine, so its
  // footprint matches offline exactly. (Later phases of A are placed
  // while B is resident and legitimately shift to equivalent free sites.)
  auto phase_sites = [](const TreeScheduleResult& r, size_t k) {
    std::set<int> sites;
    for (const auto& p : r.phases[k].schedule.placements()) {
      sites.insert(p.site);
    }
    return sites;
  };
  EXPECT_EQ(phase_sites(ra->schedule, 0), phase_sites(offline_a, 0));
}

TEST(OnlineSchedulerTest, ContendedPhasesStayWithinModelBounds) {
  PlanFixture fa = PipelinedChainFixture(2, 20000);
  PlanFixture fb = PipelinedChainFixture(2, 18000);
  MachineConfig machine;
  machine.num_sites = 4;  // force the queries onto shared sites

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fa.plan, 0.0);
  const OnlineQueryResult* ra = sched.result(a);
  ASSERT_NE(ra, nullptr);
  ASSERT_FALSE(ra->timings.empty());
  const uint64_t b = sched.Submit(*fb.plan, 0.3 * ra->timings[0].DurationMs());
  ASSERT_TRUE(sched.CheckInvariants().ok());
  ASSERT_TRUE(sched.Drain().ok());

  const OnlineQueryResult* rb = sched.result(b);
  ASSERT_NE(rb, nullptr);
  bool contended = false;
  for (const OnlineQueryResult* r : {ra, rb}) {
    ASSERT_EQ(r->state, OnlineQueryState::kDone);
    for (const OnlinePhaseTiming& t : r->timings) {
      EXPECT_GE(t.DurationMs() + 1e-9, t.uncontended_ms);
      EXPECT_LE(t.DurationMs(), t.serial_bound_ms + 1e-9);
      if (t.DurationMs() > t.uncontended_ms + 1e-9) contended = true;
    }
  }
  // On 4 shared sites the overlap must actually bite somewhere.
  EXPECT_TRUE(contended);
}

TEST(OnlineSchedulerTest, MplOneQueuesInFifoOrder) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fx.plan, 0.0);
  const uint64_t b = sched.Submit(*fx.plan, 1.0);
  const uint64_t c = sched.Submit(*fx.plan, 2.0);
  EXPECT_EQ(sched.result(b)->state, OnlineQueryState::kQueued);
  EXPECT_EQ(sched.result(c)->state, OnlineQueryState::kQueued);
  EXPECT_EQ(sched.queue_depth(), 2);
  ASSERT_TRUE(sched.CheckInvariants().ok());
  ASSERT_TRUE(sched.Drain().ok());

  const OnlineQueryResult* ra = sched.result(a);
  const OnlineQueryResult* rb = sched.result(b);
  const OnlineQueryResult* rc = sched.result(c);
  EXPECT_EQ(rb->state, OnlineQueryState::kDone);
  EXPECT_EQ(rc->state, OnlineQueryState::kDone);
  // Strict FIFO: b starts exactly when a finishes, c when b finishes.
  EXPECT_DOUBLE_EQ(rb->admit_ms, ra->finish_ms);
  EXPECT_DOUBLE_EQ(rc->admit_ms, rb->finish_ms);
  EXPECT_DOUBLE_EQ(rb->QueueWaitMs(), ra->finish_ms - 1.0);
  // Each runs alone on an idle machine, so the response times agree.
  EXPECT_DOUBLE_EQ(ra->schedule.response_time, rb->schedule.response_time);
}

TEST(OnlineSchedulerTest, QueueWaitTimeoutExpires) {
  PlanFixture fx = SingleJoinFixture(20000, 10000);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fx.plan, 0.0);
  const uint64_t b = sched.Submit(*fx.plan, 0.5, /*timeout_ms=*/1.0);
  ASSERT_TRUE(sched.Drain().ok());
  const OnlineQueryResult* rb = sched.result(b);
  EXPECT_EQ(rb->state, OnlineQueryState::kTimedOut);
  EXPECT_EQ(rb->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(rb->finish_ms, 1.5);
  EXPECT_DOUBLE_EQ(rb->QueueWaitMs(), 1.0);
  EXPECT_EQ(sched.result(a)->state, OnlineQueryState::kDone);
  EXPECT_EQ(metrics.Snapshot().CounterValue("online.timeout"), 1u);
}

TEST(OnlineSchedulerTest, FinishWinsExactDeadlineTie) {
  // The waiter's deadline lands at the *exact* instant the running query
  // finishes. The finish must dispatch first (EventLater breaks the
  // timestamp tie in its favor) and the admission path must pop the
  // now-admissible waiter before expiring deadlines, so the waiter is
  // admitted rather than timed out.
  PlanFixture fx = SingleJoinFixture(20000, 10000);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fx.plan, 0.0);
  ASSERT_TRUE(sched.ResolveQuery(a).ok());
  // a runs alone, so its projected finish is exact; b arrives at 0 with a
  // budget of exactly that instant — deadline == finish, bit for bit.
  const double finish = sched.result(a)->ProjectedFinishMs();
  ASSERT_GT(finish, 0.0);
  const uint64_t b = sched.Submit(*fx.plan, 0.0, /*timeout_ms=*/finish);
  EXPECT_EQ(sched.result(b)->state, OnlineQueryState::kQueued);
  ASSERT_TRUE(sched.Drain().ok());

  const OnlineQueryResult* rb = sched.result(b);
  EXPECT_EQ(rb->state, OnlineQueryState::kDone)
      << "deadline expired a waiter whose slot freed at the same instant";
  EXPECT_DOUBLE_EQ(rb->admit_ms, finish);
  EXPECT_DOUBLE_EQ(sched.result(a)->finish_ms, finish);

  // Conservation across the tie: both queries reached exactly one
  // terminal state, nothing double-counted.
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("online.submitted"), 2u);
  EXPECT_EQ(snap.CounterValue("online.admitted"), 2u);
  EXPECT_EQ(snap.CounterValue("online.rejected"), 0u);
  EXPECT_EQ(snap.CounterValue("online.timeout"), 0u);
}

TEST(OnlineSchedulerTest, RejectsWhenQueueFull) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  options.admission.max_queue_depth = 0;
  OnlineScheduler sched(CostParams{}, machine, options);
  sched.Submit(*fx.plan, 0.0);
  const uint64_t b = sched.Submit(*fx.plan, 1.0);
  const OnlineQueryResult* rb = sched.result(b);
  EXPECT_EQ(rb->state, OnlineQueryState::kRejected);
  EXPECT_EQ(rb->status.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(sched.Drain().ok());
}

TEST(OnlineSchedulerTest, MemoryBudgetDefersAdmission) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  MachineConfig machine;

  // Probe the footprint estimate on a throwaway instance.
  MetricsRegistry scratch_metrics;
  OnlineSchedulerOptions probe;
  probe.metrics = &scratch_metrics;
  OnlineScheduler scratch(CostParams{}, machine, probe);
  const uint64_t p = scratch.Submit(*fx.plan);
  const double footprint = scratch.result(p)->memory_estimate_bytes;
  ASSERT_GT(footprint, 0.0);

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.memory_limit_bytes = 1.5 * footprint;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fx.plan, 0.0);
  const uint64_t b = sched.Submit(*fx.plan, 1.0);
  // Plenty of slots, but the second copy does not fit in memory.
  EXPECT_EQ(sched.result(b)->state, OnlineQueryState::kQueued);
  ASSERT_TRUE(sched.Drain().ok());
  EXPECT_EQ(sched.result(b)->state, OnlineQueryState::kDone);
  EXPECT_DOUBLE_EQ(sched.result(b)->admit_ms, sched.result(a)->finish_ms);

  // A single query beyond the whole budget is rejected outright.
  OnlineSchedulerOptions tiny;
  tiny.metrics = &metrics;
  tiny.admission.memory_limit_bytes = 0.5 * footprint;
  OnlineScheduler strict(CostParams{}, machine, tiny);
  const uint64_t c = strict.Submit(*fx.plan);
  EXPECT_EQ(strict.result(c)->state, OnlineQueryState::kRejected);
  EXPECT_EQ(strict.result(c)->status.code(), StatusCode::kUnavailable);
}

TEST(OnlineSchedulerTest, ShortestMakespanFirstOvertakesInQueue) {
  PlanFixture big = PipelinedChainFixture(3, 20000);
  PlanFixture small = SingleJoinFixture(2000, 1500);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  options.admission.policy = AdmissionPolicy::kShortestMakespanFirst;
  OnlineScheduler sched(CostParams{}, machine, options);
  sched.Submit(*big.plan, 0.0);
  const uint64_t c = sched.Submit(*big.plan, 1.0);
  const uint64_t d = sched.Submit(*small.plan, 2.0);
  ASSERT_TRUE(sched.Drain().ok());
  const OnlineQueryResult* rc = sched.result(c);
  const OnlineQueryResult* rd = sched.result(d);
  ASSERT_EQ(rc->state, OnlineQueryState::kDone);
  ASSERT_EQ(rd->state, OnlineQueryState::kDone);
  EXPECT_LT(rd->expected_makespan_ms, rc->expected_makespan_ms);
  // The shorter query jumped the earlier, longer one.
  EXPECT_LT(rd->admit_ms, rc->admit_ms);
}

TEST(OnlineSchedulerTest, MetricsConserveQueries) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  options.admission.max_queue_depth = 1;
  OnlineScheduler sched(CostParams{}, machine, options);
  sched.Submit(*fx.plan, 0.0);                    // admitted
  sched.Submit(*fx.plan, 0.5, /*timeout_ms=*/0.25);  // queued, times out
  sched.Submit(*fx.plan, 0.6);                    // queue full -> rejected
  ASSERT_TRUE(sched.Drain().ok());

  const MetricsSnapshot snap = metrics.Snapshot();
  const uint64_t submitted = snap.CounterValue("online.submitted");
  EXPECT_EQ(submitted, 3u);
  EXPECT_EQ(snap.CounterValue("online.admitted") +
                snap.CounterValue("online.rejected") +
                snap.CounterValue("online.timeout"),
            submitted);
  EXPECT_EQ(snap.CounterValue("online.admitted"), 1u);
  EXPECT_EQ(snap.CounterValue("online.rejected"), 1u);
  EXPECT_EQ(snap.CounterValue("online.timeout"), 1u);
  for (const auto& h : snap.histograms) {
    if (h.name == "online.queue_wait_ms") {
      EXPECT_EQ(h.count, 1u);
    }
    if (h.name == "online.makespan_ms") {
      EXPECT_EQ(h.count, 1u);
    }
  }
  for (const auto& g : snap.gauges) {
    if (g.first == "online.queue_depth") {
      EXPECT_DOUBLE_EQ(g.second, 0.0);
    }
    if (g.first == "online.in_flight") {
      EXPECT_DOUBLE_EQ(g.second, 0.0);
    }
  }
}

TEST(OnlineSchedulerTest, ResidualLoadDrainsToExactZero) {
  PlanFixture fx = SingleJoinFixture(8000, 4000);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  OnlineScheduler sched(CostParams{}, machine, options);
  sched.Submit(*fx.plan, 0.0);
  double positive = 0.0;
  for (const WorkVector& w : sched.ResidualLoad()) positive += w.Total();
  EXPECT_GT(positive, 0.0);  // phase 0 is resident
  ASSERT_TRUE(sched.Drain().ok());
  for (const WorkVector& w : sched.ResidualLoad()) {
    for (size_t i = 0; i < w.dim(); ++i) {
      EXPECT_EQ(w[i], 0.0);  // exactly zero, not epsilon
    }
  }
  ASSERT_TRUE(sched.CheckInvariants().ok());
}

TEST(OnlineSchedulerTest, RecordsPerQueryTraces) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.collect_traces = true;
  options.trace_clock = ScheduleTrace::CountingClock();
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t id = sched.Submit(*fx.plan);
  ASSERT_TRUE(sched.Drain().ok());
  const OnlineQueryResult* r = sched.result(id);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(r->trace, nullptr);
  EXPECT_EQ(r->trace->label(), "query-1");
  TraceSpan span;
  for (const char* name :
       {"expand", "cost_model", "admission_estimate", "admission",
        "parallelize", "operator_schedule", "online_place"}) {
    EXPECT_TRUE(r->trace->FindSpan(name, &span)) << name;
  }
  ASSERT_TRUE(r->trace->FindSpan("admission", &span));
  const std::string* decision = span.FindAttr("decision");
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(*decision, "admit");
}

TEST(OnlineSchedulerTest, ResolveUnknownQueryIsNotFound) {
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  OnlineScheduler sched(CostParams{}, machine, options);
  EXPECT_EQ(sched.ResolveQuery(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(sched.result(42), nullptr);
  EXPECT_FALSE(sched.Resolved(42));
}

TEST(OnlineSchedulerTest, TakeResultMovesTheScheduleOutAndRetiresTheRecord) {
  PlanFixture fx = BushyFourWayFixture();
  MachineConfig machine;
  const TreeScheduleResult offline = OfflineSchedule(fx, machine);

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t id = sched.Submit(*fx.plan);
  ASSERT_TRUE(sched.ResolveQuery(id).ok());
  const OnlineQueryResult* kept = sched.result(id);
  ASSERT_NE(kept, nullptr);
  const double projected = kept->ProjectedFinishMs();

  auto taken = sched.TakeResult(id);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(taken->id, id);
  EXPECT_EQ(taken->state, OnlineQueryState::kRunning);
  EXPECT_EQ(TreeScheduleToJson(taken->schedule), TreeScheduleToJson(offline));
  EXPECT_EQ(taken->timings.size(), offline.phases.size());
  EXPECT_DOUBLE_EQ(taken->ProjectedFinishMs(), projected);

  // Still running: the record keeps its scalars but no phases.
  kept = sched.result(id);
  ASSERT_NE(kept, nullptr);
  EXPECT_TRUE(kept->schedule.phases.empty());
  EXPECT_TRUE(kept->timings.empty());
  EXPECT_DOUBLE_EQ(kept->ProjectedFinishMs(), projected);
  EXPECT_EQ(sched.in_flight(), 1);
  EXPECT_TRUE(sched.CheckInvariants().ok());

  // Completion retires it; the clock and counters behave as if untaken.
  ASSERT_TRUE(sched.Drain().ok());
  EXPECT_EQ(sched.result(id), nullptr);
  EXPECT_EQ(sched.in_flight(), 0);
  EXPECT_DOUBLE_EQ(sched.now(), projected);
  EXPECT_TRUE(sched.CheckInvariants().ok());
  EXPECT_EQ(sched.TakeResult(id).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(metrics.Snapshot().CounterValue("online.admitted"), 1u);
}

TEST(OnlineSchedulerTest, TakeResultOfATerminalQueryErasesItAtOnce) {
  PlanFixture fx = SingleJoinFixture(6000, 3000);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  options.admission.max_queue_depth = 0;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fx.plan);
  const uint64_t b = sched.Submit(*fx.plan);  // queue full: rejected
  ASSERT_TRUE(sched.Resolved(b));

  auto rejected = sched.TakeResult(b);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->state, OnlineQueryState::kRejected);
  EXPECT_EQ(rejected->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(sched.result(b), nullptr);

  ASSERT_TRUE(sched.Drain().ok());
  auto done = sched.TakeResult(a);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, OnlineQueryState::kDone);
  EXPECT_FALSE(done->schedule.phases.empty());
  EXPECT_EQ(sched.result(a), nullptr);
  EXPECT_TRUE(sched.CheckInvariants().ok());
}

TEST(OnlineSchedulerTest, TakeResultNeedsAResolvedQuery) {
  PlanFixture fx = SingleJoinFixture(6000, 3000);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fx.plan);
  const uint64_t b = sched.Submit(*fx.plan);  // queued behind a
  EXPECT_EQ(sched.TakeResult(b).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sched.TakeResult(77).status().code(), StatusCode::kNotFound);
  ASSERT_NE(sched.result(b), nullptr);
  ASSERT_TRUE(sched.ResolveQuery(b).ok());
  EXPECT_TRUE(sched.TakeResult(b).ok());
  ASSERT_TRUE(sched.Drain().ok());
  EXPECT_NE(sched.result(a), nullptr);  // never taken: kept
  EXPECT_EQ(sched.result(b), nullptr);
}

TEST(OnlineSchedulerTest, EnginesAreRunToRunDeterministic) {
  // The same overlapping workload, submitted twice to a fresh scheduler,
  // must produce byte-identical schedules.
  PlanFixture fa = BushyFourWayFixture();
  PlanFixture fb = PipelinedChainFixture(3);
  MachineConfig machine;
  auto run = [&] {
    MetricsRegistry metrics;
    OnlineSchedulerOptions options;
    options.metrics = &metrics;
    OnlineScheduler sched(CostParams{}, machine, options);
    const uint64_t a = sched.Submit(*fa.plan, 0.0);
    const uint64_t b = sched.Submit(*fb.plan, 0.5);
    EXPECT_TRUE(sched.Drain().ok());
    EXPECT_TRUE(sched.CheckInvariants().ok());
    return TreeScheduleToJson(sched.result(a)->schedule) +
           TreeScheduleToJson(sched.result(b)->schedule);
  };
  EXPECT_EQ(run(), run());
}

/// FNV-1a over `text`, folded into `*h`.
void Fnv1a(const std::string& text, uint64_t* h) {
  for (unsigned char c : text) {
    *h ^= c;
    *h *= 1099511628211ull;
  }
}

constexpr int kStreamQueries = 120;

/// Replays a fixed Poisson stream (seed 7, kStreamQueries queries of 4-10
/// joins, 1500 ms mean inter-arrival) on P=64 sites at MPL 16 under
/// `policy`; returns the drained scheduler and the ids in arrival order.
std::unique_ptr<OnlineScheduler> ReplayContendedStream(
    AdmissionPolicy policy, MetricsRegistry* metrics,
    std::vector<uint64_t>* ids) {
  MachineConfig machine;
  machine.num_sites = 64;
  OnlineSchedulerOptions options;
  options.metrics = metrics;
  options.admission.policy = policy;
  options.admission.max_in_flight = 16;
  options.admission.max_queue_depth = 1 << 20;
  auto sched = std::make_unique<OnlineScheduler>(CostParams{}, machine,
                                                 options);
  Rng rng(7);
  WorkloadParams params;
  double t = 0.0;
  for (int i = 0; i < kStreamQueries; ++i) {
    params.num_joins = 4 + i % 7;
    auto q = GenerateQuery(params, &rng);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    t += -std::log(1.0 - rng.UniformDouble()) * 1500.0;
    ids->push_back(sched->Submit(*q->plan, t));  // reads the plan only here
  }
  EXPECT_TRUE(sched->Drain().ok());
  EXPECT_TRUE(sched->CheckInvariants().ok());
  return sched;
}

/// Digest of the contended FIFO replay, hashing every query's admit and
/// finish instants, phase timings (all "%a", so bit-exact) and clone
/// sites.
uint64_t ContendedStreamDigest() {
  MetricsRegistry metrics;
  std::vector<uint64_t> ids;
  auto sched = ReplayContendedStream(AdmissionPolicy::kFifo, &metrics, &ids);

  uint64_t h = 14695981039346656037ull;
  char buf[256];
  int overlapped = 0, stretched = 0;
  double prev_finish = 0.0;
  for (const uint64_t id : ids) {
    const OnlineQueryResult* r = sched->result(id);
    EXPECT_EQ(r->state, OnlineQueryState::kDone);
    if (r->admit_ms < prev_finish) ++overlapped;
    prev_finish = r->finish_ms;
    std::snprintf(buf, sizeof(buf), "q%llu %a %a\n",
                  static_cast<unsigned long long>(id), r->admit_ms,
                  r->finish_ms);
    Fnv1a(buf, &h);
    for (const OnlinePhaseTiming& tm : r->timings) {
      std::snprintf(buf, sizeof(buf), "t%d %a %a %a %a\n", tm.phase,
                    tm.start_ms, tm.finish_ms, tm.uncontended_ms,
                    tm.serial_bound_ms);
      Fnv1a(buf, &h);
      if (tm.DurationMs() > tm.uncontended_ms + 1e-6) ++stretched;
    }
    for (const PhaseSchedule& ph : r->schedule.phases) {
      for (const ClonePlacement& p : ph.schedule.placements()) {
        std::snprintf(buf, sizeof(buf), "p%d.%d@%d ", p.op_id, p.clone_idx,
                      p.site);
        Fnv1a(buf, &h);
      }
    }
  }
  // The stream must exercise what the digest pins: overlapping queries
  // and phases stretched by co-resident clones.
  EXPECT_GT(overlapped, kStreamQueries / 2);
  EXPECT_GT(stretched, 0);
  return h;
}

TEST(OnlineSchedulerTest, ContendedStreamMatchesParent) {
  // Pinned to the union-schedule + fluid-simulation projection the closed
  // form replaced: every admit, finish, timing and clone site of a
  // contended stream is bit-identical to it.
  EXPECT_EQ(ContendedStreamDigest(), 11920391197381607243ull);
}

TEST(OnlineSchedulerTest, ShortestMakespanFirstStreamMatchesParent) {
  // The contended stream under shortest-makespan-first: the admit order,
  // admit/finish instants and idle-machine estimates are pinned to the
  // scheduler that computed the estimate for every policy.
  MetricsRegistry metrics;
  std::vector<uint64_t> ids;
  auto sched = ReplayContendedStream(AdmissionPolicy::kShortestMakespanFirst,
                                     &metrics, &ids);
  std::vector<const OnlineQueryResult*> by_admit;
  int queued = 0, overtakes = 0;
  double latest_admit = -1.0;
  for (const uint64_t id : ids) {
    const OnlineQueryResult* r = sched->result(id);
    ASSERT_EQ(r->state, OnlineQueryState::kDone);
    if (r->admit_ms > r->arrival_ms) ++queued;
    // An earlier arrival admitted later than this query: overtaken.
    if (r->admit_ms < latest_admit) ++overtakes;
    latest_admit = std::max(latest_admit, r->admit_ms);
    by_admit.push_back(r);
  }
  std::stable_sort(by_admit.begin(), by_admit.end(),
                   [](const OnlineQueryResult* a, const OnlineQueryResult* b) {
                     return a->admit_ms < b->admit_ms;
                   });
  uint64_t h = 14695981039346656037ull;
  char buf[256];
  for (const OnlineQueryResult* r : by_admit) {
    std::snprintf(buf, sizeof(buf), "q%llu %a %a %a\n",
                  static_cast<unsigned long long>(r->id), r->admit_ms,
                  r->finish_ms, r->expected_makespan_ms);
    Fnv1a(buf, &h);
  }
  EXPECT_GT(queued, kStreamQueries / 2);
  EXPECT_GT(overtakes, 0);
  EXPECT_EQ(h, 7594940851186997543ull);
}

TEST(OnlineSchedulerTest, ShortestMakespanFirstEstimateIsTheIdleResponseTime) {
  // Under shortest-makespan-first a queued query carries the idle-machine
  // TREESCHEDULE response time, and running alone it achieves exactly that.
  PlanFixture fa = SingleJoinFixture(5000, 2500);
  PlanFixture fb = BushyFourWayFixture();
  MachineConfig machine;
  const TreeScheduleResult offline = OfflineSchedule(fb, machine);

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  options.admission.policy = AdmissionPolicy::kShortestMakespanFirst;
  OnlineScheduler sched(CostParams{}, machine, options);
  sched.Submit(*fa.plan, 0.0);
  const uint64_t b = sched.Submit(*fb.plan, 1.0);
  const OnlineQueryResult* rb = sched.result(b);
  ASSERT_EQ(rb->state, OnlineQueryState::kQueued);
  EXPECT_EQ(rb->expected_makespan_ms, offline.response_time);
  ASSERT_TRUE(sched.Drain().ok());
  ASSERT_EQ(rb->state, OnlineQueryState::kDone);
  EXPECT_GT(rb->admit_ms, rb->arrival_ms);
  EXPECT_EQ(rb->schedule.response_time, offline.response_time);
  EXPECT_EQ(rb->finish_ms - rb->admit_ms, rb->expected_makespan_ms);
}

TEST(OnlineSchedulerTest, PreparedSubmitLeavesThePlacedPhasesOnlyHits) {
  // Under FIFO, Submit prepares every placement-free parallelization, so
  // placing the phases later (queued queries' and the admitted one's
  // phases after the first) misses the shared cache nowhere. Sorts and
  // aggregates add rooted merge and emit operators.
  for (const BuildDegreePolicy policy :
       {BuildDegreePolicy::kJoinAware, BuildDegreePolicy::kBuildOnly}) {
    MachineConfig machine;
    MetricsRegistry metrics;
    OnlineSchedulerOptions options;
    options.metrics = &metrics;
    options.tree.build_degree = policy;
    options.admission.max_in_flight = 1;
    options.admission.max_queue_depth = 1 << 20;
    OnlineScheduler sched(CostParams{}, machine, options);
    Rng rng(11);
    WorkloadParams params;
    params.sort_probability = 0.3;
    params.aggregate_probability = 0.3;
    for (int i = 0; i < 12; ++i) {
      params.num_joins = 2 + i % 6;
      auto q = GenerateQuery(params, &rng);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      sched.Submit(*q->plan, 0.0);
    }
    EXPECT_EQ(sched.queue_depth(), 11);
    const uint64_t misses =
        metrics.Snapshot().CounterValue("parallelize_cache.misses");
    EXPECT_GT(misses, 0u);
    ASSERT_TRUE(sched.Drain().ok());
    EXPECT_EQ(metrics.Snapshot().CounterValue("parallelize_cache.misses"),
              misses);
    EXPECT_EQ(metrics.Snapshot().CounterValue("online.admitted"), 12u);
  }
}

TEST(OnlineSchedulerTest, PlanningFailureIsRejectedBeforeAdmission) {
  // A query the planner cannot schedule is rejected at Submit with the
  // planner's own status: it is never admitted, so it takes no slot and
  // moves no admission counter.
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  struct Case {
    int num_sites;
    double granularity;
    bool use_cost_cache;
    const char* message;
  };
  const Case cases[] = {
      {0, 0.7, true, "MachineConfig.num_sites must be >= 1, got 0"},
      {16, -1.0, true, "granularity parameter f must be >= 0"},
      {16, -1.0, false, "granularity parameter f must be >= 0"},
  };
  for (const Case& c : cases) {
    MachineConfig machine;
    machine.num_sites = c.num_sites;
    MetricsRegistry metrics;
    OnlineSchedulerOptions options;
    options.metrics = &metrics;
    options.tree.granularity = c.granularity;
    options.use_cost_cache = c.use_cost_cache;
    OnlineScheduler sched(CostParams{}, machine, options);
    const uint64_t id = sched.Submit(*fx.plan, 0.0);
    const OnlineQueryResult* r = sched.result(id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->state, OnlineQueryState::kRejected) << c.message;
    EXPECT_EQ(r->status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r->status.message(), c.message);
    EXPECT_EQ(r->admit_ms, -1.0);
    EXPECT_TRUE(r->schedule.phases.empty());
    EXPECT_EQ(sched.in_flight(), 0);
    EXPECT_TRUE(sched.CheckInvariants().ok());
    ASSERT_TRUE(sched.Drain().ok());
    const MetricsSnapshot snap = metrics.Snapshot();
    EXPECT_EQ(snap.CounterValue("online.admitted"), 0u);
    EXPECT_EQ(snap.CounterValue("online.rejected"), 1u);
  }
}

TEST(OnlineQueryStateTest, Names) {
  EXPECT_EQ(OnlineQueryStateToString(OnlineQueryState::kQueued), "queued");
  EXPECT_EQ(OnlineQueryStateToString(OnlineQueryState::kDone), "done");
  EXPECT_EQ(OnlineQueryStateToString(OnlineQueryState::kTimedOut),
            "timed-out");
}

}  // namespace
}  // namespace mrs
