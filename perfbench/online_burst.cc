// online_burst: in-process replay of a Poisson query stream through
// OnlineScheduler::Submit then Drain, on P=64 sites at MPL 16, as fast as
// the scheduler allows (closed loop). The arrival mean keeps about MPL
// queries resident, so residual-capacity placement against many residents
// is the hot path — unlike serve_mixed, where every query lands on an idle
// machine.
//
// The stream is built in virtual time: how fast the replay runs does not
// change which queries overlap. (The load axis of micro_online_throughput
// does not do this: there, 30 ms and 2 ms mean inter-arrival gave
// byte-identical makespans and zero queue wait.)
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/metrics.h"
#include "common/str_util.h"
#include "online/online_scheduler.h"
#include "stats.h"

namespace perfbench {
namespace {

using mrs::StrFormat;

constexpr int kSites = 64;
constexpr int kMpl = 16;
constexpr int kMinJoins = 4;
constexpr int kMaxJoins = 10;
/// Mean virtual inter-arrival (ms): keeps in-flight near the MPL.
constexpr double kMeanArrivalMs = 1500.0;
/// A pass replays one stream of this many queries through a fresh
/// scheduler; every pass of a run has its own stream.
constexpr int kPassQueries = 400;
/// Passes per second of --seconds (about 2 s each on a 4-core host), so a
/// run's work is fixed by its length, not by the program's speed.
constexpr double kPassesPerSecond = 0.5;
/// Runs whose mean in-flight count falls below this did not build the
/// overlap the workload exists for, and fail.
constexpr double kInFlightFloor = 0.75 * kMpl;
/// Capacity probe: stream prefix and virtual sampling step (ms).
constexpr int kProbeQueries = 40;
constexpr double kProbeStepMs = 2.0;
constexpr double kCapacityTol = 1e-6;

struct Stream {
  std::vector<Query> queries;
  std::vector<double> arrival_ms;
};

mrs::Result<Stream> MakeStream(uint64_t seed) {
  Stream s;
  mrs::Rng rng(seed);
  const mrs::WorkloadParams params;
  double t = 0.0;
  for (int i = 0; i < kPassQueries; ++i) {
    auto q = MakeQuery(params, kMinJoins + i % (kMaxJoins - kMinJoins + 1),
                       &rng);
    if (!q.ok()) return q.status();
    t += -std::log(1.0 - rng.UniformDouble()) * kMeanArrivalMs;
    s.queries.push_back(std::move(q).value());
    s.arrival_ms.push_back(t);
  }
  return s;
}

mrs::MachineConfig Machine() {
  mrs::MachineConfig m;
  m.num_sites = kSites;
  return m;
}

std::unique_ptr<mrs::OnlineScheduler> MakeScheduler(
    mrs::MetricsRegistry* metrics) {
  mrs::OnlineSchedulerOptions options;
  options.admission.max_in_flight = kMpl;
  options.admission.max_queue_depth = 1 << 20;  // never reject for depth
  options.metrics = metrics;
  return std::make_unique<mrs::OnlineScheduler>(mrs::CostParams{}, Machine(),
                                                options);
}

/// What one pass measured.
struct Pass {
  std::vector<double> submit_ms;
  std::vector<double> in_flight;  // sampled after every Submit
  std::vector<double> queue_wait_ms, response_ms;  // model time
  double drain_ms = 0.0;
  double wall_ms = 0.0;
  uint64_t admitted = 0, rejected = 0, timeout = 0;
  double cache_hits = 0, cache_misses = 0;
};

/// Replays the stream once through a fresh scheduler and checks it.
Pass RunPass(const Stream& stream, Tracer* tracer, Report* report) {
  Pass pass;
  mrs::MetricsRegistry metrics;
  auto sched = MakeScheduler(&metrics);
  const size_t n = stream.queries.size();
  std::vector<uint64_t> ids;
  const double start = NowMs();
  for (size_t i = 0; i < n; ++i) {
    const double t0 = NowMs();
    ids.push_back(sched->Submit(*stream.queries[i].gen.plan,
                                stream.arrival_ms[i]));
    const double t1 = NowMs();
    tracer->Add("online.submit", t0, t1, static_cast<int64_t>(i));
    pass.submit_ms.push_back(t1 - t0);
    pass.in_flight.push_back(sched->in_flight());
  }
  const double d0 = NowMs();
  const mrs::Status drained = sched->Drain();
  const double d1 = NowMs();
  tracer->Add("online.drain", d0, d1, -1);
  pass.drain_ms = d1 - d0;
  pass.wall_ms = d1 - start;

  // Output checks: a clean drain, structural invariants, exactly zero
  // residual load, and every submitted query accounted for and done.
  report->Attempt(static_cast<int64_t>(n));
  int bad = 0;
  report->Check(drained.ok(), "Drain: " + drained.ToString());
  const mrs::Status inv = sched->CheckInvariants();
  report->Check(inv.ok(), "CheckInvariants: " + inv.ToString());
  for (const mrs::WorkVector& w : sched->ResidualLoad()) {
    for (double v : w) report->Check(v == 0.0, "residual load after Drain");
  }
  const mrs::MetricsSnapshot snap = metrics.Snapshot();
  pass.admitted = snap.CounterValue("online.admitted");
  pass.rejected = snap.CounterValue("online.rejected");
  pass.timeout = snap.CounterValue("online.timeout");
  pass.cache_hits = static_cast<double>(
      snap.CounterValue("parallelize_cache.hits"));
  pass.cache_misses = static_cast<double>(
      snap.CounterValue("parallelize_cache.misses"));
  report->Check(pass.admitted + pass.rejected + pass.timeout ==
                    snap.CounterValue("online.submitted") &&
                    snap.CounterValue("online.submitted") == n,
                "admitted + rejected + timeout == submitted");
  for (uint64_t id : ids) {
    const mrs::OnlineQueryResult* r = sched->result(id);
    if (r == nullptr || r->state != mrs::OnlineQueryState::kDone) {
      ++bad;
      continue;
    }
    pass.queue_wait_ms.push_back(r->QueueWaitMs());
    pass.response_ms.push_back(r->finish_ms - r->arrival_ms);
  }
  report->Fail(bad);
  report->Check(bad == 0, StrFormat("%d queries not done", bad));
  return pass;
}

/// The capacity probe: steps the virtual clock over a stream prefix
/// and derives each site x dimension's reserved consumption rate as
/// -d(residual)/dt. Reports the share of samples above capacity 1 and the
/// worst rate.
void CapacityProbe(const Stream& stream, Report* report) {
  mrs::MetricsRegistry metrics;
  auto sched = MakeScheduler(&metrics);
  std::vector<mrs::WorkVector> prev = sched->ResidualLoad();
  size_t next = 0;
  double t = 0.0;
  uint64_t samples = 0, violations = 0;
  double worst = 0.0;
  while (next < static_cast<size_t>(kProbeQueries) ||
         sched->in_flight() > 0 || sched->queue_depth() > 0) {
    t += kProbeStepMs;
    while (next < static_cast<size_t>(kProbeQueries) &&
           stream.arrival_ms[next] <= t) {
      sched->Submit(*stream.queries[next].gen.plan, stream.arrival_ms[next]);
      ++next;
    }
    const mrs::Status advanced = sched->AdvanceTo(t);
    report->Check(advanced.ok(), "AdvanceTo");
    if (!advanced.ok()) return;
    const std::vector<mrs::WorkVector> cur = sched->ResidualLoad();
    for (size_t s = 0; s < cur.size(); ++s) {
      for (size_t d = 0; d < cur[s].dim(); ++d) {
        const double rate = (prev[s][d] - cur[s][d]) / kProbeStepMs;
        ++samples;
        if (rate > 1.0 + kCapacityTol) ++violations;
        worst = std::max(worst, rate);
      }
    }
    prev = cur;
  }
  report->Metric("online.capacity_violation_share",
                 samples > 0 ? static_cast<double>(violations) / samples : 0.0,
                 "share");
  report->Metric("online.capacity_worst_ratio", worst, "ratio");
}

}  // namespace

int RunOnlineBurst(const Args& args, Report* report) {
  const int passes =
      std::max(2, static_cast<int>(std::lround(kPassesPerSecond * args.seconds)));
  std::vector<Stream> streams;
  const double setup_s = MedianSetupSeconds([&] {
    streams.clear();
    for (int p = 0; p < passes; ++p) {
      auto s = MakeStream(args.seed * 1000 + static_cast<uint64_t>(p));
      if (!s.ok()) {
        std::fprintf(stderr, "stream generation failed: %s\n",
                     s.status().ToString().c_str());
        return false;
      }
      streams.push_back(std::move(s).value());
    }
    return true;
  });
  if (setup_s < 0) return 1;
  const Stream& stream = streams.front();

  // The schedules half: the first stream's plans under the three offline
  // engines on an idle machine, and two plans per size class executed.
  const mrs::MachineConfig machine = Machine();
  const mrs::OverlapUsageModel usage(0.5);
  EngineSummary engines;
  std::vector<double> cost_ms;
  std::vector<const mrs::PlanTree*> exec_plans;
  const int classes = kMaxJoins - kMinJoins + 1;
  for (int i = 0; i < kPassQueries; ++i) {
    const mrs::PlanTree& plan = *stream.queries[static_cast<size_t>(i)].gen.plan;
    auto x = Expand(plan, machine);
    auto m = x.ok() ? ScheduleAllEngines(*x, machine, usage)
                    : mrs::Result<EngineMakespans>(x.status());
    report->Check(m.ok(), "offline engines");
    if (!m.ok()) return 1;
    engines.Add(*m);
    cost_ms.push_back(x->cost_ms);
    if (i < 2 * classes) exec_plans.push_back(&plan);
  }

  Tracer off(false);
  if (!args.trace) {
    report->Metric("setup_s", setup_s, "s");
    std::vector<double> submit_ms, in_flight, throughput;
    for (const Stream& s : streams) {
      Pass pass = RunPass(s, &off, report);
      submit_ms.insert(submit_ms.end(), pass.submit_ms.begin(),
                       pass.submit_ms.end());
      in_flight.insert(in_flight.end(), pass.in_flight.begin(),
                       pass.in_flight.end());
      throughput.push_back(1000.0 * pass.submit_ms.size() / pass.wall_ms);
    }
    // The median pass: a burst of outside interference slows one pass,
    // not the metric.
    report->Metric("ops_per_s", Median(throughput), "1/s");
    ReportLatency(report, submit_ms, kPassQueries);  // one block per pass
    report->Metric("rss_peak_mb", PeakRssMb(), "MB");
    engines.ReportMakespans(report);
    ReportExecution(exec_plans, machine, args.seed, false, report);
    const double mean_in_flight = Mean(in_flight);
    report->Note("in_flight_mean", mean_in_flight);
    report->Check(mean_in_flight >= kInFlightFloor,
                  StrFormat("in-flight mean %.2f below the floor %.1f: the "
                            "stream did not build overlap",
                            mean_in_flight, kInFlightFloor));
    return 0;
  }

  // Traced: a warm-up pass, an untraced pass for the overhead baseline,
  // then a traced pass for the layer metrics.
  Tracer tracer(true);
  RunPass(stream, &off, report);
  const Pass plain = RunPass(stream, &off, report);
  const Pass pass = RunPass(stream, &tracer, report);
  report->Metric("bench.tracing_overhead_share",
                 (pass.wall_ms - plain.wall_ms) / plain.wall_ms, "share");
  const std::vector<double> submit = tracer.Durations("online.submit");
  report->Metric("online.submit_ms_p50", Median(submit), "ms");
  report->Metric("online.submit_ms_p99", Percentile(submit, 0.99), "ms");
  report->Metric("online.drain_ms", pass.drain_ms, "ms");
  const double mean_in_flight = Mean(pass.in_flight);
  report->Metric("online.in_flight_mean", mean_in_flight, "count");
  report->Check(mean_in_flight >= kInFlightFloor, "in-flight floor");
  report->Metric("online.queue_wait_model_ms_p50", Median(pass.queue_wait_ms),
                 "ms");
  report->Metric("online.response_model_ms_p50", Median(pass.response_ms),
                 "ms");
  report->Metric("online.admitted", static_cast<double>(pass.admitted),
                 "count");
  report->Metric("online.rejected", static_cast<double>(pass.rejected),
                 "count");
  report->Metric("online.timeout", static_cast<double>(pass.timeout), "count");
  const double lookups = pass.cache_hits + pass.cache_misses;
  report->Metric("cost.cache_hit_ratio",
                 lookups > 0 ? pass.cache_hits / lookups : 0.0, "share");
  report->Metric("cost.cost_all_ms_p50", Median(cost_ms), "ms");
  engines.ReportLayers(report);
  ReportExecution(exec_plans, machine, args.seed, true, report);
  CapacityProbe(stream, report);
  tracer.Write(OutputDir() + "/online_burst.spans.jsonl");
  return 0;
}

}  // namespace perfbench
