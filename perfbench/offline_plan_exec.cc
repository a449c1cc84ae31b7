// offline_plan_exec: the `sched_cli --optimize ... --execute` path as a
// closed loop over fixed-seed join graphs (J=5, P=16, d=3). Per graph:
// OptimizeJoinOrder (4 threads), the winner wrapped in a sort over an
// aggregate, TREE / LIST / PIPELINED schedules of the wrapped plan, and
// ExecuteBackend::RunTree of the tree schedule (4 threads). The only
// workload where the schedules' model quality and their wall-clock
// execution are both measured.
#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "common/str_util.h"
#include "core/tree_schedule.h"
#include "io/plan_text.h"
#include "optimizer/optimizer.h"
#include "stats.h"

namespace perfbench {
namespace {

using mrs::StrFormat;

constexpr int kJoins = 5;
constexpr int kGraphs = 96;
constexpr int kThreads = 4;
constexpr double kAggGroupFraction = 0.1;

struct Graph {
  mrs::GeneratedQuery gen;
  /// TREE response time of the generator's own random plan for the graph:
  /// a point of the optimizer's search space, so the optimum is no worse.
  double reference_makespan = 0.0;
};

/// What one graph's trip through the pipeline produced.
struct PlanOutcome {
  EngineMakespans makespans;
  ExecRun exec;
  mrs::OptimizerStats stats;
  double total_ms = 0.0;
  bool ok = false;
};

class OfflinePlanExec {
 public:
  OfflinePlanExec(const Args& args, Report* report)
      : args_(args), report_(report) {}

  int Run() {
    const double setup_s = MedianSetupSeconds([&] {
      graphs_.clear();
      mrs::Rng rng(args_.seed);
      mrs::WorkloadParams params;
      params.num_joins = kJoins;
      for (int g = 0; g < kGraphs; ++g) {
        auto gen = mrs::GenerateQuery(params, &rng);
        if (!gen.ok()) {
          std::fprintf(stderr, "graph generation failed: %s\n",
                       gen.status().ToString().c_str());
          return false;
        }
        auto x = Expand(*gen->plan, machine_);
        if (!x.ok()) return false;
        auto tree = mrs::TreeSchedule(*x->ops, *x->tasks, x->costs,
                                      mrs::CostParams{}, machine_, usage_);
        if (!tree.ok()) return false;
        graphs_.push_back({std::move(gen).value(), tree->response_time});
      }
      return true;
    });
    if (setup_s < 0) return 1;
    digests_.assign(graphs_.size(), 0);
    return args_.trace ? Traced() : EndToEnd(setup_s);
  }

 private:
  int EndToEnd(double setup_s) {
    report_->Metric("setup_s", setup_s, "s");
    EngineSummary engines;
    ExecSummary exec;
    std::vector<double> latency, throughput;
    const double deadline = NowMs() + 1000.0 * args_.seconds;
    // Whole passes over the graph set (at least two, so every digest is
    // checked against a second execution), so every graph weighs the same.
    for (int pass = 0; pass < 2 || NowMs() < deadline; ++pass) {
      const double start = NowMs();
      for (size_t g = 0; g < graphs_.size(); ++g) {
        const PlanOutcome o = RunOne(g);
        if (!o.ok) return 0;
        if (pass == 0) engines.Add(o.makespans);
        exec.Add(g, o.exec);
        latency.push_back(o.total_ms);
      }
      throughput.push_back(1000.0 * graphs_.size() / (NowMs() - start));
    }
    // The median pass: a burst of outside interference slows one pass,
    // not the metric.
    report_->Metric("ops_per_s", Median(throughput), "1/s");
    ReportLatency(report_, latency, 0);  // pooled: one pass has 96 samples
    report_->Metric("rss_peak_mb", PeakRssMb(), "MB");
    engines.ReportMakespans(report_);
    exec.ReportTo(report_, false);
    return 0;
  }

  int Traced() {
    // An untraced pass (also the first-run digests), then a traced one.
    double plain_ms = 0.0, traced_ms = 0.0;
    for (size_t g = 0; g < graphs_.size(); ++g) {
      const PlanOutcome o = RunOne(g);
      if (!o.ok) return 0;
      plain_ms += o.total_ms;
    }
    tracer_ = &on_;
    EngineSummary engines;
    ExecSummary exec;
    uint64_t scheduled = 0, pruned = 0, considered = 0, hits = 0, misses = 0;
    for (size_t g = 0; g < graphs_.size(); ++g) {
      const PlanOutcome o = RunOne(g);
      if (!o.ok) return 0;
      traced_ms += o.total_ms;
      engines.Add(o.makespans);
      exec.Add(g, o.exec);
      scheduled += o.stats.plans_scheduled;
      pruned += o.stats.plans_pruned;
      considered += o.stats.plans_considered;
      hits += o.stats.cache_hits;
      misses += o.stats.cache_misses;
    }
    report_->Metric("bench.tracing_overhead_share",
                    (traced_ms - plain_ms) / plain_ms, "share");
    report_->Metric("optimizer.search_ms_p50",
                    Median(tracer_->Durations("optimizer.search")), "ms");
    report_->Metric("optimizer.plans_scheduled",
                    static_cast<double>(scheduled) / graphs_.size(), "count");
    report_->Metric("optimizer.plans_pruned_share",
                    considered > 0 ? static_cast<double>(pruned) / considered
                                   : 0.0,
                    "share");
    report_->Metric("cost.cache_hit_ratio",
                    hits + misses > 0
                        ? static_cast<double>(hits) / (hits + misses)
                        : 0.0,
                    "share");
    report_->Metric("cost.cost_all_ms_p50", Median(cost_ms_), "ms");
    engines.ReportLayers(report_);
    exec.ReportTo(report_, true);
    ReportCalibration(trees_, expanded_, machine_, args_.seed, report_);
    report_->Note("plan_self_ms_p50", Median(tracer_->SelfTimes("plan")));
    tracer_->Write(OutputDir() + "/offline_plan_exec.spans.jsonl");
    return 0;
  }

  /// Optimizes, wraps, schedules and executes graph `g`, checking every
  /// output. Keeps the wrapped plan and its tree schedule on the first
  /// visit (for the calibrator).
  PlanOutcome RunOne(size_t g) {
    PlanOutcome o;
    const Graph& graph = graphs_[g];
    const int64_t req = static_cast<int64_t>(g);
    report_->Attempt();
    Tracer::Scope plan_span(tracer_, "plan", req);
    const double t0 = NowMs();

    mrs::OptimizerOptions opt;
    opt.num_threads = kThreads;
    opt.metrics = &metrics_;
    int span = tracer_->Begin("optimizer.search", req, plan_span.id());
    auto result = mrs::OptimizeJoinOrder(*graph.gen.catalog, *graph.gen.graph,
                                         mrs::CostParams{}, machine_, usage_,
                                         opt);
    tracer_->End(span);
    if (!Ensure(result.ok(), "OptimizeJoinOrder", result.status())) return o;
    o.stats = result->stats;

    // The optimizer's makespan is the tree schedule of the plan it returns.
    auto winner = Expand(*result->plan, machine_);
    if (!Ensure(winner.ok(), "expand winner", winner.status())) return o;
    auto winner_tree = mrs::TreeSchedule(*winner->ops, *winner->tasks,
                                         winner->costs, mrs::CostParams{},
                                         machine_, usage_);
    if (!Ensure(winner_tree.ok(), "winner tree", winner_tree.status())) {
      return o;
    }
    if (!Ensure(winner_tree->response_time == result->makespan,
                "optimizer makespan == tree schedule of its plan",
                mrs::Status()) ||
        !Ensure(result->makespan <= graph.reference_makespan,
                "optimizer makespan <= the generated plan's", mrs::Status())) {
      return o;
    }

    // Wrap the winner: (sort (agg F <winner>)).
    auto text = mrs::WritePlanText(*graph.gen.catalog, *result->plan);
    if (!Ensure(text.ok(), "render winner", text.status())) return o;
    std::string wrapped = *text;
    const size_t newline = wrapped.find("\nplan ");
    if (!Ensure(newline != std::string::npos, "plan line", mrs::Status())) {
      return o;
    }
    const size_t line = newline + 1;
    const size_t eol = wrapped.find('\n', line);
    const std::string body = wrapped.substr(line + 5, eol - line - 5);
    wrapped.replace(line, eol - line,
                    StrFormat("plan (sort (agg %g %s))", kAggGroupFraction,
                              body.c_str()));
    auto parsed = mrs::ParsePlanText(wrapped);
    if (!Ensure(parsed.ok() && parsed->plan != nullptr, "parse wrapped plan",
                parsed.status())) {
      return o;
    }
    auto x = Expand(*parsed->plan, machine_);
    if (!Ensure(x.ok(), "expand wrapped", x.status())) return o;
    if (tracer_->enabled()) cost_ms_.push_back(x->cost_ms);

    span = tracer_->Begin("core.engines", req, plan_span.id());
    mrs::TreeScheduleResult tree;
    auto m = ScheduleAllEngines(*x, machine_, usage_, &tree);
    tracer_->End(span);
    if (!Ensure(m.ok(), "engines", m.status())) return o;
    o.makespans = *m;
    if (!Ensure(m->pipelined <= m->list && m->list <= m->tree,
                "PIPELINED <= LIST <= TREE", mrs::Status())) {
      return o;
    }

    span = tracer_->Begin("exec.run", req, plan_span.id());
    auto run = ExecuteTree(tree, *x, args_.seed);
    tracer_->End(span);
    if (!Ensure(run.ok(), "RunTree", run.status())) return o;
    o.exec = *run;
    // The execution digest for the seed repeats on every visit.
    if (digests_[g] == 0) digests_[g] = run->digest;
    if (!Ensure(run->digest == digests_[g], "execution digest repeats",
                mrs::Status())) {
      return o;
    }
    o.total_ms = NowMs() - t0;
    if (tracer_->enabled() && trees_.size() == g) {
      trees_.push_back(std::move(tree));
      expanded_.push_back(std::move(x).value());
    }
    o.ok = true;
    return o;
  }

  bool Ensure(bool ok, const char* what, const mrs::Status& status) {
    if (!ok) {
      report_->Fail();
      report_->Check(false, std::string(what) + " " + status.ToString());
    }
    return ok;
  }

  Args args_;
  Report* report_;
  Tracer off_{false};
  Tracer on_{true};
  Tracer* tracer_ = &off_;
  const mrs::MachineConfig machine_{};  // P=16, d=3
  const mrs::OverlapUsageModel usage_{0.5};
  mrs::MetricsRegistry metrics_;
  std::vector<Graph> graphs_;
  std::vector<uint64_t> digests_;
  std::vector<double> cost_ms_;
  std::vector<mrs::TreeScheduleResult> trees_;
  std::vector<Expanded> expanded_;
};

}  // namespace

int RunOfflinePlanExec(const Args& args, Report* report) {
  return OfflinePlanExec(args, report).Run();
}

}  // namespace perfbench
