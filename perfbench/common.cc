#include "common.h"

#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "common/str_util.h"
#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "exec/calibrate.h"
#include "exec/execute_backend.h"
#include "io/plan_text.h"
#include "stats.h"

namespace perfbench {

using mrs::Result;
using mrs::Status;

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return mrs::StrFormat("%.17g", v);
}

/// Replays of each plan in ReportExecution.
constexpr int kExecReps = 5;

/// The execute backend's settings: 4 replay threads, data from the seed.
mrs::ExecuteOptions ExecOptions(uint64_t data_seed) {
  mrs::ExecuteOptions options;
  options.threads = 4;
  options.data_seed = data_seed;
  return options;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& key, double value) {
  notes_.emplace_back(key, std::isfinite(value) ? mrs::StrFormat("%.10g", value)
                                                : std::string("null"));
}

void Report::NoteText(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, JsonString(value));
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  if (correct_) std::fprintf(stderr, "output check failed: %s\n", what.c_str());
  correct_ = false;
}

std::string Report::Json() const {
  std::string m;
  for (const Entry& e : metrics_) {
    if (!m.empty()) m += ",";
    m += mrs::StrFormat("%s:{\"value\":%s,\"unit\":%s}",
                        JsonString(e.name).c_str(),
                        JsonNumber(e.value).c_str(),
                        JsonString(e.unit).c_str());
  }
  return mrs::StrFormat(
      "{\"correct\":%s,\"attempted\":%" PRId64 ",\"failed\":%" PRId64
      ",\"metrics\":{%s}}",
      correct_ && failed_ == 0 ? "true" : "false", attempted_, failed_,
      m.c_str());
}

std::string Report::Info(const Args& args) const {
  std::string out = mrs::StrFormat(
      "{\"workload\":%s,\"seed\":%" PRIu64
      ",\"seconds\":%s,\"trace\":%d,\"build_type\":%s,\"compiler\":%s",
      JsonString(args.workload).c_str(), args.seed,
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str());
  for (const auto& [key, value] : notes_) {
    out += ',';
    out += JsonString(key);
    out += ':';
    out += value;
  }
  return out + "}";
}

int Tracer::Begin(const char* name, int64_t request, int parent) {
  if (!enabled_) return -1;
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, now, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ms = now;
}

void Tracer::Add(const char* name, double start_ms, double end_ms,
                 int64_t request, int parent) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ms, end_ms, parent, request});
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

std::vector<double> Tracer::SelfTimes(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ms, s.end_ms);
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name) continue;
    double covered = 0.0;
    auto it = children.find(static_cast<int>(i));
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cur_start = 0.0, cur_end = -1.0;
      bool open = false;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.start_ms);
        b = std::min(b, s.end_ms);
        if (b <= a) continue;
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
        } else {
          if (open) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
          open = true;
        }
      }
      if (open) covered += cur_end - cur_start;
    }
    out.push_back(s.end_ms - s.start_ms - covered);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << mrs::StrFormat(
        "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
        "\"parent\":%d,\"request\":%" PRId64 "}\n",
        i, s.name, s.start_ms, s.end_ms, s.parent, s.request);
  }
  return out.good();
}

double MedianSetupSeconds(const std::function<bool()>& setup) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < 5 || (total < 0.5 && seconds.size() < 2000)) {
    const double t0 = NowMs();
    if (!setup()) return -1.0;
    seconds.push_back((NowMs() - t0) / 1000.0);
    total += seconds.back();
  }
  return Median(seconds);
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid > 0 ? mrs::StrFormat("/proc/%d/status", static_cast<int>(pid))
              : std::string("/proc/self/status");
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
    }
  }
  return 0.0;
}

Result<Query> MakeQuery(mrs::WorkloadParams params, int joins,
                        mrs::Rng* rng) {
  params.num_joins = joins;
  auto gen = mrs::GenerateQuery(params, rng);
  if (!gen.ok()) return gen.status();
  auto text = mrs::WritePlanText(*gen->catalog, *gen->plan);
  if (!text.ok()) return text.status();
  Query q;
  q.gen = std::move(gen).value();
  q.text = std::move(text).value();
  return q;
}

Result<Expanded> Expand(const mrs::PlanTree& plan,
                        const mrs::MachineConfig& machine) {
  Expanded x;
  auto ops = mrs::OperatorTree::FromPlan(plan);
  if (!ops.ok()) return ops.status();
  x.ops = std::make_unique<mrs::OperatorTree>(std::move(ops).value());
  auto tasks = mrs::TaskTree::FromOperatorTree(x.ops.get());
  if (!tasks.ok()) return tasks.status();
  x.tasks = std::make_unique<mrs::TaskTree>(std::move(tasks).value());
  const mrs::CostModel model(mrs::CostParams{}, machine.dims);
  const double t0 = NowMs();
  auto costs = model.CostAll(*x.ops);
  x.cost_ms = NowMs() - t0;
  if (!costs.ok()) return costs.status();
  x.costs = std::move(costs).value();
  return x;
}

Result<EngineMakespans> ScheduleAllEngines(
    const Expanded& x, const mrs::MachineConfig& machine,
    const mrs::OverlapUsageModel& usage, mrs::TreeScheduleResult* tree_out) {
  const mrs::CostParams params;
  EngineMakespans m;
  double t0 = NowMs();
  auto tree = mrs::TreeSchedule(*x.ops, *x.tasks, x.costs, params, machine,
                                usage);
  m.tree_ms = NowMs() - t0;
  if (!tree.ok()) return tree.status();
  mrs::ListScheduleOptions list_options;
  t0 = NowMs();
  auto list = mrs::ListSchedule(*x.ops, *x.tasks, x.costs, params, machine,
                                usage, list_options);
  m.list_ms = NowMs() - t0;
  if (!list.ok()) return list.status();
  list_options.pipeline = true;
  t0 = NowMs();
  auto pipelined = mrs::ListSchedule(*x.ops, *x.tasks, x.costs, params,
                                     machine, usage, list_options);
  m.pipelined_ms = NowMs() - t0;
  if (!pipelined.ok()) return pipelined.status();
  m.tree = tree->response_time;
  m.list = list->makespan;
  m.pipelined = pipelined->makespan;
  m.list_fallback = list->used_tree_fallback;
  m.pipeline_fallback = pipelined->used_list_fallback;
  if (tree_out != nullptr) *tree_out = std::move(tree).value();
  return m;
}

void EngineSummary::Add(const EngineMakespans& m) {
  tree_.push_back(m.tree);
  list_.push_back(m.list);
  pipelined_.push_back(m.pipelined);
  tree_ms_.push_back(m.tree_ms);
  list_ms_.push_back(m.list_ms);
  pipelined_ms_.push_back(m.pipelined_ms);
  if (m.list_fallback) ++list_fallbacks_;
  if (m.pipeline_fallback) ++pipeline_fallbacks_;
  if (!(m.pipelined <= m.list && m.list <= m.tree)) ++order_violations_;
}

void EngineSummary::ReportMakespans(Report* report) const {
  report->Metric("makespan_tree_ms", Geomean(tree_), "ms");
  report->Metric("makespan_list_ms", Geomean(list_), "ms");
  report->Metric("makespan_pipelined_ms", Geomean(pipelined_), "ms");
  report->Check(order_violations_ == 0,
                mrs::StrFormat("PIPELINED <= LIST <= TREE broken on %d plans",
                               order_violations_));
}

void EngineSummary::ReportLayers(Report* report) const {
  const double n = std::max<double>(1.0, static_cast<double>(tree_.size()));
  report->Metric("core.tree_schedule_ms_p50", Median(tree_ms_), "ms");
  report->Metric("core.list_schedule_ms_p50", Median(list_ms_), "ms");
  report->Metric("core.pipelined_schedule_ms_p50", Median(pipelined_ms_),
                 "ms");
  report->Metric("core.list_fallback_share", list_fallbacks_ / n, "share");
  report->Metric("core.pipeline_fallback_share", pipeline_fallbacks_ / n,
                 "share");
}

void ReportLatency(Report* report, const std::vector<double>& v,
                   size_t block) {
  const LatencySummary s = BlockedLatency(v, block);
  report->Metric("latency_p50_ms", s.p50, "ms");
  report->Metric("latency_tail_ms", s.tail.value, "ms");
  report->Note("latency_tail_quantile", s.tail.quantile);
  report->Note("latency_samples", static_cast<double>(v.size()));
  report->Note("latency_blocks", static_cast<double>(s.blocks));
}

Result<ExecRun> ExecuteTree(const mrs::TreeScheduleResult& schedule,
                            const Expanded& x, uint64_t data_seed) {
  mrs::ExecuteBackend backend(ExecOptions(data_seed));
  const double t0 = NowMs();
  auto runs = backend.RunTree(schedule, mrs::ExecOpSpecsFromTree(*x.ops));
  ExecRun out;
  out.wall_ms = NowMs() - t0;
  if (!runs.ok()) return runs.status();
  for (const mrs::ExecutionResult& r : *runs) {
    out.digest = out.digest * 1000003u ^ r.digest;
    for (const mrs::CloneExecution& c : r.clones) {
      out.rows += static_cast<double>(c.rows_in + c.rows_out);
    }
  }
  return out;
}

void ExecSummary::Add(size_t plan, const ExecRun& run) {
  if (wall_ms_.size() <= plan) wall_ms_.resize(plan + 1);
  wall_ms_[plan].push_back(run.wall_ms);
  total_ms_ += run.wall_ms;
  rows_ += run.rows;
}

void ExecSummary::ReportTo(Report* report, bool traced) const {
  std::vector<double> per_plan;
  for (const std::vector<double>& w : wall_ms_) {
    if (!w.empty()) per_plan.push_back(Median(w));
  }
  if (!traced) {
    report->Metric("exec_wall_ms", Geomean(per_plan), "ms");
    return;
  }
  report->Metric("exec.run_ms_p50", Geomean(per_plan), "ms");
  report->Metric("exec.rows_per_s",
                 total_ms_ > 0 ? rows_ / (total_ms_ / 1000.0) : 0.0, "1/s");
}

void ReportCalibration(const std::vector<mrs::TreeScheduleResult>& schedules,
                       const std::vector<Expanded>& plans,
                       const mrs::MachineConfig& machine, uint64_t data_seed,
                       Report* report) {
  mrs::Calibrator calibrator(machine.dims, mrs::OverlapUsageModel(0.5),
                             ExecOptions(data_seed));
  for (size_t i = 0; i < schedules.size(); ++i) {
    const mrs::Status s = calibrator.AddTreePlan(
        mrs::StrFormat("plan%zu", i), schedules[i],
        mrs::ExecOpSpecsFromTree(*plans[i].ops));
    report->Check(s.ok(), "calibration replay");
  }
  report->Metric("exec.calibration_error_unfitted",
                 calibrator.MeanRelativeError(false), "ratio");
  report->Metric("exec.calibration_error_fitted",
                 calibrator.MeanRelativeError(true), "ratio");
}

void ReportExecution(const std::vector<const mrs::PlanTree*>& plans,
                     const mrs::MachineConfig& machine, uint64_t data_seed,
                     bool traced, Report* report) {
  ExecSummary summary;
  std::vector<Expanded> expanded;
  std::vector<mrs::TreeScheduleResult> schedules;
  for (const mrs::PlanTree* plan : plans) {
    auto x = Expand(*plan, machine);
    report->Check(x.ok(), "expand for execution");
    if (!x.ok()) return;
    auto tree = mrs::TreeSchedule(*x->ops, *x->tasks, x->costs,
                                  mrs::CostParams{}, machine,
                                  mrs::OverlapUsageModel(0.5));
    report->Check(tree.ok(), "tree schedule for execution");
    if (!tree.ok()) return;
    uint64_t first_digest = 0;
    for (int rep = 0; rep < kExecReps; ++rep) {
      auto run = ExecuteTree(*tree, *x, data_seed);
      report->Check(run.ok(), "RunTree");
      if (!run.ok()) return;
      if (rep == 0) first_digest = run->digest;
      report->Check(run->digest == first_digest, "execution digest repeats");
      summary.Add(expanded.size(), *run);
    }
    expanded.push_back(std::move(x).value());
    schedules.push_back(std::move(tree).value());
  }
  summary.ReportTo(report, traced);
  if (traced) ReportCalibration(schedules, expanded, machine, data_seed, report);
}

std::string OutputDir() {
  const char* env = std::getenv("PERFBENCH_OUT");
  const std::string dir = env != nullptr && *env != '\0' ? env : ".";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace perfbench
