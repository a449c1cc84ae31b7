// Shared pieces of the benchmark driver: arguments, the result report,
// the in-memory span recorder of traced runs, input generation, and the
// offline engine trio every workload prices its plans with.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/tree_schedule.h"
#include "cost/cost_model.h"
#include "cost/cost_params.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"
#include "resource/machine.h"
#include "resource/usage_model.h"
#include "workload/generator.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Wall milliseconds on the steady clock since an arbitrary epoch.
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The per-run result: named metrics, ops attempted and failed, and the
/// output-check verdict. Json() is the final stdout line; Info() is the
/// line before it (host record, tail quantiles, validity notes).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Extra context that is not a metric (e.g. "latency_tail_quantile").
  void Note(const std::string& key, double value);
  void NoteText(const std::string& key, const std::string& value);

  /// Records one output check; a false `ok` marks the run incorrect and
  /// prints `what` on stderr.
  void Check(bool ok, const std::string& what);

  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(int64_t n = 1) { failed_ += n; }
  bool correct() const { return correct_; }

  std::string Json() const;
  std::string Info(const Args& args) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;  // key, JSON value
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// Spans of a traced run, kept in memory and written out when the run
/// ends. A span is one timed call into a layer: name, start, end, the
/// span that caused it, and the request it belongs to. Disabled tracers
/// record nothing (Begin returns -1).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(const char* name, int64_t request, int parent = -1);
  void End(int id);
  /// Records a span whose start and end were timed elsewhere.
  void Add(const char* name, double start_ms, double end_ms, int64_t request,
           int parent = -1);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t request, int parent = -1)
        : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer* tracer_;
    int id_;
  };

  /// Durations (ms) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Self times (ms) of every span named `name`: duration minus the part
  /// of its interval covered by its child spans.
  std::vector<double> SelfTimes(const std::string& name) const;

  /// Writes one JSON object per span to `path`; false on I/O error.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    int parent;
    int64_t request;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Runs `setup` at least five times and until half a second of set-up has
/// run (at most 2000 times), and returns the median seconds of one
/// set-up; -1 as soon as `setup` returns false. Cheap set-ups repeat more,
/// so their median stays steady.
double MedianSetupSeconds(const std::function<bool()>& setup);

/// VmHWM (peak resident set) of `pid` in MB; the calling process when
/// pid <= 0. 0 when unreadable.
double PeakRssMb(pid_t pid = 0);

/// A generated query with its plan text (the wire form).
struct Query {
  mrs::GeneratedQuery gen;
  std::string text;
};

/// Generates one query of `joins` joins from `base` params.
mrs::Result<Query> MakeQuery(mrs::WorkloadParams params, int joins,
                             mrs::Rng* rng);

/// A plan expanded to the scheduler's inputs; heap-held so the task tree's
/// pointer into the operator tree stays valid.
struct Expanded {
  std::unique_ptr<mrs::OperatorTree> ops;
  std::unique_ptr<mrs::TaskTree> tasks;
  std::vector<mrs::OperatorCost> costs;
  double cost_ms = 0.0;  ///< wall ms of CostModel::CostAll
};

mrs::Result<Expanded> Expand(const mrs::PlanTree& plan,
                             const mrs::MachineConfig& machine);

/// Model makespans of one plan under the three offline engines and
/// whether each guard discarded the greedy schedule.
struct EngineMakespans {
  double tree = 0.0;
  double list = 0.0;
  double pipelined = 0.0;
  bool list_fallback = false;      ///< LIST's tree_guard fired
  bool pipeline_fallback = false;  ///< PIPELINED's pipeline_guard fired
  /// Wall ms of each engine call (traced runs read these).
  double tree_ms = 0.0;
  double list_ms = 0.0;
  double pipelined_ms = 0.0;
};

/// `tree_out`, if set, receives the TREE schedule.
mrs::Result<EngineMakespans> ScheduleAllEngines(
    const Expanded& x, const mrs::MachineConfig& machine,
    const mrs::OverlapUsageModel& usage,
    mrs::TreeScheduleResult* tree_out = nullptr);

/// Accumulates EngineMakespans over a plan set into the makespan_* metrics
/// (geomean, model ms) and the core.* per-layer metrics, and checks
/// PIPELINED <= LIST <= TREE on every plan.
class EngineSummary {
 public:
  void Add(const EngineMakespans& m);
  void ReportMakespans(Report* report) const;
  void ReportLayers(Report* report) const;

 private:
  std::vector<double> tree_, list_, pipelined_;
  std::vector<double> tree_ms_, list_ms_, pipelined_ms_;
  int list_fallbacks_ = 0;
  int pipeline_fallbacks_ = 0;
  int order_violations_ = 0;
};

/// Reports latency_p50_ms and latency_tail_ms from `v` (time order) by
/// BlockedLatency(v, block), noting the tail's percentile, the sample and
/// the block count.
void ReportLatency(Report* report, const std::vector<double>& v,
                   size_t block);

/// Runs every workload entry point; each returns the process exit code.
int RunServeMixed(const Args& args, Report* report);
int RunOnlineBurst(const Args& args, Report* report);
int RunOfflinePlanExec(const Args& args, Report* report);

/// One replay of a tree schedule on the execute backend (4 threads).
struct ExecRun {
  double wall_ms = 0.0;
  double rows = 0.0;  ///< rows in + out over every clone
  uint64_t digest = 0;
};

mrs::Result<ExecRun> ExecuteTree(const mrs::TreeScheduleResult& schedule,
                                 const Expanded& x, uint64_t data_seed);

/// Accumulates replays into exec_wall_ms (untraced) or exec.run_ms_p50
/// and exec.rows_per_s (traced): the geometric mean over plans of each
/// plan's median RunTree wall time — the plan mix stays out of the number.
class ExecSummary {
 public:
  void Add(size_t plan, const ExecRun& run);
  void ReportTo(Report* report, bool traced) const;

 private:
  std::vector<std::vector<double>> wall_ms_;  // per plan
  double total_ms_ = 0.0;
  double rows_ = 0.0;
};

/// exec.calibration_error_{unfitted,fitted}: a Calibrator's mean relative
/// site-time error over `schedules`, schedules[i] being plans[i]'s.
void ReportCalibration(const std::vector<mrs::TreeScheduleResult>& schedules,
                       const std::vector<Expanded>& plans,
                       const mrs::MachineConfig& machine, uint64_t data_seed,
                       Report* report);

/// The execute-backend half of the metrics for workloads whose main loop
/// does not execute: each plan's tree schedule runs five times (digests
/// must repeat) into ExecSummary, plus the calibration errors when traced.
void ReportExecution(const std::vector<const mrs::PlanTree*>& plans,
                     const mrs::MachineConfig& machine, uint64_t data_seed,
                     bool traced, Report* report);

/// Directory for trace files and result records (created on demand).
std::string OutputDir();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
