// sched_cli: schedule a plan described in the plan text format and print
// the schedule (text, Gantt, JSON, or CSV). The downstream-integration
// face of the library: feed it plans from your optimizer, get placements
// back.
//
// Usage:
//   sched_cli <plan-file> [--sites N] [--eps E] [--f F]
//             [--algorithm tree|malleable|sync|list] [--pipeline]
//             [--format text|gantt|svg|json|csv]
//             [--batch N] [--threads K] [--metrics] [--trace-json=FILE]
//             [--optimize] [--no-prune]
//             [--execute] [--calibrate=FILE] [--exec-seed N]
//             [--exec-rows N] [--exec-skew S] [--exec-meter cpu|rows]
//             [--connect HOST:PORT]
//
// --engine is accepted as an alias for --algorithm; `--engine=list`
// selects the barrier-free moldable list scheduler (LISTSCHEDULE).
// `--engine=list --pipeline` additionally turns on intra-task pipelined
// parallelism: producer/consumer operators of one task are rate-matched
// and co-scheduled so consumers start with their producers, guarded to
// never exceed the plain list makespan (src/core/list_schedule.h); with
// --execute it also replays the pipelined edges through bounded queues
// (ExecuteOptions::pipeline_edges).
//
// --optimize runs the scheduler-in-the-loop join-order optimizer on a
// plan file carrying a `graph` stanza instead of a plan line (see
// src/io/plan_text.h): it searches the bushy join-plan space with the
// scheduler's own makespan as the cost function (src/optimizer/) and
// prints the optimizer explain report followed by the winning plan in
// plan-text format (feed it back to sched_cli to see the schedule).
// --threads sets the search workers (the result is byte-identical across
// thread counts), --algorithm tree|list picks the pricing engine, and
// --no-prune disables lower-bound pruning (the exhaustive baseline).
//
// --execute replays the schedule on the real execution backend
// (partitioned hash joins / group-bys over generated data, see
// src/exec/execute_backend.h) and prints the per-site execution report
// after the schedule output. --calibrate=FILE additionally writes the
// versioned JSON calibration report (measured vs predicted per-site
// times, fitted per-dimension scale; src/exec/calibrate.h) to FILE.
// --exec-seed / --exec-rows / --exec-skew control the generated data
// (root seed, per-operator row cap, key skew); --exec-meter picks the
// per-clone meter: `cpu` = real thread CPU time (default), `rows` =
// deterministic rows-processed pseudo-time (byte-stable reports). Both
// flags work with tree, malleable, and list schedules.
//
// With --connect HOST:PORT the plan file (including any @arrival/@timeout
// directive lines, see src/server/sched_service.h) is sent verbatim to a
// running sched_server and the JSON response is printed; all other
// scheduling flags are ignored — the server's configuration applies.
//
// With --batch N the plan is scheduled N times through the batch
// scheduling engine on K worker threads (a serving-loop smoke test:
// reports queries/sec and parallelize-cache hit rate, then prints the
// first schedule in the requested format).
//
// --metrics prints the process metrics registry (counters, cache hit
// rates, latency histogram percentiles) after the schedule output.
// --trace-json=FILE records a per-query trace of every pipeline stage
// (parse, expansion, costing, parallelize, OPERATORSCHEDULE per phase)
// and writes the versioned JSON report of io/trace_export.h to FILE.
//
// Plan file format (see src/io/plan_text.h):
//   relation customer 30000
//   relation orders 90000
//   plan (join orders customer)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/synchronous.h"
#include "common/metrics.h"
#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "exec/batch_scheduler.h"
#include "exec/calibrate.h"
#include "exec/exec_backend.h"
#include "exec/execute_backend.h"
#include "exec/gantt.h"
#include "exec/trace.h"
#include "io/plan_text.h"
#include "io/schedule_export.h"
#include "io/trace_export.h"
#include "optimizer/optimizer.h"
#include "server/sched_client.h"
#include "workload/experiment.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <plan-file> [--sites N] [--eps E] [--f F]\n"
               "          [--algorithm tree|malleable|sync|list]\n"
               "          [--pipeline]\n"
               "          [--format text|gantt|svg|json|csv]\n"
               "          [--batch N] [--threads K]\n"
               "          [--optimize] [--no-prune]\n"
               "          [--metrics] [--trace-json=FILE]\n"
               "          [--execute] [--calibrate=FILE] [--exec-seed N]\n"
               "          [--exec-rows N] [--exec-skew S]\n"
               "          [--exec-meter cpu|rows]\n"
               "          [--connect HOST:PORT]\n",
               argv0);
  return 2;
}

/// Writes the versioned trace report to `path`; returns false on IO error.
bool WriteTraceReport(const std::string& path,
                      const std::vector<const mrs::ScheduleTrace*>& traces) {
  const std::string report = mrs::ExportTraceReport(
      traces, mrs::MetricsRegistry::Global().Snapshot());
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << report << "\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrs;
  if (argc < 2) return Usage(argv[0]);

  std::string plan_path = argv[1];
  int sites = 16;
  double eps = 0.5;
  double f = 0.7;
  std::string algorithm = "tree";
  std::string format = "text";
  int batch = 1;
  int threads = 1;
  bool print_metrics = false;
  std::string trace_json_path;
  std::string connect;
  bool execute = false;
  bool pipeline = false;
  bool optimize = false;
  bool opt_prune = true;
  std::string calibrate_path;
  uint64_t exec_seed = 1;
  long long exec_rows = 8192;
  double exec_skew = 0.0;
  std::string exec_meter = "cpu";
  for (int i = 2; i < argc; ++i) {
    auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--sites") == 0) {
      sites = std::atoi(need_value("--sites"));
    } else if (std::strcmp(argv[i], "--eps") == 0) {
      eps = std::atof(need_value("--eps"));
    } else if (std::strcmp(argv[i], "--f") == 0) {
      f = std::atof(need_value("--f"));
    } else if (std::strcmp(argv[i], "--algorithm") == 0) {
      algorithm = need_value("--algorithm");
    } else if (std::strcmp(argv[i], "--engine") == 0) {
      algorithm = need_value("--engine");
    } else if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      algorithm = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--format") == 0) {
      format = need_value("--format");
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch = std::atoi(need_value("--batch"));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = std::atoi(need_value("--threads"));
    } else if (std::strcmp(argv[i], "--connect") == 0) {
      connect = need_value("--connect");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      print_metrics = true;
    } else if (std::strcmp(argv[i], "--optimize") == 0) {
      optimize = true;
    } else if (std::strcmp(argv[i], "--no-prune") == 0) {
      opt_prune = false;
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      pipeline = true;
    } else if (std::strcmp(argv[i], "--execute") == 0) {
      execute = true;
    } else if (std::strncmp(argv[i], "--calibrate=", 12) == 0) {
      calibrate_path = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--calibrate") == 0) {
      calibrate_path = need_value("--calibrate");
    } else if (std::strcmp(argv[i], "--exec-seed") == 0) {
      exec_seed = std::strtoull(need_value("--exec-seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--exec-rows") == 0) {
      exec_rows = std::atoll(need_value("--exec-rows"));
    } else if (std::strcmp(argv[i], "--exec-skew") == 0) {
      exec_skew = std::atof(need_value("--exec-skew"));
    } else if (std::strcmp(argv[i], "--exec-meter") == 0) {
      exec_meter = need_value("--exec-meter");
    } else if (std::strncmp(argv[i], "--trace-json=", 13) == 0) {
      trace_json_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--trace-json") == 0) {
      trace_json_path = need_value("--trace-json");
    } else {
      return Usage(argv[0]);
    }
  }
  if (batch < 1 || threads < 1) {
    std::fprintf(stderr, "--batch and --threads must be >= 1\n");
    return 2;
  }
  if (exec_meter != "cpu" && exec_meter != "rows") {
    std::fprintf(stderr, "--exec-meter must be cpu or rows\n");
    return 2;
  }

  const bool tracing = !trace_json_path.empty();
  ScheduleTrace driver_trace;
  driver_trace.set_label("driver");
  ScheduleTrace* trace = tracing ? &driver_trace : nullptr;
  // Trace report + metrics table, shared by every successful exit path.
  auto finish_reports =
      [&](const std::vector<const ScheduleTrace*>& extra) -> bool {
    if (tracing) {
      std::vector<const ScheduleTrace*> traces{&driver_trace};
      traces.insert(traces.end(), extra.begin(), extra.end());
      if (!WriteTraceReport(trace_json_path, traces)) return false;
    }
    if (print_metrics) {
      std::printf("%s",
                  MetricsRegistry::Global().Snapshot().ToString().c_str());
    }
    return true;
  };

  std::ifstream in(plan_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", plan_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  if (!connect.empty()) {
    // Client mode: ship the plan text to a sched_server, print the JSON
    // response. The request may carry @arrival/@timeout directive lines.
    const size_t colon = connect.rfind(':');
    const int port =
        colon == std::string::npos ? 0 : std::atoi(connect.c_str() + colon + 1);
    if (colon == std::string::npos || port <= 0) {
      std::fprintf(stderr, "--connect expects HOST:PORT, got '%s'\n",
                   connect.c_str());
      return 2;
    }
    auto client = SchedClient::ConnectTcp(connect.substr(0, colon), port);
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    auto response = client.value().Call(buffer.str());
    if (!response.ok()) {
      std::fprintf(stderr, "request failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", response.value().c_str());
    client.value().Close();
    return 0;
  }

  SpanTimer parse_span(trace, "parse");
  auto parsed = ParsePlanText(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  if (parse_span.active()) {
    parse_span.AttrInt("bytes", static_cast<int64_t>(buffer.str().size()));
    parse_span.AttrInt("relations", parsed->catalog->num_relations());
  }
  parse_span.End();

  if (optimize) {
    if (parsed->graph == nullptr) {
      std::fprintf(stderr,
                   "--optimize requires a plan file with a graph stanza "
                   "(e.g. 'graph (a b) (b c)'), got a plan line\n");
      return 2;
    }
    OptimizerOptions opt;
    opt.granularity = f;
    opt.num_threads = threads;
    opt.prune = opt_prune;
    opt.trace = trace;
    if (algorithm == "list") {
      opt.engine = OptimizerEngine::kList;
    } else if (algorithm != "tree") {
      std::fprintf(stderr, "--optimize supports --algorithm tree|list\n");
      return 2;
    }
    CostParams params;
    MachineConfig machine;
    machine.num_sites = sites;
    const OverlapUsageModel usage(eps);
    auto result = OptimizeJoinOrder(*parsed->catalog, *parsed->graph, params,
                                    machine, usage, opt);
    if (!result.ok()) {
      std::fprintf(stderr, "optimize failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", result->Explain().c_str());
    auto plan_text = WritePlanText(*parsed->catalog, *result->plan);
    if (!plan_text.ok()) {
      std::fprintf(stderr, "plan render failed: %s\n",
                   plan_text.status().ToString().c_str());
      return 1;
    }
    std::printf("# winning plan (feed back to sched_cli):\n%s",
                plan_text->c_str());
    return finish_reports({}) ? 0 : 1;
  }
  if (parsed->plan == nullptr) {
    std::fprintf(stderr,
                 "plan file declares a graph stanza; run with --optimize to "
                 "search for a join order\n");
    return 2;
  }

  if (batch > 1 || threads > 1) {
    // Batch mode: push N copies of the plan through the batch scheduling
    // engine and report throughput plus cache effectiveness.
    if (execute || !calibrate_path.empty()) {
      std::fprintf(stderr, "--execute/--calibrate do not support batch mode\n");
      return 2;
    }
    if (algorithm == "sync" || algorithm == "list") {
      std::fprintf(stderr, "--batch supports tree|malleable only\n");
      return 2;
    }
    BatchSchedulerOptions options;
    options.num_threads = threads;
    options.overlap_eps = eps;
    options.tree.granularity = f;
    options.collect_traces = tracing;
    if (algorithm == "malleable") {
      options.tree.policy = ParallelizationPolicy::kMalleable;
    } else if (algorithm != "tree") {
      return Usage(argv[0]);
    }
    CostParams params;
    MachineConfig machine;
    machine.num_sites = sites;
    BatchScheduler engine(params, machine, options);
    std::vector<const PlanTree*> plans(static_cast<size_t>(batch),
                                       parsed->plan.get());
    const auto start = std::chrono::steady_clock::now();
    BatchOutput output = engine.ScheduleAll(plans);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    for (const auto& item : output.items) {
      if (!item.status.ok()) {
        std::fprintf(stderr, "scheduling failed (plan %d): %s\n", item.index,
                     item.status.ToString().c_str());
        return 1;
      }
    }
    std::fprintf(stderr,
                 "%s; %d queries on %d threads in %.3fs (%.0f queries/s)\n",
                 output.ToString().c_str(), batch, engine.options().num_threads,
                 elapsed_s, elapsed_s > 0 ? batch / elapsed_s : 0.0);
    const TreeScheduleResult& first = output.items.front().schedule;
    if (format == "json") {
      std::printf("%s\n", TreeScheduleToJson(first).c_str());
    } else if (format == "csv") {
      std::printf("%s", TreeScheduleToCsv(first).c_str());
    } else if (format == "gantt") {
      std::printf("%s", RenderTreeGantt(first).c_str());
    } else if (format == "svg") {
      std::printf("%s", RenderTreeGanttSvg(first).c_str());
    } else {
      std::printf("%s", first.ToString().c_str());
    }
    std::vector<const ScheduleTrace*> item_traces;
    for (const auto& item : output.items) {
      item_traces.push_back(item.trace.get());
    }
    return finish_reports(item_traces) ? 0 : 1;
  }

  auto op_tree_result = OperatorTree::FromPlan(*parsed->plan);
  if (!op_tree_result.ok()) return 1;
  OperatorTree op_tree = std::move(op_tree_result).value();
  auto task_tree = TaskTree::FromOperatorTree(&op_tree);
  if (!task_tree.ok()) return 1;

  CostParams params;
  MachineConfig machine;
  machine.num_sites = sites;
  CostModel model(params, machine.dims);
  auto costs = model.CostAll(op_tree);
  if (!costs.ok()) return 1;
  const OverlapUsageModel usage(eps);

  ExecuteOptions exec_options;
  exec_options.data_seed = exec_seed;
  exec_options.skew = exec_skew;
  exec_options.max_rows_per_op = exec_rows;
  exec_options.meter =
      exec_meter == "rows" ? ExecMeter::kDeterministic : ExecMeter::kThreadCpu;
  // Writes the calibration report to --calibrate's FILE and prints a
  // one-line summary (both error metrics) to stderr.
  auto write_calibration = [&](Calibrator& calibrator) -> bool {
    std::ofstream out(calibrate_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", calibrate_path.c_str());
      return false;
    }
    out << calibrator.ReportJson() << "\n";
    if (!out.good()) return false;
    std::fprintf(stderr,
                 "calibration: %d plans, %d clone samples; mean rel error "
                 "%.3f unfitted -> %.3f fitted -> %s\n",
                 calibrator.num_plans(), calibrator.num_clone_samples(),
                 calibrator.MeanRelativeError(false),
                 calibrator.MeanRelativeError(true), calibrate_path.c_str());
    return true;
  };

  if (algorithm == "sync") {
    if (execute || !calibrate_path.empty()) {
      std::fprintf(stderr,
                   "--execute/--calibrate support tree|malleable|list only\n");
      return 2;
    }
    auto result = SynchronousSchedule(op_tree, *task_tree, costs.value(),
                                      params, machine, usage, trace);
    if (!result.ok()) {
      std::fprintf(stderr, "scheduling failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", result->ToString().c_str());
    return finish_reports({}) ? 0 : 1;
  }

  if (pipeline && algorithm != "list") {
    std::fprintf(stderr, "--pipeline requires --engine=list\n");
    return 2;
  }
  if (algorithm == "list") {
    ListScheduleOptions options;
    options.tree.granularity = f;
    options.tree.trace = trace;
    options.pipeline = pipeline;
    exec_options.pipeline_edges = pipeline;
    auto result = ListSchedule(op_tree, *task_tree, costs.value(), params,
                               machine, usage, options);
    if (!result.ok()) {
      std::fprintf(stderr, "scheduling failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (format == "json") {
      std::printf("%s\n", ListScheduleToJson(*result).c_str());
    } else if (format == "csv") {
      std::printf("%s", ListScheduleToCsv(*result).c_str());
    } else if (format == "gantt") {
      std::printf("%s", RenderListGantt(*result).c_str());
    } else if (format == "svg") {
      std::printf("%s", RenderListGanttSvg(*result).c_str());
    } else {
      std::printf("%s", result->ToString().c_str());
      std::printf("%s", result->schedule.ToString().c_str());
    }
    if (execute) {
      ExecuteBackend backend(exec_options);
      auto run = backend.Run(result->schedule, ExecOpSpecsFromTree(op_tree));
      if (!run.ok()) {
        std::fprintf(stderr, "execution failed: %s\n",
                     run.status().ToString().c_str());
        return 1;
      }
      std::printf("%s", ExplainExecution(*run, machine, /*wall=*/true).c_str());
    }
    if (!calibrate_path.empty()) {
      Calibrator calibrator(machine.dims, usage, exec_options);
      if (Status s = calibrator.AddSchedule(plan_path, result->schedule,
                                            ExecOpSpecsFromTree(op_tree));
          !s.ok()) {
        std::fprintf(stderr, "calibration failed: %s\n", s.ToString().c_str());
        return 1;
      }
      if (!write_calibration(calibrator)) return 1;
    }
    return finish_reports({}) ? 0 : 1;
  }

  TreeScheduleOptions options;
  options.granularity = f;
  options.trace = trace;
  if (algorithm == "malleable") {
    options.policy = ParallelizationPolicy::kMalleable;
  } else if (algorithm != "tree") {
    return Usage(argv[0]);
  }
  auto result = TreeSchedule(op_tree, *task_tree, costs.value(), params,
                             machine, usage, options);
  if (!result.ok()) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  if (format == "json") {
    std::printf("%s\n", TreeScheduleToJson(*result).c_str());
  } else if (format == "csv") {
    std::printf("%s", TreeScheduleToCsv(*result).c_str());
  } else if (format == "gantt") {
    std::printf("%s", RenderTreeGantt(*result).c_str());
  } else if (format == "svg") {
    std::printf("%s", RenderTreeGanttSvg(*result).c_str());
  } else {
    std::printf("%s", result->ToString().c_str());
    for (const auto& phase : result->phases) {
      std::printf("%s", phase.schedule.ToString().c_str());
    }
  }
  if (execute) {
    ExecuteBackend backend(exec_options);
    auto runs = backend.RunTree(*result, ExecOpSpecsFromTree(op_tree));
    if (!runs.ok()) {
      std::fprintf(stderr, "execution failed: %s\n",
                   runs.status().ToString().c_str());
      return 1;
    }
    for (size_t p = 0; p < runs->size(); ++p) {
      std::printf("phase %zu:\n%s", p,
                  ExplainExecution((*runs)[p], machine, /*wall=*/true).c_str());
    }
  }
  if (!calibrate_path.empty()) {
    Calibrator calibrator(machine.dims, usage, exec_options);
    if (Status s = calibrator.AddTreePlan(plan_path, *result,
                                          ExecOpSpecsFromTree(op_tree));
        !s.ok()) {
      std::fprintf(stderr, "calibration failed: %s\n", s.ToString().c_str());
      return 1;
    }
    if (!write_calibration(calibrator)) return 1;
  }
  return finish_reports({}) ? 0 : 1;
}
