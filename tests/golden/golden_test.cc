// Golden-file tests: every human- or machine-readable rendering the repo
// ships (ExplainSchedule::ToString, the ASCII/SVG gantt charts, the
// schedule JSON/CSV exports, and the versioned trace report) is pinned
// byte-for-byte against a checked-in corpus under tests/golden/. The
// inputs are fully deterministic (fixed fixtures, CountingClock traces,
// hand-fed metrics), so any byte change is a deliberate format change —
// regenerate with
//
//   mrs_golden_tests --update-golden        (or MRS_UPDATE_GOLDEN=1)
//
// and review the corpus diff like any other code change.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/list_schedule.h"
#include "cost/parallelize_cache.h"
#include "exec/calibrate.h"
#include "exec/exec_backend.h"
#include "exec/execute_backend.h"
#include "exec/explain.h"
#include "exec/gantt.h"
#include "exec/trace.h"
#include "io/schedule_export.h"
#include "io/trace_export.h"
#include "optimizer/optimizer.h"
#include "plan/query_graph.h"
#include "test_util.h"

namespace mrs {

// Set from main (not in the anonymous namespace so main can reach it).
bool g_update_golden = false;

namespace {

using testing_util::BushyFourWayFixture;
using testing_util::PipelinedChainFixture;
using testing_util::PlanFixture;

std::string GoldenPath(const std::string& name) {
  return std::string(MRS_GOLDEN_DIR) + "/" + name;
}

/// Byte-exact comparison against tests/golden/<name>; in update mode the
/// file is (re)written instead. Failure messages point at the first
/// differing line so format drift is easy to review.
void CompareOrUpdate(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(out.good()) << "short write to " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with mrs_golden_tests "
                            "--update-golden";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected == actual) return;

  // Locate the first differing line for the failure message.
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line = 0;
  while (true) {
    ++line;
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    if (!more_want || !more_got || want_line != got_line) {
      FAIL() << name << " drifted at line " << line << "\n  golden: "
             << (more_want ? want_line : "<eof>") << "\n  actual: "
             << (more_got ? got_line : "<eof>")
             << "\nif intended, regenerate with --update-golden";
    }
  }
  FAIL() << name << " differs only in line endings or trailing bytes";
}

/// The corpus driver: one deterministic schedule per fixture/policy pair.
struct GoldenSchedule {
  PlanFixture fx;
  MachineConfig machine;
  TreeScheduleResult result;
};

GoldenSchedule MakeGoldenSchedule(PlanFixture fx,
                                  ParallelizationPolicy policy,
                                  TraceSink* trace = nullptr,
                                  ParallelizeCache* cache = nullptr) {
  GoldenSchedule g;
  g.fx = std::move(fx);
  OverlapUsageModel usage(0.5);
  TreeScheduleOptions options;
  options.policy = policy;
  options.trace = trace;
  options.cache = cache;
  auto result = TreeSchedule(g.fx.op_tree, g.fx.task_tree, g.fx.costs,
                             CostParams{}, g.machine, usage, options);
  if (!result.ok()) std::abort();
  g.result = std::move(result).value();
  return g;
}

TEST(GoldenTest, ExplainBushy) {
  GoldenSchedule g = MakeGoldenSchedule(BushyFourWayFixture(),
                                        ParallelizationPolicy::kCoarseGrain);
  CompareOrUpdate("explain_bushy.txt",
                  ExplainSchedule(g.result).ToString(g.machine));
}

TEST(GoldenTest, ExplainMalleableChain) {
  GoldenSchedule g = MakeGoldenSchedule(PipelinedChainFixture(6),
                                        ParallelizationPolicy::kMalleable);
  CompareOrUpdate("explain_malleable_chain.txt",
                  ExplainSchedule(g.result).ToString(g.machine));
}

TEST(GoldenTest, GanttBushy) {
  GoldenSchedule g = MakeGoldenSchedule(BushyFourWayFixture(),
                                        ParallelizationPolicy::kCoarseGrain);
  CompareOrUpdate("gantt_bushy.txt", RenderTreeGantt(g.result));
}

TEST(GoldenTest, GanttPhaseBushy) {
  GoldenSchedule g = MakeGoldenSchedule(BushyFourWayFixture(),
                                        ParallelizationPolicy::kCoarseGrain);
  CompareOrUpdate("gantt_phase0_bushy.txt",
                  RenderPhaseGantt(g.result.phases[0].schedule));
}

TEST(GoldenTest, GanttSvgBushy) {
  GoldenSchedule g = MakeGoldenSchedule(BushyFourWayFixture(),
                                        ParallelizationPolicy::kCoarseGrain);
  CompareOrUpdate("gantt_bushy.svg", RenderTreeGanttSvg(g.result));
}

TEST(GoldenTest, ScheduleJsonBushy) {
  GoldenSchedule g = MakeGoldenSchedule(BushyFourWayFixture(),
                                        ParallelizationPolicy::kCoarseGrain);
  CompareOrUpdate("schedule_bushy.json", TreeScheduleToJson(g.result));
}

TEST(GoldenTest, ScheduleCsvBushy) {
  GoldenSchedule g = MakeGoldenSchedule(BushyFourWayFixture(),
                                        ParallelizationPolicy::kCoarseGrain);
  CompareOrUpdate("schedule_bushy.csv", TreeScheduleToCsv(g.result));
}

/// The barrier-free engine's renderings, pinned on the same bushy fixture
/// and knobs as the TREESCHEDULE goldens so the two engines' outputs can
/// be diffed side by side.
struct GoldenListSchedule {
  PlanFixture fx;
  MachineConfig machine;
  ListScheduleResult result;
};

GoldenListSchedule MakeGoldenListSchedule(TraceSink* trace = nullptr) {
  GoldenListSchedule g;
  g.fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  ListScheduleOptions options;
  options.tree.trace = trace;
  auto result = ListSchedule(g.fx.op_tree, g.fx.task_tree, g.fx.costs,
                             CostParams{}, g.machine, usage, options);
  if (!result.ok()) std::abort();
  g.result = std::move(result).value();
  return g;
}

TEST(GoldenTest, ExplainListBushy) {
  GoldenListSchedule g = MakeGoldenListSchedule();
  CompareOrUpdate("explain_list_bushy.txt",
                  ExplainListSchedule(g.result).ToString(g.machine));
}

TEST(GoldenTest, GanttListBushy) {
  GoldenListSchedule g = MakeGoldenListSchedule();
  CompareOrUpdate("gantt_list_bushy.txt", RenderListGantt(g.result));
}

TEST(GoldenTest, GanttListSvgBushy) {
  GoldenListSchedule g = MakeGoldenListSchedule();
  CompareOrUpdate("gantt_list_bushy.svg", RenderListGanttSvg(g.result));
}

TEST(GoldenTest, ScheduleListJsonBushy) {
  GoldenListSchedule g = MakeGoldenListSchedule();
  CompareOrUpdate("schedule_list_bushy.json", ListScheduleToJson(g.result));
}

TEST(GoldenTest, ScheduleListCsvBushy) {
  GoldenListSchedule g = MakeGoldenListSchedule();
  CompareOrUpdate("schedule_list_bushy.csv", ListScheduleToCsv(g.result));
}

TEST(GoldenTest, TraceListBushy) {
  ScheduleTrace trace(ScheduleTrace::CountingClock());
  trace.set_label("golden-query");
  GoldenListSchedule g = MakeGoldenListSchedule(&trace);
  (void)g;
  CompareOrUpdate("trace_list_bushy.txt", trace.ToString());
}

TEST(GoldenTest, TraceReportList) {
  MetricsRegistry registry;
  ScheduleTrace trace(ScheduleTrace::CountingClock());
  trace.set_label("golden-query");
  GoldenListSchedule g = MakeGoldenListSchedule(&trace);
  (void)g;
  CompareOrUpdate("trace_report_list.json",
                  ExportTraceReport({&trace}, registry.Snapshot()));
}

/// Pins the versioned trace-report schema end to end: a CountingClock
/// trace through the full TREESCHEDULE pipeline (with a cache, so the
/// per-stage hit/miss attrs appear) plus a hand-fed metrics registry.
TEST(GoldenTest, TraceReportSchema) {
  MetricsRegistry registry;
  ParallelizeCache cache(CostParams{}, 0.5, 0.7, MachineConfig{}.num_sites,
                         &registry);
  ScheduleTrace trace(ScheduleTrace::CountingClock());
  trace.set_label("golden-query");
  GoldenSchedule g =
      MakeGoldenSchedule(BushyFourWayFixture(),
                         ParallelizationPolicy::kCoarseGrain, &trace, &cache);
  (void)g;
  registry.GetGauge("example.load")->Set(0.25);
  Histogram* hist = registry.GetHistogram("example.latency_ms");
  for (int i = 1; i <= 4; ++i) hist->Record(0.5 * i);
  CompareOrUpdate("trace_report.json",
                  ExportTraceReport({&trace}, registry.Snapshot()));
}

/// The pipelined engine's renderings, pinned on a 4-join chain — the plan
/// shape intra-task pipelining exists for. The fixture also anchors the
/// dominance acceptance: pipelined strictly beats the task-wave engine
/// here (PipelinedStrictlyImprovesOnChain), so any change that erodes the
/// win shows up as a golden diff plus a failed strict inequality.
GoldenListSchedule MakeGoldenPipelinedSchedule(TraceSink* trace = nullptr) {
  GoldenListSchedule g;
  // 500-tuple relations: small enough that every stage runs below its
  // task's bottleneck rate, so rate matching has room to shed clones.
  g.fx = PipelinedChainFixture(4, /*tuples=*/500);
  OverlapUsageModel usage(0.5);
  ListScheduleOptions options;
  options.tree.trace = trace;
  options.pipeline = true;
  auto result = ListSchedule(g.fx.op_tree, g.fx.task_tree, g.fx.costs,
                             CostParams{}, g.machine, usage, options);
  if (!result.ok()) std::abort();
  g.result = std::move(result).value();
  return g;
}

TEST(GoldenTest, ExplainPipelinedChain) {
  GoldenListSchedule g = MakeGoldenPipelinedSchedule();
  CompareOrUpdate("explain_pipelined_chain.txt",
                  ExplainListSchedule(g.result).ToString(g.machine));
}

TEST(GoldenTest, GanttPipelinedChain) {
  GoldenListSchedule g = MakeGoldenPipelinedSchedule();
  CompareOrUpdate("gantt_pipelined_chain.txt", RenderListGantt(g.result));
}

TEST(GoldenTest, SchedulePipelinedJsonChain) {
  GoldenListSchedule g = MakeGoldenPipelinedSchedule();
  CompareOrUpdate("schedule_pipelined_chain.json",
                  ListScheduleToJson(g.result));
}

TEST(GoldenTest, TracePipelinedChain) {
  ScheduleTrace trace(ScheduleTrace::CountingClock());
  trace.set_label("golden-query");
  GoldenListSchedule g = MakeGoldenPipelinedSchedule(&trace);
  (void)g;
  CompareOrUpdate("trace_pipelined_chain.txt", trace.ToString());
}

TEST(GoldenTest, PipelinedStrictlyImprovesOnChain) {
  // The acceptance pin: with the guard on, pipelined <= list everywhere,
  // and on this plan the rate-matched co-residency is a strict win.
  GoldenListSchedule piped = MakeGoldenPipelinedSchedule();
  PlanFixture fx = PipelinedChainFixture(4, /*tuples=*/500);
  OverlapUsageModel usage(0.5);
  auto plain = ListSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                            piped.machine, usage, ListScheduleOptions{});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_TRUE(piped.result.pipelined);
  EXPECT_FALSE(piped.result.used_list_fallback);
  EXPECT_LT(piped.result.makespan, plain->makespan);
}

/// The execute backend's knobs behind the execution goldens: the
/// deterministic meter makes "measured" times a pure function of row
/// counts, so the explain rendering and the calibration report are
/// byte-stable on every machine.
ExecuteOptions GoldenExecuteOptions() {
  ExecuteOptions options;
  options.meter = ExecMeter::kDeterministic;
  options.threads = 2;
  return options;
}

TEST(GoldenTest, ExecuteReportBushy) {
  GoldenSchedule g = MakeGoldenSchedule(BushyFourWayFixture(),
                                        ParallelizationPolicy::kCoarseGrain);
  const std::vector<ExecOpSpec> specs = ExecOpSpecsFromTree(g.fx.op_tree);
  ExecuteBackend backend(GoldenExecuteOptions());
  auto runs = backend.RunTree(g.result, specs);
  if (!runs.ok()) std::abort();
  std::string text;
  for (const ExecutionResult& run : *runs) {
    text += ExplainExecution(run, g.machine);
  }
  CompareOrUpdate("execute_bushy.txt", text);
}

TEST(GoldenTest, ExecutePipelinedReportChain) {
  // The pipelined replay: same schedule, pipeline_edges on, deterministic
  // meter — the streamed row counts and digests are pinned byte-for-byte.
  GoldenListSchedule g = MakeGoldenPipelinedSchedule();
  const std::vector<ExecOpSpec> specs = ExecOpSpecsFromTree(g.fx.op_tree);
  ExecuteOptions options = GoldenExecuteOptions();
  options.pipeline_edges = true;
  ExecuteBackend backend(options);
  auto run = backend.Run(g.result.schedule, specs);
  if (!run.ok()) std::abort();
  CompareOrUpdate("execute_pipelined_chain.txt",
                  ExplainExecution(*run, g.machine));
}

TEST(GoldenTest, CalibrationReportBushy) {
  GoldenSchedule g = MakeGoldenSchedule(BushyFourWayFixture(),
                                        ParallelizationPolicy::kCoarseGrain);
  const std::vector<ExecOpSpec> specs = ExecOpSpecsFromTree(g.fx.op_tree);
  Calibrator calibrator(g.machine.dims, OverlapUsageModel(0.5),
                        GoldenExecuteOptions());
  if (!calibrator.AddTreePlan("bushy", g.result, specs).ok()) std::abort();
  GoldenListSchedule list = MakeGoldenListSchedule();
  const std::vector<ExecOpSpec> list_specs =
      ExecOpSpecsFromTree(list.fx.op_tree);
  if (!calibrator.AddSchedule("bushy-list", list.result.schedule, list_specs)
           .ok()) {
    std::abort();
  }
  CompareOrUpdate("calibration_bushy.json", calibrator.ReportJson());
}

/// The optimizer explain report, pinned for both pricing engines on a
/// fixed 4-join chain whose sizes spread two orders of magnitude (so the
/// winner is a non-textual bushy order). Explain() carries no timings,
/// thread counts, or cache counters, so the bytes are stable across
/// machines and --threads values.
std::string OptimizerExplain(OptimizerEngine engine) {
  Catalog catalog;
  const int64_t sizes[] = {25, 620, 2400, 96000, 31000};
  for (int i = 0; i < 5; ++i) {
    Relation r;
    r.name = "R" + std::to_string(i);
    r.num_tuples = sizes[i];
    if (!catalog.AddRelation(std::move(r)).ok()) std::abort();
  }
  QueryGraph graph(5);
  for (int i = 0; i < 4; ++i) {
    if (!graph.AddJoin(i, i + 1).ok()) std::abort();
  }
  OptimizerOptions options;
  options.engine = engine;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  auto result = OptimizeJoinOrder(catalog, graph, CostParams{},
                                  MachineConfig{}, OverlapUsageModel(0.5),
                                  options);
  if (!result.ok()) std::abort();
  return result->Explain();
}

TEST(GoldenTest, OptimizerExplainChainTree) {
  CompareOrUpdate("optimizer_explain_chain_tree.txt",
                  OptimizerExplain(OptimizerEngine::kTree));
}

TEST(GoldenTest, OptimizerExplainChainList) {
  CompareOrUpdate("optimizer_explain_chain_list.txt",
                  OptimizerExplain(OptimizerEngine::kList));
}

TEST(GoldenTest, TraceToStringBushy) {
  ScheduleTrace trace(ScheduleTrace::CountingClock());
  trace.set_label("golden-query");
  GoldenSchedule g = MakeGoldenSchedule(
      BushyFourWayFixture(), ParallelizationPolicy::kCoarseGrain, &trace);
  (void)g;
  CompareOrUpdate("trace_bushy.txt", trace.ToString());
}

}  // namespace
}  // namespace mrs

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      mrs::g_update_golden = true;
    }
  }
  const char* env = std::getenv("MRS_UPDATE_GOLDEN");
  if (env != nullptr && *env != '\0' && std::string(env) != "0") {
    mrs::g_update_golden = true;
  }
  return RUN_ALL_TESTS();
}
