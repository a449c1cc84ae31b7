#include "io/trace_export.h"

#include <string>

#include <gtest/gtest.h>

#include "exec/batch_scheduler.h"
#include "json_checker.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::JsonChecker;
using testing_util::PlanFixture;

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e2],"b":"x\n","c":null})").Valid());
  EXPECT_TRUE(JsonChecker("[]").Valid());
  EXPECT_FALSE(JsonChecker("{").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").Valid());
  EXPECT_FALSE(JsonChecker("{} trailing").Valid());
  EXPECT_FALSE(JsonChecker("[inf]").Valid());
  EXPECT_FALSE(JsonChecker("[-nan]").Valid());
  EXPECT_FALSE(JsonChecker("[-]").Valid());
}

TEST(TraceExportTest, EmptyReportIsValidVersionedJson) {
  MetricsRegistry registry;
  const std::string json = ExportTraceReport({}, registry.Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"traces\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
}

TEST(TraceExportTest, EscapesLabelsAndAttrs) {
  ScheduleTrace trace(ScheduleTrace::CountingClock());
  trace.set_label("quo\"te\\back\nline");
  {
    SpanTimer span(&trace, "stage");
    span.Attr("key\"x", "val\tue");
  }
  const std::string json = TraceToJson(trace);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("quo\\\"te\\\\back\\nline"), std::string::npos) << json;
  EXPECT_NE(json.find("val\\tue"), std::string::npos) << json;
}

TEST(TraceExportTest, SkipsNullTraces) {
  MetricsRegistry registry;
  ScheduleTrace trace(ScheduleTrace::CountingClock());
  trace.set_label("only");
  const std::string json =
      ExportTraceReport({nullptr, &trace, nullptr}, registry.Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"label\":\"only\""), std::string::npos);
  EXPECT_EQ(json.find("null"), std::string::npos);
}

TEST(TraceExportTest, DeterministicUnderCountingClock) {
  auto render = [] {
    MetricsRegistry registry;
    registry.GetCounter("fixed")->Increment(3);
    ScheduleTrace trace(ScheduleTrace::CountingClock());
    trace.set_label("q");
    {
      SpanTimer span(&trace, "a", 0);
      span.AttrInt("n", 1);
    }
    { SpanTimer span(&trace, "b", 1); }
    return ExportTraceReport({&trace}, registry.Snapshot());
  };
  const std::string first = render();
  EXPECT_EQ(first, render());
  EXPECT_TRUE(JsonChecker(first).Valid()) << first;
  EXPECT_NE(first.find("\"start_ms\":0.000000"), std::string::npos) << first;
}

TEST(TraceExportTest, BatchEngineTracesExportValidJson) {
  PlanFixture fx = BushyFourWayFixture();
  MetricsRegistry registry;
  BatchSchedulerOptions options;
  options.num_threads = 2;
  options.collect_traces = true;
  options.metrics = &registry;
  CostParams params;
  MachineConfig machine;
  BatchScheduler engine(params, machine, options);
  std::vector<const PlanTree*> plans(8, fx.plan.get());
  BatchOutput output = engine.ScheduleAll(plans);

  std::vector<const ScheduleTrace*> traces;
  for (const auto& item : output.items) {
    ASSERT_TRUE(item.status.ok());
    ASSERT_NE(item.trace, nullptr);
    traces.push_back(item.trace.get());
  }
  const std::string json = ExportTraceReport(traces, registry.Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  // Every pipeline stage shows up, and the engine's process metrics ride
  // along in the same report.
  for (const char* stage :
       {"expand", "cost_model", "parallelize", "operator_schedule",
        "tree_schedule"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + stage + "\""),
              std::string::npos)
        << stage;
  }
  EXPECT_NE(json.find("\"batch.items\":8"), std::string::npos);
  EXPECT_NE(json.find("\"batch.item_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"pool.queue_wait_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"parallelize_cache.hits\""), std::string::npos);
}

TEST(TraceExportTest, BatchTracesOffByDefault) {
  PlanFixture fx = BushyFourWayFixture();
  BatchSchedulerOptions options;
  CostParams params;
  MachineConfig machine;
  BatchScheduler engine(params, machine, options);
  BatchOutput output = engine.ScheduleAll({fx.plan.get()});
  ASSERT_EQ(output.items.size(), 1u);
  EXPECT_EQ(output.items[0].trace, nullptr);
}

}  // namespace
}  // namespace mrs
