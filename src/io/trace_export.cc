#include "io/trace_export.h"

#include "common/json_writer.h"

namespace mrs {

namespace {

void AppendSpanJson(const TraceSpan& span, JsonWriter* out) {
  out->Raw("{\"name\":").Str(span.name).Raw(",\"phase\":").Int(span.phase);
  out->Raw(",\"start_ms\":").Num(span.start_ms);
  out->Raw(",\"end_ms\":").Num(span.end_ms).Raw(",\"attrs\":{");
  for (size_t i = 0; i < span.attrs.size(); ++i) {
    if (i > 0) out->Raw(",");
    out->Str(span.attrs[i].first).Raw(":").Str(span.attrs[i].second);
  }
  out->Raw("}}");
}

void AppendTraceJson(const ScheduleTrace& trace, JsonWriter* out) {
  out->Raw("{\"label\":").Str(trace.label()).Raw(",\"spans\":[");
  const std::vector<TraceSpan> spans = trace.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out->Raw(",");
    AppendSpanJson(spans[i], out);
  }
  out->Raw("]}");
}

}  // namespace

std::string TraceToJson(const ScheduleTrace& trace) {
  std::string out;
  JsonWriter w(&out);
  AppendTraceJson(trace, &w);
  return out;
}

std::string ExportTraceReport(const std::vector<const ScheduleTrace*>& traces,
                              const MetricsSnapshot& metrics) {
  std::string out;
  JsonWriter w(&out);
  w.Raw("{\"version\":").Int(kTraceExportVersion).Raw(",\"traces\":[");
  bool first = true;
  for (const ScheduleTrace* trace : traces) {
    if (trace == nullptr) continue;
    if (!first) w.Raw(",");
    first = false;
    AppendTraceJson(*trace, &w);
  }
  w.Raw("],\"metrics\":").Raw(metrics.ToJson()).Raw("}");
  return out;
}

}  // namespace mrs
