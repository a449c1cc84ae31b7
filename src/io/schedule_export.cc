#include "io/schedule_export.h"

#include "common/json_writer.h"

namespace mrs {

namespace {

void AppendVector(const WorkVector& w, JsonWriter* out) {
  out->Raw("[");
  for (size_t i = 0; i < w.dim(); ++i) {
    if (i > 0) out->Raw(",");
    out->Num(w[i]);
  }
  out->Raw("]");
}

void AppendScheduleJson(const Schedule& schedule, JsonWriter* out) {
  out->Raw("{\"num_sites\":").Int(schedule.num_sites());
  out->Raw(",\"dims\":").Int(schedule.dims());
  out->Raw(",\"makespan\":").Num(schedule.Makespan());
  out->Raw(",\"sites\":[");
  for (int j = 0; j < schedule.num_sites(); ++j) {
    if (j > 0) out->Raw(",");
    out->Raw("{\"site\":").Int(j).Raw(",\"time\":").Num(schedule.SiteTime(j));
    out->Raw(",\"load\":");
    AppendVector(schedule.SiteLoad(j), out);
    out->Raw(",\"clones\":[");
    bool first = true;
    for (int p : schedule.SitePlacements(j)) {
      const ClonePlacement& c =
          schedule.placements()[static_cast<size_t>(p)];
      if (!first) out->Raw(",");
      first = false;
      out->Raw("{\"op\":").Int(c.op_id).Raw(",\"clone\":").Int(c.clone_idx);
      out->Raw(",\"work\":");
      AppendVector(c.work, out);
      out->Raw(",\"t_seq\":").Num(c.t_seq).Raw("}");
    }
    out->Raw("]}");
  }
  out->Raw("]}");
}

/// The per-site CSV tail shared by both CSV exports:
/// ",load_0,...,num_clones\n" after the caller's leading columns.
void AppendSiteCsv(const Schedule& schedule, int site, JsonWriter* out) {
  const WorkVector& load = schedule.SiteLoad(site);
  for (size_t i = 0; i < load.dim(); ++i) out->Raw(",").Num(load[i]);
  out->Raw(",").UInt(schedule.SitePlacements(site).size()).Raw("\n");
}

void AppendCsvHeader(int dims, JsonWriter* out) {
  for (int i = 0; i < dims; ++i) out->Raw(",load_").Int(i);
  out->Raw(",num_clones\n");
}

}  // namespace

std::string ScheduleToJson(const Schedule& schedule) {
  std::string out;
  JsonWriter w(&out);
  AppendScheduleJson(schedule, &w);
  return out;
}

void AppendTreeScheduleJson(const TreeScheduleResult& result,
                            std::string* out) {
  JsonWriter w(out);
  w.Raw("{\"response_time\":").Num(result.response_time).Raw(",\"phases\":[");
  for (size_t k = 0; k < result.phases.size(); ++k) {
    if (k > 0) w.Raw(",");
    const PhaseSchedule& phase = result.phases[k];
    w.Raw("{\"phase\":").Int(phase.phase);
    w.Raw(",\"makespan\":").Num(phase.makespan).Raw(",\"schedule\":");
    AppendScheduleJson(phase.schedule, &w);
    w.Raw("}");
  }
  w.Raw("]}");
}

std::string TreeScheduleToJson(const TreeScheduleResult& result) {
  std::string out;
  AppendTreeScheduleJson(result, &out);
  return out;
}

std::string TreeScheduleToCsv(const TreeScheduleResult& result) {
  std::string out = "phase,site,site_time";
  JsonWriter w(&out);
  AppendCsvHeader(
      result.phases.empty() ? 0 : result.phases.front().schedule.dims(), &w);
  for (const auto& phase : result.phases) {
    for (int j = 0; j < phase.schedule.num_sites(); ++j) {
      w.Int(phase.phase).Raw(",").Int(j).Raw(",");
      w.Num(phase.schedule.SiteTime(j));
      AppendSiteCsv(phase.schedule, j, &w);
    }
  }
  return out;
}

std::string ListScheduleToJson(const ListScheduleResult& result) {
  const Schedule& schedule = result.schedule;
  std::string out;
  JsonWriter w(&out);
  w.Raw("{\"makespan\":").Num(result.makespan);
  w.Raw(",\"tree_response\":").Num(result.tree_response_time);
  w.Raw(",\"fallback\":").Int(result.used_tree_fallback ? 1 : 0);
  w.Raw(",\"mode\":").Str(result.ModeString());
  w.Raw(",\"rounds\":").Int(result.rounds);
  w.Raw(",\"num_sites\":").Int(schedule.num_sites());
  w.Raw(",\"dims\":").Int(schedule.dims());
  w.Raw(",\"tasks\":[");
  for (size_t i = 0; i < result.tasks.size(); ++i) {
    if (i > 0) w.Raw(",");
    const ListTaskInterval& t = result.tasks[i];
    w.Raw("{\"task\":").Int(t.task).Raw(",\"start\":").Num(t.start);
    w.Raw(",\"finish\":").Num(t.finish).Raw("}");
  }
  w.Raw("],\"sites\":[");
  for (int j = 0; j < schedule.num_sites(); ++j) {
    if (j > 0) w.Raw(",");
    w.Raw("{\"site\":").Int(j).Raw(",\"finish\":").Num(schedule.SiteFinish(j));
    w.Raw(",\"load\":");
    AppendVector(schedule.SiteLoad(j), &w);
    w.Raw(",\"clones\":[");
    bool first = true;
    for (int p : schedule.SitePlacements(j)) {
      const ClonePlacement& c =
          schedule.placements()[static_cast<size_t>(p)];
      if (!first) w.Raw(",");
      first = false;
      w.Raw("{\"op\":").Int(c.op_id).Raw(",\"clone\":").Int(c.clone_idx);
      w.Raw(",\"start\":").Num(c.start);
      w.Raw(",\"finish\":").Num(result.clone_finish[static_cast<size_t>(p)]);
      w.Raw(",\"work\":");
      AppendVector(c.work, &w);
      w.Raw(",\"t_seq\":").Num(c.t_seq).Raw("}");
    }
    w.Raw("]}");
  }
  w.Raw("]}");
  return out;
}

std::string ListScheduleToCsv(const ListScheduleResult& result) {
  const Schedule& schedule = result.schedule;
  std::string out = "site,finish";
  JsonWriter w(&out);
  AppendCsvHeader(schedule.dims(), &w);
  for (int j = 0; j < schedule.num_sites(); ++j) {
    w.Int(j).Raw(",").Num(schedule.SiteFinish(j));
    AppendSiteCsv(schedule, j, &w);
  }
  return out;
}

}  // namespace mrs
