#include "oracles/schedule_export_oracle.h"

#include "common/str_util.h"

namespace mrs {
namespace oracle {

namespace {

std::string VectorToJson(const WorkVector& w) {
  std::string out = "[";
  for (size_t i = 0; i < w.dim(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%.6f", w[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string ScheduleToJson(const Schedule& schedule) {
  std::string out = StrFormat(
      "{\"num_sites\":%d,\"dims\":%d,\"makespan\":%.6f,\"sites\":[",
      schedule.num_sites(), schedule.dims(), schedule.Makespan());
  for (int j = 0; j < schedule.num_sites(); ++j) {
    if (j > 0) out += ",";
    out += StrFormat("{\"site\":%d,\"time\":%.6f,\"load\":%s,\"clones\":[",
                     j, schedule.SiteTime(j),
                     VectorToJson(schedule.SiteLoad(j)).c_str());
    bool first = true;
    for (int p : schedule.SitePlacements(j)) {
      const ClonePlacement& c =
          schedule.placements()[static_cast<size_t>(p)];
      if (!first) out += ",";
      first = false;
      out += StrFormat(
          "{\"op\":%d,\"clone\":%d,\"work\":%s,\"t_seq\":%.6f}", c.op_id,
          c.clone_idx, VectorToJson(c.work).c_str(), c.t_seq);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string TreeScheduleToJson(const TreeScheduleResult& result) {
  std::string out = StrFormat("{\"response_time\":%.6f,\"phases\":[",
                              result.response_time);
  for (size_t k = 0; k < result.phases.size(); ++k) {
    if (k > 0) out += ",";
    const PhaseSchedule& phase = result.phases[k];
    out += StrFormat("{\"phase\":%d,\"makespan\":%.6f,\"schedule\":%s}",
                     phase.phase, phase.makespan,
                     ScheduleToJson(phase.schedule).c_str());
  }
  out += "]}";
  return out;
}

std::string TreeScheduleToCsv(const TreeScheduleResult& result) {
  std::string out = "phase,site,site_time";
  const int dims = result.phases.empty()
                       ? 0
                       : result.phases.front().schedule.dims();
  for (int i = 0; i < dims; ++i) out += StrFormat(",load_%d", i);
  out += ",num_clones\n";
  for (const auto& phase : result.phases) {
    for (int j = 0; j < phase.schedule.num_sites(); ++j) {
      out += StrFormat("%d,%d,%.6f", phase.phase, j,
                       phase.schedule.SiteTime(j));
      const WorkVector& load = phase.schedule.SiteLoad(j);
      for (size_t i = 0; i < load.dim(); ++i) {
        out += StrFormat(",%.6f", load[i]);
      }
      out += StrFormat(",%zu\n", phase.schedule.SitePlacements(j).size());
    }
  }
  return out;
}

std::string ListScheduleToJson(const ListScheduleResult& result) {
  const Schedule& schedule = result.schedule;
  std::string out = StrFormat(
      "{\"makespan\":%.6f,\"tree_response\":%.6f,\"fallback\":%d,"
      "\"mode\":\"%s\",\"rounds\":%d,\"num_sites\":%d,\"dims\":%d,"
      "\"tasks\":[",
      result.makespan, result.tree_response_time,
      result.used_tree_fallback ? 1 : 0, result.ModeString(), result.rounds,
      schedule.num_sites(), schedule.dims());
  for (size_t i = 0; i < result.tasks.size(); ++i) {
    if (i > 0) out += ",";
    const ListTaskInterval& t = result.tasks[i];
    out += StrFormat("{\"task\":%d,\"start\":%.6f,\"finish\":%.6f}", t.task,
                     t.start, t.finish);
  }
  out += "],\"sites\":[";
  for (int j = 0; j < schedule.num_sites(); ++j) {
    if (j > 0) out += ",";
    out += StrFormat("{\"site\":%d,\"finish\":%.6f,\"load\":%s,\"clones\":[",
                     j, schedule.SiteFinish(j),
                     VectorToJson(schedule.SiteLoad(j)).c_str());
    bool first = true;
    for (int p : schedule.SitePlacements(j)) {
      const ClonePlacement& c =
          schedule.placements()[static_cast<size_t>(p)];
      if (!first) out += ",";
      first = false;
      out += StrFormat(
          "{\"op\":%d,\"clone\":%d,\"start\":%.6f,\"finish\":%.6f,"
          "\"work\":%s,\"t_seq\":%.6f}",
          c.op_id, c.clone_idx, c.start,
          result.clone_finish[static_cast<size_t>(p)],
          VectorToJson(c.work).c_str(), c.t_seq);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string ListScheduleToCsv(const ListScheduleResult& result) {
  const Schedule& schedule = result.schedule;
  std::string out = "site,finish";
  for (int i = 0; i < schedule.dims(); ++i) out += StrFormat(",load_%d", i);
  out += ",num_clones\n";
  for (int j = 0; j < schedule.num_sites(); ++j) {
    out += StrFormat("%d,%.6f", j, schedule.SiteFinish(j));
    const WorkVector& load = schedule.SiteLoad(j);
    for (size_t i = 0; i < load.dim(); ++i) {
      out += StrFormat(",%.6f", load[i]);
    }
    out += StrFormat(",%zu\n", schedule.SitePlacements(j).size());
  }
  return out;
}

}  // namespace oracle
}  // namespace mrs
