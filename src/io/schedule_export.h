#ifndef MRS_IO_SCHEDULE_EXPORT_H_
#define MRS_IO_SCHEDULE_EXPORT_H_

#include <string>

#include "core/list_schedule.h"
#include "core/schedule.h"
#include "core/tree_schedule.h"

namespace mrs {

// Every encoder appends through one JsonWriter (common/json_writer.h):
// numbers print as "%.6f" does, non-finite values as null.

/// Serializes one phase schedule as JSON:
/// {"num_sites":P,"dims":d,"makespan":...,"sites":[{"site":j,"time":...,
///  "load":[...],"clones":[{"op":...,"clone":...,"work":[...],
///  "t_seq":...}]}]}
std::string ScheduleToJson(const Schedule& schedule);

/// Serializes a full phased result as JSON:
/// {"response_time":...,"phases":[{"phase":k,"makespan":...,
///  "schedule":{...}}]}
std::string TreeScheduleToJson(const TreeScheduleResult& result);

/// Appends the TreeScheduleToJson bytes to `out`, so an envelope (the
/// service reply) embeds the schedule without an intermediate copy.
void AppendTreeScheduleJson(const TreeScheduleResult& result,
                            std::string* out);

/// Per-site CSV (one row per site per phase):
/// phase,site,site_time,load_cpu,load_...,num_clones
std::string TreeScheduleToCsv(const TreeScheduleResult& result);

/// Serializes a barrier-free LISTSCHEDULE result as JSON:
/// {"makespan":...,"tree_response":...,"fallback":0|1,
///  "mode":"greedy|pipelined|wave-fallback|aligned-fallback",
///  "rounds":...,
///  "num_sites":P,"dims":d,"tasks":[{"task":...,"start":...,
///  "finish":...}],"sites":[{"site":j,"finish":...,"load":[...],
///  "clones":[{"op":...,"clone":...,"start":...,"finish":...,
///  "work":[...],"t_seq":...}]}]}
std::string ListScheduleToJson(const ListScheduleResult& result);

/// Per-site CSV for a barrier-free result (one row per site):
/// site,finish,load_0,...,num_clones
std::string ListScheduleToCsv(const ListScheduleResult& result);

}  // namespace mrs

#endif  // MRS_IO_SCHEDULE_EXPORT_H_
