#ifndef MRS_EXEC_EXPLAIN_H_
#define MRS_EXEC_EXPLAIN_H_

#include <string>
#include <vector>

#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "resource/machine.h"

namespace mrs {

/// Per-phase diagnosis of a schedule: where the time goes and which term
/// of eq. (3) binds.
struct PhaseExplanation {
  int phase = -1;
  double makespan = 0.0;
  /// Site whose eq. (2) time equals the makespan.
  int critical_site = -1;
  /// True when the critical site is bound by its busiest resource
  /// (l(work(s))), false when its slowest clone's T_seq binds.
  bool load_bound = false;
  /// Resource dimension binding the critical site (valid if load_bound).
  int critical_resource = -1;
  /// Machine-wide utilization per resource in [0, 1] over this phase:
  /// total assigned work / (P * makespan).
  std::vector<double> utilization;
  /// Operator contributing the most work to the critical site.
  int heaviest_op = -1;
};

struct ScheduleExplanation {
  double response_time = 0.0;
  std::vector<PhaseExplanation> phases;

  /// Human-readable multi-line report ("phase 2: 5.1 s, site 7 bound by
  /// disk at 93% ...").
  std::string ToString(const MachineConfig& machine) const;
};

/// Diagnosis of a barrier-free LISTSCHEDULE result. The binding-term
/// fields mirror PhaseExplanation but describe the critical site's last
/// residency interval rather than a phase.
struct ListScheduleExplanation {
  double makespan = 0.0;
  /// Makespan TREESCHEDULE achieved under the same options (the dominance
  /// guard's reference point).
  double tree_response_time = 0.0;
  int rounds = 0;
  /// True when the greedy event loop lost to the phased engine and the
  /// aligned fallback schedule was emitted instead.
  bool used_tree_fallback = false;
  /// True when the intra-task pipelined mode produced this schedule.
  bool pipelined = false;
  /// True when the pipeline guard fell back to the plain task-wave
  /// schedule (see ListScheduleResult::used_list_fallback).
  bool used_list_fallback = false;
  /// Site whose last clone finishes at the makespan.
  int critical_site = -1;
  /// True when the critical site's final interval is bound by its busiest
  /// resource (the l(work(s)) term of eq. (2)), false when a clone's own
  /// T_seq binds.
  bool load_bound = false;
  /// Resource dimension binding the critical site (valid if load_bound).
  int critical_resource = -1;
  /// Machine-wide utilization per resource in [0, 1] over [0, makespan]:
  /// total assigned work / (P * makespan).
  std::vector<double> utilization;
  /// Operator contributing the most work to the critical site.
  int heaviest_op = -1;
  /// Task execution intervals, parallel to the result's task table.
  std::vector<ListTaskInterval> tasks;

  /// Human-readable multi-line report including per-task intervals.
  std::string ToString(const MachineConfig& machine) const;
};

/// Analyzes one phase: the critical site, the binding eq. (3) term,
/// per-resource utilization, and the heaviest operator on the critical
/// site. Pure analysis — no scheduling state is modified. Also used by the
/// tracing layer to annotate OPERATORSCHEDULE spans.
PhaseExplanation ExplainPhase(const PhaseSchedule& phase);

/// The binding eq. (3) term as the trace spans label it:
/// "congestion:<resource>" when the critical site's busiest resource binds
/// (`load_bound` with a valid `critical_resource`; an unnamed dimension
/// reads "r<i>"), "t_seq" when its slowest clone does.
std::string Eq3BindingLabel(bool load_bound, int critical_resource,
                            const MachineConfig& machine);

/// Analyzes a phased schedule: ExplainPhase over every phase.
ScheduleExplanation ExplainSchedule(const TreeScheduleResult& result);

/// Analyzes a barrier-free schedule: critical site, binding term,
/// utilization, heaviest operator, and the task timeline.
ListScheduleExplanation ExplainListSchedule(const ListScheduleResult& result);

}  // namespace mrs

#endif  // MRS_EXEC_EXPLAIN_H_
