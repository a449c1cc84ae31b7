#ifndef MRS_CORE_LIST_SCHEDULE_H_
#define MRS_CORE_LIST_SCHEDULE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/operator_schedule.h"
#include "core/schedule.h"
#include "core/tree_schedule.h"
#include "cost/cost_model.h"
#include "cost/parallelize.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"
#include "resource/machine.h"
#include "resource/usage_model.h"

namespace mrs {

struct ListScheduleOptions {
  /// The knobs LISTSCHEDULE shares with TREESCHEDULE:
  ///  * granularity, policy, build_degree: each readiness wave is
  ///    parallelized by the same Allotment as a TREESCHEDULE phase;
  ///  * list_options: clone ordering / site selection of the per-round
  ///    OPERATORSCHEDULE pass (least-loaded selection then runs over the
  ///    *residual* site load at the round's virtual time). Its optional
  ///    base_load is the remaining work of co-resident queries per site,
  ///    treated as static over this query's horizon: added into every
  ///    placement round's residual (so the least-loaded rule avoids busy
  ///    sites) and forwarded to the tree_guard's TREESCHEDULE. It must
  ///    hold exactly num_sites vectors of the machine's dims;
  ///  * cache: same compatibility contract as for TREESCHEDULE;
  ///  * trace: one `list_place` span per placement round plus a
  ///    whole-call `list_schedule` span carrying the makespan, the eq. (3)
  ///    binding term of the critical site, and whether the barrier-aligned
  ///    guard fired. The tree_guard's TREESCHEDULE runs untraced.
  TreeScheduleOptions tree;
  /// Intra-task pipelined parallelism (arxiv 1403.7729's extension of the
  /// model): treat each ready task as the producer/consumer pipeline the
  /// plan layer says it is, instead of an undifferentiated wave. Two
  /// changes to the round: (1) *rate matching* — the task's bottleneck
  /// stage sets the pipeline's drain rate, and every floating stage
  /// without a blocking dependent is re-parallelized down to
  /// RateMatchedDegree (fewer clones, same pipeline rate, less alpha*N
  /// startup and site load); (2) consumers are placed in pipeline-stage
  /// order, each stage's least-loaded pass seeing its producers' freshly
  /// committed load. Every consumer clone starts at the instant its
  /// pipelined producer starts (maximal overlap), and eq. (2)'s
  /// finish-together rule applies per co-resident set as always.
  bool pipeline = false;
  /// Dominance guard of pipeline mode: also compute the plain task-wave
  /// LIST schedule (itself tree-guarded) and fall back to it whenever
  /// the rate-matched overlap loses, so PIPELINED <= LIST <= TREE by
  /// construction and Theorem 5.1(a)'s (2d+1)-competitive bound is
  /// inherited. Ignored when `pipeline` is off.
  bool pipeline_guard = true;
  /// Dominance guard: also run TREESCHEDULE with the same options and, if
  /// the barrier-free greedy schedule comes out *longer* (contention along
  /// the critical path can beat the barriers it removed), fall back to the
  /// tree schedule replayed on the shared timeline (phase k starting at
  /// the sum of the earlier phase makespans). With the guard on,
  /// ListSchedule's makespan never exceeds TreeSchedule's response time on
  /// any plan — the invariant the differential harness pins.
  bool tree_guard = true;
};

/// Execution interval of one query task on the virtual timeline.
struct ListTaskInterval {
  int task = -1;
  double start = 0.0;
  double finish = 0.0;
};

/// A barrier-free LISTSCHEDULE result: one global Schedule whose clones
/// carry individual start times instead of per-phase barriers.
struct ListScheduleResult {
  Schedule schedule{1, 1};
  /// All parallelized operators, in placement-round order.
  std::vector<ParallelizedOp> ops;
  /// Completion time of every clone, parallel to schedule.placements().
  std::vector<double> clone_finish;
  /// Per-task execution intervals, indexed by task id.
  std::vector<ListTaskInterval> tasks;
  double makespan = 0.0;
  /// Number of placement rounds the event loop ran (leaf round + one per
  /// readiness wave); 1 round == a single synchronized shelf.
  int rounds = 0;
  /// True when the tree_guard replaced the greedy schedule with the
  /// barrier-aligned TREESCHEDULE placement (see
  /// ListScheduleOptions::tree_guard).
  bool used_tree_fallback = false;
  /// TREESCHEDULE response time the guard compared against (0 when the
  /// guard is disabled).
  double tree_response_time = 0.0;
  /// True when pipeline mode kept the rate-matched schedule; false when
  /// pipeline mode is off or the pipeline_guard fell back.
  bool pipelined = false;
  /// True when the pipeline_guard replaced the rate-matched schedule with
  /// the plain task-wave LIST schedule.
  bool used_list_fallback = false;
  /// Plain task-wave LIST makespan the pipeline_guard compared against
  /// (0 when pipeline mode is off).
  double list_makespan = 0.0;
  /// eq. (3) diagnosis: the site whose completion time is the makespan,
  /// and whether its last wave was bound by resource congestion
  /// (l(remaining work), `critical_resource` = the arg max dimension) or
  /// by its slowest clone's stand-alone time.
  int critical_site = -1;
  bool load_bound = false;
  int critical_resource = -1;

  /// Placement (home) of an operator; empty if unknown.
  std::vector<int> HomeOf(int op_id) const { return schedule.HomeOf(op_id); }

  /// Which mode produced the schedule: "aligned-fallback" (tree_guard
  /// fell back), "pipelined", "wave-fallback" (pipeline_guard fell
  /// back), or "greedy". Shared by ToString, explains, and gantts.
  const char* ModeString() const {
    return used_tree_fallback ? "aligned-fallback"
           : pipelined        ? "pipelined"
           : used_list_fallback ? "wave-fallback"
                                : "greedy";
  }

  std::string ToString() const;
};

/// Barrier-free precedence-aware moldable list scheduling — the third
/// engine beside TREESCHEDULE and SYNCHRONOUS, in the spirit of
/// multi-resource moldable list schedulers for precedence-constrained
/// jobs (Perotin/Sun/Raghavan, arxiv 2106.07059) applied to the paper's
/// work-vector model:
///
///   1. a query task becomes *ready* when every child task has finished
///      (blocking edges of the task tree; leaves are ready at time 0);
///   2. at each readiness instant t the ready tasks' operators are
///      parallelized by the Allotment that parallelizes a TREESCHEDULE
///      phase (constraint B roots blocked operators at their producer's
///      home, floating degrees via CG_f or the §7 malleable selection),
///      then list-scheduled onto the sites with OPERATORSCHEDULE, with the
///      *residual* work of mid-flight clones as the base load — the
///      least-loaded rule runs over the time-varying l(R_s(t)) instead of
///      a per-phase snapshot;
///   3. each site shares its resources under the optimal-stretch fluid
///      discipline generalized to staggered arrivals: at every arrival
///      the common completion of the co-resident clones is recomputed as
///      F = t + max(max_c own_c(t), l(sum_c remaining_c(t))), which is
///      eq. (2) on remaining work (and exactly eq. (2) when everything
///      starts together);
///   4. virtual time advances to the earliest site completion; finished
///      tasks unlock their parents, and the loop repeats.
///
/// The greedy schedule reclaims the idle time TREESCHEDULE's synchronized
/// shelves leave at phase boundaries, but contention on a critical path
/// can occasionally cost more than the barriers saved; the tree_guard
/// (default on) makes the result never worse than TREESCHEDULE by
/// construction. Inputs and validity checks match TreeSchedule.
///
/// With options.pipeline, step 2 additionally exploits that every task is
/// a producer/consumer pipeline: non-bottleneck stages are rate-matched
/// down to RateMatchedDegree and stages are placed in pipeline order (see
/// ListScheduleOptions::pipeline), with the pipeline_guard falling back
/// to the plain task-wave schedule whenever the overlap loses.
Result<ListScheduleResult> ListSchedule(const OperatorTree& op_tree,
                                        const TaskTree& task_tree,
                                        const std::vector<OperatorCost>& costs,
                                        const CostParams& params,
                                        const MachineConfig& machine,
                                        const OverlapUsageModel& usage,
                                        const ListScheduleOptions& options = {});

}  // namespace mrs

#endif  // MRS_CORE_LIST_SCHEDULE_H_
