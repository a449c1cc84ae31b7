#ifndef MRS_CORE_TREE_SCHEDULE_H_
#define MRS_CORE_TREE_SCHEDULE_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/operator_schedule.h"
#include "core/schedule.h"
#include "cost/cost_model.h"
#include "cost/parallelize.h"
#include "cost/parallelize_cache.h"
#include "exec/trace.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"
#include "resource/machine.h"
#include "resource/usage_model.h"

namespace mrs {

/// How floating operators get their degree of partitioned parallelism.
enum class ParallelizationPolicy {
  /// Coarse-grain: N = min(N_max(op, f), optimal degree, P) — the paper's
  /// main algorithm (Prop. 4.1 plus the A4 guard of §6.1).
  kCoarseGrain,
  /// Malleable: the §7 greedy LB-minimizing selection, per phase.
  kMalleable,
};

/// How the degree of parallelism of a *build* operator is determined.
/// Because the probe inherits the build's home (constraint B), the build's
/// degree caps the probe's parallelism one phase later.
enum class BuildDegreePolicy {
  /// Size the build for the build alone (Prop. 4.1 on the build's own
  /// work vector). A tiny inner relation then strangles a huge probe —
  /// kept for the ablation bench.
  kBuildOnly,
  /// Size the build for the whole hash join: apply the CG_f condition and
  /// the A4 cap to the combined build+probe cost (default). This is the
  /// natural reading of [HCY94]-style models where the join is the unit
  /// of processor allocation.
  kJoinAware,
};

struct TreeScheduleOptions {
  /// Granularity parameter f of the CG_f condition (ignored by kMalleable).
  double granularity = 0.7;
  ParallelizationPolicy policy = ParallelizationPolicy::kCoarseGrain;
  BuildDegreePolicy build_degree = BuildDegreePolicy::kJoinAware;
  /// List scheduling knobs forwarded to OperatorSchedule.
  OperatorScheduleOptions list_options;
  /// Optional memoized parallelization cache (not owned), typically shared
  /// across the queries of a batch. Must have been constructed for the same
  /// (CostParams, overlap epsilon, granularity, num_sites) this call uses,
  /// or TreeSchedule fails with InvalidArgument. Caching never changes the
  /// result: entries are pure functions of the operator signature.
  ParallelizeCache* cache = nullptr;
  /// Optional per-query trace sink (not owned). When set, TreeSchedule
  /// records one span per stage (parallelize and OPERATORSCHEDULE per
  /// phase, malleable selection, whole-call assembly) annotated with the
  /// chosen degrees vs. N_max(op, f), the binding eq. (3) term per phase,
  /// and parallelize-cache hits/misses per stage. Null = tracing disabled
  /// at the cost of one branch per instrumentation site.
  TraceSink* trace = nullptr;
};

/// One synchronized phase of a TREESCHEDULE execution.
struct PhaseSchedule {
  /// Task-tree phase index (0 executes first).
  int phase = -1;
  /// The parallelized operators scheduled in this phase.
  std::vector<ParallelizedOp> ops;
  Schedule schedule;
  /// Response time of the phase (eq. (3) over this phase's schedule).
  double makespan = 0.0;
};

/// A full schedule for a bushy plan: synchronized phases executed back to
/// back (phase k+1 starts when phase k completes).
struct TreeScheduleResult {
  std::vector<PhaseSchedule> phases;
  /// Sum of the phase makespans: the plan's response time.
  double response_time = 0.0;

  /// Placement (home) of an operator, searched across phases; empty if the
  /// operator is unknown.
  std::vector<int> HomeOf(int op_id) const;

  std::string ToString() const;
};

/// The TREESCHEDULE allotment (§5.4): the degree and clone split of every
/// operator of a ready set. An operator with a blocking producer (a probe,
/// a sort merge, an aggregate's emit) is rooted at its producer's home
/// (constraint B). Every other operator is floating: it gets the CG_f
/// degree N_max(op, f) of Prop. 4.1 (kCoarseGrain) or the §7 malleable
/// selection (kMalleable), derived from SizingCost, and is split from its
/// own cost. TREESCHEDULE, LISTSCHEDULE and the memory-aware engine all
/// parallelize through this one unit; they differ only in how they place
/// the clones and keep time. Every split goes through options.cache when
/// one is set, which never changes a result. All referenced inputs must
/// outlive the allotment; it is movable but not copyable.
class Allotment {
 public:
  /// Validates the inputs: cost vector size, cost params, machine config,
  /// the coarse-grain granularity f >= 0, and cache compatibility.
  static Result<Allotment> Create(const OperatorTree& op_tree,
                                  const std::vector<OperatorCost>& costs,
                                  const CostParams& params,
                                  const MachineConfig& machine,
                                  const OverlapUsageModel& usage,
                                  const TreeScheduleOptions& options);

  Allotment(Allotment&&) = default;
  Allotment& operator=(Allotment&&) = default;
  Allotment(const Allotment&) = delete;
  Allotment& operator=(const Allotment&) = delete;

  /// The cost an operator's degree is derived from: under kJoinAware, a
  /// state-materializing operator together with its blocking dependent
  /// (see BuildDegreePolicy); otherwise the operator's own cost.
  OperatorCost SizingCost(int oid) const;
  /// True iff a later operator is rooted at `oid`'s home (a build, a sort
  /// run, an aggregate's group table).
  bool HasBlockingDependent(int oid) const {
    return dependent_of_.count(oid) != 0;
  }

  /// ParallelizeRooted / ParallelizeFloating / ParallelizeAtDegree under
  /// this allotment's context, memoized when a cache is set.
  Result<ParallelizedOp> Rooted(const OperatorCost& cost,
                                std::vector<int> home) const;
  Result<ParallelizedOp> Floating(const OperatorCost& cost) const;
  Result<ParallelizedOp> AtDegree(const OperatorCost& cost, int degree) const;

  /// Parallelizes the ready set `op_ids`: the rooted operators first, then
  /// the floating ones, each group in `op_ids` order. `home_of` holds the
  /// homes of the operators placed so far; a rooted operator whose
  /// producer is not among them fails with Internal. Under kMalleable the
  /// selection is traced as a `malleable_select` span with index
  /// `span_index` on `trace` (may be null). `degree_span`, when non-null,
  /// gets one `opN.degree` attribute per operator.
  Result<std::vector<ParallelizedOp>> Parallelize(
      const std::vector<int>& op_ids,
      const std::unordered_map<int, std::vector<int>>& home_of,
      TraceSink* trace, int span_index, SpanTimer* degree_span) const;

  const OperatorTree& op_tree() const { return *op_tree_; }
  const std::vector<OperatorCost>& costs() const { return *costs_; }
  const CostParams& params() const { return params_; }
  /// The validated machine configuration.
  const MachineConfig& machine() const { return config_; }
  const OverlapUsageModel& usage() const { return usage_; }
  const TreeScheduleOptions& options() const { return options_; }

 private:
  Allotment(const OperatorTree& op_tree,
            const std::vector<OperatorCost>& costs, const CostParams& params,
            MachineConfig config, const OverlapUsageModel& usage,
            const TreeScheduleOptions& options);

  const OperatorTree* op_tree_;
  const std::vector<OperatorCost>* costs_;
  CostParams params_;
  MachineConfig config_;
  OverlapUsageModel usage_;
  TreeScheduleOptions options_;
  /// The blocking dependent of each state-materializing operator (probe
  /// of a build, merge of a sort run, emit of an aggregate).
  std::unordered_map<int, int> dependent_of_;
};

/// Incremental per-phase driver of TREESCHEDULE: parallelizes (through the
/// Allotment) and list-schedules one task-tree phase at a time, so a
/// caller can interleave the phases of a query with external events.
/// TreeSchedule() itself is a loop over NextPhase(); the online scheduler
/// places phase k+1 of a query only when phase k completes on the virtual
/// clock and passes the residual site load (remaining work of co-resident
/// queries) observed at that instant, turning OPERATORSCHEDULE into the
/// residual-capacity incremental variant of the multi-query follow-up.
///
/// Data placement constraints propagate across the planner's own phases
/// exactly as in TreeSchedule (a probe is rooted at the home of its
/// build). All referenced inputs must outlive the planner; the planner is
/// movable but not copyable.
class PhasePlanner {
 public:
  /// Validates the inputs exactly like Allotment::Create.
  static Result<PhasePlanner> Create(const OperatorTree& op_tree,
                                     const TaskTree& task_tree,
                                     const std::vector<OperatorCost>& costs,
                                     const CostParams& params,
                                     const MachineConfig& machine,
                                     const OverlapUsageModel& usage,
                                     const TreeScheduleOptions& options = {});

  PhasePlanner(PhasePlanner&&) = default;
  PhasePlanner& operator=(PhasePlanner&&) = default;
  PhasePlanner(const PhasePlanner&) = delete;
  PhasePlanner& operator=(const PhasePlanner&) = delete;

  int num_phases() const;
  /// Index of the phase the next NextPhase call schedules.
  int next_phase() const { return next_; }
  bool done() const { return next_ >= num_phases(); }

  /// Warms the shared parallelize cache with every split NextPhase will
  /// ask for that does not depend on placement: under kCoarseGrain, each
  /// floating operator's Floating + AtDegree (join-aware sizing as in
  /// NextPhase) and each rooted operator's split at its blocking
  /// producer's degree. The cache is a pure function of its key, so the
  /// phases placed later are unchanged; they only hit. No-op under
  /// kMalleable or without a cache. Fails where NextPhase would fail to
  /// parallelize.
  Status Prepare();

  /// Parallelizes and list-schedules the next phase. `base_load`, when
  /// non-null, is forwarded to OperatorSchedule as the residual site load
  /// of co-resident queries (see OperatorScheduleOptions::base_load); the
  /// returned PhaseSchedule::makespan is the *uncontended* eq. (3) value
  /// of the phase's own clones. Fails with FailedPrecondition once done().
  Result<PhaseSchedule> NextPhase(
      const std::vector<WorkVector>* base_load = nullptr);

  const MachineConfig& machine() const { return allotment_.machine(); }

 private:
  PhasePlanner(Allotment allotment, const TaskTree& task_tree)
      : allotment_(std::move(allotment)), task_tree_(&task_tree) {}

  Allotment allotment_;
  const TaskTree* task_tree_;
  /// Homes of operators scheduled in earlier phases (constraint B).
  std::unordered_map<int, std::vector<int>> home_of_;
  int next_ = 0;
};

/// The paper's TREESCHEDULE algorithm (§5.4, Figure 4): split the query
/// task tree into synchronized phases (MinShelf) and schedule each phase's
/// operators with OPERATORSCHEDULE. Data placement constraints propagate
/// across phases: a probe is rooted at the home of its build, which always
/// executes in an earlier phase (the hash table must be probed where it
/// was built). All other operators are floating.
///
/// `costs` must be indexed by operator id (as produced by
/// CostModel::CostAll) and `params` must be the CostParams the costs were
/// derived with (alpha/beta are needed again for parallelization). Runs in
/// O(J P (J + log P)) overall (Prop. 5.2).
Result<TreeScheduleResult> TreeSchedule(const OperatorTree& op_tree,
                                        const TaskTree& task_tree,
                                        const std::vector<OperatorCost>& costs,
                                        const CostParams& params,
                                        const MachineConfig& machine,
                                        const OverlapUsageModel& usage,
                                        const TreeScheduleOptions& options = {});

}  // namespace mrs

#endif  // MRS_CORE_TREE_SCHEDULE_H_
