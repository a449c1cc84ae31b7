#include "core/tree_schedule.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "core/malleable.h"
#include "exec/explain.h"

namespace mrs {

namespace {

/// Annotates a finished OPERATORSCHEDULE span with the phase diagnosis the
/// paper's analysis audits: the critical site of the eq. (3) argmax and
/// whether its l(work(s)) (resource congestion) or its slowest clone's
/// T_seq binds.
void AnnotateOperatorScheduleSpan(SpanTimer* span, const PhaseSchedule& phase,
                                  const MachineConfig& config) {
  const PhaseExplanation exp = ExplainPhase(phase);
  span->AttrInt("ops", static_cast<int64_t>(phase.ops.size()));
  span->AttrDouble("makespan_ms", phase.makespan);
  span->AttrInt("critical_site", exp.critical_site);
  span->Attr("eq3_binding",
             Eq3BindingLabel(exp.load_bound, exp.critical_resource, config));
  span->AttrInt("heaviest_op", exp.heaviest_op);
}

}  // namespace

std::vector<int> TreeScheduleResult::HomeOf(int op_id) const {
  for (const auto& phase : phases) {
    std::vector<int> home = phase.schedule.HomeOf(op_id);
    if (!home.empty()) return home;
  }
  return {};
}

std::string TreeScheduleResult::ToString() const {
  std::string out = StrFormat("TreeSchedule(response=%.2fms, %zu phases)\n",
                              response_time, phases.size());
  for (const auto& p : phases) {
    out += StrFormat("  phase %d: %zu ops, makespan=%.2fms\n", p.phase,
                     p.ops.size(), p.makespan);
  }
  return out;
}

Result<Allotment> Allotment::Create(const OperatorTree& op_tree,
                                    const std::vector<OperatorCost>& costs,
                                    const CostParams& params,
                                    const MachineConfig& machine,
                                    const OverlapUsageModel& usage,
                                    const TreeScheduleOptions& options) {
  if (static_cast<int>(costs.size()) != op_tree.num_ops()) {
    return Status::InvalidArgument(
        StrFormat("costs size %zu != %d operators", costs.size(),
                  op_tree.num_ops()));
  }
  MRS_RETURN_IF_ERROR(params.Validate());
  MachineConfig config = machine;
  MRS_RETURN_IF_ERROR(config.Validate());
  if (options.policy == ParallelizationPolicy::kCoarseGrain &&
      options.granularity < 0) {
    return Status::InvalidArgument("granularity parameter f must be >= 0");
  }
  if (options.cache != nullptr &&
      !options.cache->CompatibleWith(params, usage.epsilon(),
                                     options.granularity,
                                     config.num_sites)) {
    return Status::InvalidArgument(
        "parallelize cache was built for a different scheduling context");
  }
  return Allotment(op_tree, costs, params, std::move(config), usage,
                   options);
}

Allotment::Allotment(const OperatorTree& op_tree,
                     const std::vector<OperatorCost>& costs,
                     const CostParams& params, MachineConfig config,
                     const OverlapUsageModel& usage,
                     const TreeScheduleOptions& options)
    : op_tree_(&op_tree),
      costs_(&costs),
      params_(params),
      config_(std::move(config)),
      usage_(usage),
      options_(options) {
  for (const auto& op : op_tree_->ops()) {
    if (op.blocking_input >= 0) {
      dependent_of_[op.blocking_input] = op.id;
    }
  }
}

OperatorCost Allotment::SizingCost(int oid) const {
  const OperatorCost& own = (*costs_)[static_cast<size_t>(oid)];
  if (options_.build_degree == BuildDegreePolicy::kJoinAware) {
    auto it = dependent_of_.find(oid);
    if (it != dependent_of_.end()) {
      OperatorCost joint = own;
      const OperatorCost& dep = (*costs_)[static_cast<size_t>(it->second)];
      joint.processing += dep.processing;
      joint.data_bytes += dep.data_bytes;
      return joint;
    }
  }
  return own;
}

Result<ParallelizedOp> Allotment::Rooted(const OperatorCost& cost,
                                         std::vector<int> home) const {
  return options_.cache != nullptr
             ? options_.cache->Rooted(cost, std::move(home))
             : ParallelizeRooted(cost, params_, usage_, std::move(home),
                                 config_.num_sites);
}

Result<ParallelizedOp> Allotment::Floating(const OperatorCost& cost) const {
  return options_.cache != nullptr
             ? options_.cache->Floating(cost)
             : ParallelizeFloating(cost, params_, usage_,
                                   options_.granularity, config_.num_sites);
}

Result<ParallelizedOp> Allotment::AtDegree(const OperatorCost& cost,
                                           int degree) const {
  return options_.cache != nullptr
             ? options_.cache->AtDegree(cost, degree)
             : ParallelizeAtDegree(cost, params_, usage_, degree,
                                   config_.num_sites);
}

Result<std::vector<ParallelizedOp>> Allotment::Parallelize(
    const std::vector<int>& op_ids,
    const std::unordered_map<int, std::vector<int>>& home_of,
    TraceSink* trace, int span_index, SpanTimer* degree_span) const {
  std::vector<ParallelizedOp> ops;
  std::vector<int> floating_ids;
  ops.reserve(op_ids.size());
  for (int oid : op_ids) {
    const int producer = op_tree_->op(oid).blocking_input;
    if (producer >= 0) {
      // Constraint B: the op executes where its blocking producer
      // materialized its state (hash table / sorted runs / group table);
      // that producer was placed before it.
      auto home_it = home_of.find(producer);
      if (home_it == home_of.end() || home_it->second.empty()) {
        return Status::Internal(StrFormat(
            "blocking producer op%d of op%d not placed before it", producer,
            oid));
      }
      auto rooted = Rooted((*costs_)[static_cast<size_t>(oid)],
                           home_it->second);
      if (!rooted.ok()) return rooted.status();
      ops.push_back(std::move(rooted).value());
      if (degree_span != nullptr) {
        degree_span->Attr(StrFormat("op%d.degree", oid),
                          StrFormat("%d:rooted", ops.back().degree));
      }
    } else {
      floating_ids.push_back(oid);
    }
  }

  // Fix the parallelization of the floating operators. The *degree* is
  // derived from the sizing cost (join-aware for builds); the clones are
  // split from the operator's own cost.
  if (options_.policy == ParallelizationPolicy::kMalleable) {
    std::vector<OperatorCost> sizing;
    sizing.reserve(floating_ids.size());
    for (int oid : floating_ids) sizing.push_back(SizingCost(oid));
    SpanTimer malleable_span(trace, "malleable_select", span_index);
    auto selection = SelectMalleableParallelization(sizing, ops, params_,
                                                    usage_, config_.num_sites);
    if (!selection.ok()) return selection.status();
    if (malleable_span.active()) {
      malleable_span.AttrInt("floating_ops",
                             static_cast<int64_t>(floating_ids.size()));
      malleable_span.AttrDouble("lower_bound_ms", selection->lower_bound);
    }
    malleable_span.End();
    for (size_t i = 0; i < floating_ids.size(); ++i) {
      auto op = AtDegree((*costs_)[static_cast<size_t>(floating_ids[i])],
                         selection->degrees[i]);
      if (!op.ok()) return op.status();
      ops.push_back(std::move(op).value());
      if (degree_span != nullptr) {
        degree_span->Attr(StrFormat("op%d.degree", floating_ids[i]),
                          StrFormat("%d:malleable", selection->degrees[i]));
      }
    }
    return ops;
  }
  for (int oid : floating_ids) {
    const OperatorCost& own = (*costs_)[static_cast<size_t>(oid)];
    // Joint sizing only changes the cost for builds under kJoinAware; for
    // every other floating op SizingCost returns `own` unchanged.
    const bool joint_sizing =
        options_.build_degree == BuildDegreePolicy::kJoinAware &&
        HasBlockingDependent(oid);
    auto sized = Floating(joint_sizing ? SizingCost(oid) : own);
    if (!sized.ok()) return sized.status();
    const int degree = sized->degree;
    if (joint_sizing || options_.cache != nullptr) {
      auto op = AtDegree(own, degree);
      if (!op.ok()) return op.status();
      ops.push_back(std::move(op).value());
    } else {
      // Sizing cost == own cost and no cache: ParallelizeFloating already
      // returned MakeParallelized(own, degree) — reusing it is
      // bit-identical to re-splitting via ParallelizeAtDegree. (With a
      // cache we still call AtDegree so memoization sees both keys.)
      ops.push_back(std::move(sized).value());
    }
    if (degree_span != nullptr) {
      // Chosen degree vs. the Prop. 4.1 cap the CG_f rule derived it from
      // (on the sizing cost: join-aware for builds).
      const OperatorCost sc = SizingCost(oid);
      const int n_max = MaxCoarseGrainDegree(
          sc.ProcessingArea(), sc.data_bytes, params_, options_.granularity);
      degree_span->Attr(StrFormat("op%d.degree", oid),
                        StrFormat("%d/nmax=%d", degree, n_max));
    }
  }
  return ops;
}

Result<PhasePlanner> PhasePlanner::Create(const OperatorTree& op_tree,
                                          const TaskTree& task_tree,
                                          const std::vector<OperatorCost>& costs,
                                          const CostParams& params,
                                          const MachineConfig& machine,
                                          const OverlapUsageModel& usage,
                                          const TreeScheduleOptions& options) {
  MRS_ASSIGN_OR_RETURN(
      Allotment allotment,
      Allotment::Create(op_tree, costs, params, machine, usage, options));
  return PhasePlanner(std::move(allotment), task_tree);
}

int PhasePlanner::num_phases() const { return task_tree_->num_phases(); }

Status PhasePlanner::Prepare() {
  const TreeScheduleOptions& options = allotment_.options();
  if (options.policy != ParallelizationPolicy::kCoarseGrain ||
      options.cache == nullptr) {
    return Status::OK();
  }
  // A rooted op's home is its producer's placement, one site per clone,
  // so its split depends only on the producer's degree.
  std::unordered_map<int, int> degree_of;
  for (int k = 0; k < num_phases(); ++k) {
    for (int oid : task_tree_->PhaseOps(k)) {
      const int producer = allotment_.op_tree().op(oid).blocking_input;
      int degree = 0;
      if (producer >= 0) {
        auto it = degree_of.find(producer);
        if (it == degree_of.end()) continue;  // NextPhase reports it
        degree = it->second;
      } else {
        auto sized = allotment_.Floating(allotment_.SizingCost(oid));
        if (!sized.ok()) return sized.status();
        degree = sized->degree;
      }
      auto split = allotment_.AtDegree(
          allotment_.costs()[static_cast<size_t>(oid)], degree);
      if (!split.ok()) return split.status();
      degree_of[oid] = degree;
    }
  }
  return Status::OK();
}

Result<PhaseSchedule> PhasePlanner::NextPhase(
    const std::vector<WorkVector>* base_load) {
  if (done()) {
    return Status::FailedPrecondition(
        StrFormat("all %d phases already scheduled", num_phases()));
  }
  const int k = next_;
  const TreeScheduleOptions& options = allotment_.options();
  TraceSink* const trace = options.trace;
  ParallelizeCache* const cache = options.cache;

  SpanTimer par_span(trace, "parallelize", k);
  uint64_t phase_hits0 = 0;
  uint64_t phase_misses0 = 0;
  if (par_span.active() && cache != nullptr) {
    phase_hits0 = cache->counter().hits();
    phase_misses0 = cache->counter().misses();
  }
  auto ops = allotment_.Parallelize(task_tree_->PhaseOps(k), home_of_, trace,
                                    k, par_span.active() ? &par_span : nullptr);
  if (!ops.ok()) return ops.status();
  if (par_span.active() && cache != nullptr) {
    par_span.AttrInt(
        "cache.hits",
        static_cast<int64_t>(cache->counter().hits() - phase_hits0));
    par_span.AttrInt(
        "cache.misses",
        static_cast<int64_t>(cache->counter().misses() - phase_misses0));
  }
  par_span.End();

  SpanTimer sched_span(trace, "operator_schedule", k);
  OperatorScheduleOptions list_options = options.list_options;
  // A per-call base load (the online scheduler's phase-instant residual)
  // overrides a static one carried in the options (the list engine's
  // tree_guard threading list_options.base_load through).
  if (base_load != nullptr) list_options.base_load = base_load;
  if (sched_span.active()) {
    // Which site-selection rule ran: the indexed least-loaded search or
    // the first-allowable ablation.
    sched_span.Attr("placement",
                    list_options.site_choice == SiteChoice::kLeastLoaded
                        ? "indexed"
                        : "first_allowable");
  }
  const MachineConfig& config = allotment_.machine();
  auto schedule =
      OperatorSchedule(*ops, config.num_sites, config.dims, list_options);
  if (!schedule.ok()) return schedule.status();
  PhaseSchedule phase{k, std::move(ops).value(), std::move(schedule).value(),
                      0.0};
  phase.makespan = phase.schedule.Makespan();
  if (sched_span.active()) {
    AnnotateOperatorScheduleSpan(&sched_span, phase, config);
  }
  sched_span.End();

  // Record homes for constraint B lookups in later phases.
  for (const auto& op : phase.ops) {
    home_of_[op.op_id] = phase.schedule.HomeOf(op.op_id);
  }
  ++next_;
  return phase;
}

Result<TreeScheduleResult> TreeSchedule(const OperatorTree& op_tree,
                                        const TaskTree& task_tree,
                                        const std::vector<OperatorCost>& costs,
                                        const CostParams& params,
                                        const MachineConfig& machine,
                                        const OverlapUsageModel& usage,
                                        const TreeScheduleOptions& options) {
  auto planner = PhasePlanner::Create(op_tree, task_tree, costs, params,
                                      machine, usage, options);
  if (!planner.ok()) return planner.status();

  TraceSink* const trace = options.trace;
  SpanTimer call_span(trace, "tree_schedule");
  uint64_t call_hits0 = 0;
  uint64_t call_misses0 = 0;
  if (trace != nullptr && options.cache != nullptr) {
    call_hits0 = options.cache->counter().hits();
    call_misses0 = options.cache->counter().misses();
  }

  TreeScheduleResult result;
  result.phases.reserve(static_cast<size_t>(task_tree.num_phases()));
  while (!planner->done()) {
    auto phase = planner->NextPhase();
    if (!phase.ok()) return phase.status();
    result.response_time += phase->makespan;
    result.phases.push_back(std::move(phase).value());
  }
  if (call_span.active()) {
    call_span.AttrInt("phases", static_cast<int64_t>(result.phases.size()));
    call_span.AttrDouble("response_time_ms", result.response_time);
    if (options.cache != nullptr) {
      call_span.AttrInt(
          "cache.hits",
          static_cast<int64_t>(options.cache->counter().hits() - call_hits0));
      call_span.AttrInt("cache.misses",
                        static_cast<int64_t>(options.cache->counter().misses() -
                                             call_misses0));
    }
  }
  return result;
}

}  // namespace mrs
