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
  if (exp.load_bound && exp.critical_resource >= 0) {
    const size_t r = static_cast<size_t>(exp.critical_resource);
    span->Attr("eq3_binding",
               StrFormat("congestion:%s",
                         r < config.resource_names.size()
                             ? config.resource_names[r].c_str()
                             : StrFormat("r%zu", r).c_str()));
  } else {
    span->Attr("eq3_binding", "t_seq");
  }
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

Result<PhasePlanner> PhasePlanner::Create(const OperatorTree& op_tree,
                                          const TaskTree& task_tree,
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
  return PhasePlanner(op_tree, task_tree, costs, params, std::move(config),
                      usage, options);
}

PhasePlanner::PhasePlanner(const OperatorTree& op_tree,
                           const TaskTree& task_tree,
                           const std::vector<OperatorCost>& costs,
                           const CostParams& params, MachineConfig config,
                           const OverlapUsageModel& usage,
                           const TreeScheduleOptions& options)
    : op_tree_(&op_tree),
      task_tree_(&task_tree),
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

int PhasePlanner::num_phases() const { return task_tree_->num_phases(); }

OperatorCost PhasePlanner::SizingCost(int oid) const {
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

Status PhasePlanner::Prepare() {
  ParallelizeCache* const cache = options_.cache;
  if (options_.policy != ParallelizationPolicy::kCoarseGrain ||
      cache == nullptr) {
    return Status::OK();
  }
  // A rooted op's home is its producer's placement, one site per clone,
  // so its split depends only on the producer's degree.
  std::unordered_map<int, int> degree_of;
  for (int k = 0; k < num_phases(); ++k) {
    for (int oid : task_tree_->PhaseOps(k)) {
      const int producer = op_tree_->op(oid).blocking_input;
      int degree = 0;
      if (producer >= 0) {
        auto it = degree_of.find(producer);
        if (it == degree_of.end()) continue;  // NextPhase reports it
        degree = it->second;
      } else {
        auto sized = cache->Floating(SizingCost(oid));
        if (!sized.ok()) return sized.status();
        degree = sized->degree;
      }
      auto split =
          cache->AtDegree((*costs_)[static_cast<size_t>(oid)], degree);
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
  TraceSink* const trace = options_.trace;

  // Parallelization entry points, memoized when a cache is supplied.
  auto par_rooted = [&](const OperatorCost& cost, std::vector<int> home) {
    return options_.cache != nullptr
               ? options_.cache->Rooted(cost, std::move(home))
               : ParallelizeRooted(cost, params_, usage_, std::move(home),
                                   config_.num_sites);
  };
  auto par_floating = [&](const OperatorCost& cost) {
    return options_.cache != nullptr
               ? options_.cache->Floating(cost)
               : ParallelizeFloating(cost, params_, usage_,
                                     options_.granularity, config_.num_sites);
  };
  auto par_at_degree = [&](const OperatorCost& cost, int degree) {
    return options_.cache != nullptr
               ? options_.cache->AtDegree(cost, degree)
               : ParallelizeAtDegree(cost, params_, usage_, degree,
                                     config_.num_sites);
  };

  SpanTimer par_span(trace, "parallelize", k);
  uint64_t phase_hits0 = 0;
  uint64_t phase_misses0 = 0;
  if (par_span.active() && options_.cache != nullptr) {
    phase_hits0 = options_.cache->counter().hits();
    phase_misses0 = options_.cache->counter().misses();
  }
  std::vector<int> op_ids = task_tree_->PhaseOps(k);
  std::vector<ParallelizedOp> ops;
  std::vector<int> floating_ids;
  ops.reserve(op_ids.size());
  for (int oid : op_ids) {
    const PhysicalOp& op = op_tree_->op(oid);
    const OperatorCost& cost = (*costs_)[static_cast<size_t>(oid)];
    if (op.blocking_input >= 0) {
      // Constraint B: the op executes where its blocking producer
      // materialized its state (hash table / sorted runs / group
      // table); that producer always ran in an earlier phase.
      auto home_it = home_of_.find(op.blocking_input);
      if (home_it == home_of_.end() || home_it->second.empty()) {
        return Status::Internal(
            StrFormat("blocking producer op%d of op%d not scheduled in "
                      "an earlier phase",
                      op.blocking_input, oid));
      }
      auto rooted = par_rooted(cost, home_it->second);
      if (!rooted.ok()) return rooted.status();
      ops.push_back(std::move(rooted).value());
      if (par_span.active()) {
        par_span.Attr(StrFormat("op%d.degree", oid),
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
    SpanTimer malleable_span(trace, "malleable_select", k);
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
      auto op = par_at_degree((*costs_)[static_cast<size_t>(floating_ids[i])],
                              selection->degrees[i]);
      if (!op.ok()) return op.status();
      ops.push_back(std::move(op).value());
      if (par_span.active()) {
        par_span.Attr(StrFormat("op%d.degree", floating_ids[i]),
                      StrFormat("%d:malleable", selection->degrees[i]));
      }
    }
  } else {
    for (int oid : floating_ids) {
      const OperatorCost& own = (*costs_)[static_cast<size_t>(oid)];
      // Joint sizing only changes the cost for builds under kJoinAware;
      // for every other floating op SizingCost returns `own` unchanged.
      const bool joint_sizing =
          options_.build_degree == BuildDegreePolicy::kJoinAware &&
          dependent_of_.find(oid) != dependent_of_.end();
      auto sized = par_floating(joint_sizing ? SizingCost(oid) : own);
      if (!sized.ok()) return sized.status();
      const int degree = sized->degree;
      if (joint_sizing || options_.cache != nullptr) {
        auto op = par_at_degree(own, degree);
        if (!op.ok()) return op.status();
        ops.push_back(std::move(op).value());
      } else {
        // Sizing cost == own cost and no cache: ParallelizeFloating
        // already returned MakeParallelized(own, degree) — reusing it is
        // bit-identical to re-splitting via ParallelizeAtDegree. (With a
        // cache we still call AtDegree so memoization sees both keys.)
        ops.push_back(std::move(sized).value());
      }
      if (par_span.active()) {
        // Chosen degree vs. the Prop. 4.1 cap the CG_f rule derived it
        // from (on the sizing cost: join-aware for builds).
        const OperatorCost sc = SizingCost(oid);
        const int n_max = MaxCoarseGrainDegree(
            sc.ProcessingArea(), sc.data_bytes, params_, options_.granularity);
        par_span.Attr(StrFormat("op%d.degree", oid),
                      StrFormat("%d/nmax=%d", degree, n_max));
      }
    }
  }
  if (par_span.active() && options_.cache != nullptr) {
    par_span.AttrInt(
        "cache.hits",
        static_cast<int64_t>(options_.cache->counter().hits() - phase_hits0));
    par_span.AttrInt("cache.misses",
                     static_cast<int64_t>(options_.cache->counter().misses() -
                                          phase_misses0));
  }
  par_span.End();

  SpanTimer sched_span(trace, "operator_schedule", k);
  OperatorScheduleOptions list_options = options_.list_options;
  // A per-call base load (the online scheduler's phase-instant residual)
  // overrides a static one carried in the options (the list engine's
  // tree_guard threading ListScheduleOptions::base_load through).
  if (base_load != nullptr) list_options.base_load = base_load;
  if (sched_span.active()) {
    // Which site-selection engine ran (see OperatorScheduleOptions::
    // placement_index) — the schedules are pinned byte-identical, so this
    // only matters for performance forensics.
    sched_span.Attr("placement",
                    list_options.placement_index &&
                            list_options.site_choice == SiteChoice::kLeastLoaded
                        ? "indexed"
                        : "linear");
  }
  auto schedule = OperatorSchedule(ops, config_.num_sites, config_.dims,
                                   list_options);
  if (!schedule.ok()) return schedule.status();
  PhaseSchedule phase{k, std::move(ops), std::move(schedule).value(), 0.0};
  phase.makespan = phase.schedule.Makespan();
  if (sched_span.active()) {
    AnnotateOperatorScheduleSpan(&sched_span, phase, config_);
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
