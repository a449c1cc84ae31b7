#include "core/list_schedule.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "core/malleable.h"
#include "core/site_timeline.h"
#include "exec/explain.h"

namespace mrs {

namespace {

/// The cost an operator's degree is derived from (see
/// BuildDegreePolicy::kJoinAware; identical to TREESCHEDULE's rule).
OperatorCost SizingCost(int oid, const std::vector<OperatorCost>& costs,
                        const std::unordered_map<int, int>& dependent_of,
                        BuildDegreePolicy build_degree) {
  const OperatorCost& own = costs[static_cast<size_t>(oid)];
  if (build_degree == BuildDegreePolicy::kJoinAware) {
    auto it = dependent_of.find(oid);
    if (it != dependent_of.end()) {
      OperatorCost joint = own;
      const OperatorCost& dep = costs[static_cast<size_t>(it->second)];
      joint.processing += dep.processing;
      joint.data_bytes += dep.data_bytes;
      return joint;
    }
  }
  return own;
}

/// Replays a TREESCHEDULE result on the shared timeline: phase k's clones
/// all start at the sum of the earlier phase makespans. Every site's last
/// wave then completes by the next barrier, so the evaluated makespan
/// equals the tree's response time — the guard's worst case is exactly
/// TREESCHEDULE.
ListScheduleResult AlignedFallback(const TreeScheduleResult& tree,
                                   const TaskTree& task_tree, int num_sites,
                                   int dims) {
  ListScheduleResult r;
  r.schedule = Schedule(num_sites, dims);
  r.used_tree_fallback = true;
  r.rounds = static_cast<int>(tree.phases.size());
  r.tasks.resize(static_cast<size_t>(task_tree.num_tasks()));
  for (int tid = 0; tid < task_tree.num_tasks(); ++tid) {
    r.tasks[static_cast<size_t>(tid)].task = tid;
  }
  std::unordered_map<int, int> op_task;
  for (const QueryTask& task : task_tree.tasks()) {
    for (int oid : task.ops) op_task[oid] = task.id;
  }

  double t = 0.0;
  for (const PhaseSchedule& phase : tree.phases) {
    std::unordered_map<int, const ParallelizedOp*> by_id;
    for (const ParallelizedOp& op : phase.ops) by_id[op.op_id] = &op;
    r.schedule.ReserveFor(phase.ops);
    for (const ClonePlacement& c : phase.schedule.placements()) {
      const Status placed =
          r.schedule.PlaceAt(*by_id.at(c.op_id), c.clone_idx, c.site, t);
      MRS_CHECK(placed.ok()) << placed.ToString();
    }
    for (int tid : task_tree.phase(phase.phase)) {
      r.tasks[static_cast<size_t>(tid)].start = t;
    }
    r.ops.insert(r.ops.end(), phase.ops.begin(), phase.ops.end());
    t += phase.makespan;
  }
  r.clone_finish = r.schedule.CloneFinishTimes();
  r.makespan = r.schedule.Makespan();
  for (size_t p = 0; p < r.clone_finish.size(); ++p) {
    ListTaskInterval& interval = r.tasks[static_cast<size_t>(
        op_task.at(r.schedule.placements()[p].op_id))];
    interval.finish = std::max(interval.finish, r.clone_finish[p]);
  }
  // eq. (3) diagnosis: the overall critical site is the last phase's
  // critical site (earlier phases complete by their barrier).
  if (!tree.phases.empty()) {
    const PhaseExplanation exp = ExplainPhase(tree.phases.back());
    r.critical_site = exp.critical_site;
    r.load_bound = exp.load_bound;
    r.critical_resource = exp.critical_resource;
  }
  return r;
}

/// The greedy virtual-time event loop (steps 1-4 of the header comment),
/// without either guard. `pipeline` enables the
/// rate-matched, stage-ordered round described at
/// ListScheduleOptions::pipeline; `trace` is the sink for round spans
/// (null for the shadow baseline runs the guards make).
Result<ListScheduleResult> GreedyListSchedule(
    const OperatorTree& op_tree, const TaskTree& task_tree,
    const std::vector<OperatorCost>& costs, const CostParams& params,
    const MachineConfig& config, const OverlapUsageModel& usage,
    const ListScheduleOptions& options, bool pipeline, TraceSink* trace) {
  const std::vector<WorkVector>* external = options.list_options.base_load;
  // Parallelization entry points, memoized when a cache is supplied
  // (identical to TREESCHEDULE's, so the two engines pick the same
  // degrees for the same readiness sets).
  auto par_rooted = [&](const OperatorCost& cost, std::vector<int> home) {
    return options.cache != nullptr
               ? options.cache->Rooted(cost, std::move(home))
               : ParallelizeRooted(cost, params, usage, std::move(home),
                                   config.num_sites);
  };
  auto par_floating = [&](const OperatorCost& cost) {
    return options.cache != nullptr
               ? options.cache->Floating(cost)
               : ParallelizeFloating(cost, params, usage, options.granularity,
                                     config.num_sites);
  };
  auto par_at_degree = [&](const OperatorCost& cost, int degree) {
    return options.cache != nullptr
               ? options.cache->AtDegree(cost, degree)
               : ParallelizeAtDegree(cost, params, usage, degree,
                                     config.num_sites);
  };

  std::unordered_map<int, int> dependent_of;
  for (const PhysicalOp& op : op_tree.ops()) {
    if (op.blocking_input >= 0) dependent_of[op.blocking_input] = op.id;
  }
  std::unordered_map<int, int> op_task;
  for (const QueryTask& task : task_tree.tasks()) {
    for (int oid : task.ops) op_task[oid] = task.id;
  }

  const int num_tasks = task_tree.num_tasks();
  ListScheduleResult result;
  result.schedule = Schedule(config.num_sites, config.dims);
  result.tasks.resize(static_cast<size_t>(num_tasks));
  std::vector<int> pending_children(static_cast<size_t>(num_tasks), 0);
  std::vector<int> outstanding_clones(static_cast<size_t>(num_tasks), 0);
  std::vector<int> ready;
  for (const QueryTask& task : task_tree.tasks()) {
    result.tasks[static_cast<size_t>(task.id)].task = task.id;
    pending_children[static_cast<size_t>(task.id)] =
        static_cast<int>(task.children.size());
    if (task.children.empty()) ready.push_back(task.id);
  }
  std::sort(ready.begin(), ready.end());

  // Each site's resident clones, keyed by placement index.
  std::vector<SiteTimeline> sites(
      static_cast<size_t>(config.num_sites),
      SiteTimeline(static_cast<size_t>(config.dims)));
  std::vector<int> placement_task;  // task of each placement
  std::unordered_map<int, std::vector<int>> home_of;
  double t = 0.0;
  int completed_tasks = 0;

  while (true) {
    if (!ready.empty()) {
      SpanTimer round_span(trace, "list_place", result.rounds);
      // 1. Parallelize the ready tasks' operators (TREESCHEDULE's rules,
      // applied to a readiness wave instead of a shelf).
      std::vector<int> op_ids;
      for (int tid : ready) {
        const QueryTask& task = task_tree.task(tid);
        op_ids.insert(op_ids.end(), task.ops.begin(), task.ops.end());
        result.tasks[static_cast<size_t>(tid)].start = t;
      }
      std::vector<ParallelizedOp> round_ops;
      std::vector<int> floating_ids;
      round_ops.reserve(op_ids.size());
      for (int oid : op_ids) {
        const PhysicalOp& op = op_tree.op(oid);
        const OperatorCost& cost = costs[static_cast<size_t>(oid)];
        if (op.blocking_input >= 0) {
          auto home_it = home_of.find(op.blocking_input);
          if (home_it == home_of.end() || home_it->second.empty()) {
            return Status::Internal(
                StrFormat("blocking producer op%d of op%d not scheduled in "
                          "an earlier round",
                          op.blocking_input, oid));
          }
          auto rooted = par_rooted(cost, home_it->second);
          if (!rooted.ok()) return rooted.status();
          round_ops.push_back(std::move(rooted).value());
        } else {
          floating_ids.push_back(oid);
        }
      }
      if (options.policy == ParallelizationPolicy::kMalleable) {
        std::vector<OperatorCost> sizing;
        sizing.reserve(floating_ids.size());
        for (int oid : floating_ids) {
          sizing.push_back(
              SizingCost(oid, costs, dependent_of, options.build_degree));
        }
        SpanTimer malleable_span(trace, "malleable_select", result.rounds);
        auto selection = SelectMalleableParallelization(
            sizing, round_ops, params, usage, config.num_sites);
        if (!selection.ok()) return selection.status();
        if (malleable_span.active()) {
          malleable_span.AttrInt("floating_ops",
                                 static_cast<int64_t>(floating_ids.size()));
          malleable_span.AttrDouble("lower_bound_ms", selection->lower_bound);
        }
        malleable_span.End();
        for (size_t i = 0; i < floating_ids.size(); ++i) {
          auto op = par_at_degree(costs[static_cast<size_t>(floating_ids[i])],
                                  selection->degrees[i]);
          if (!op.ok()) return op.status();
          round_ops.push_back(std::move(op).value());
        }
      } else {
        for (int oid : floating_ids) {
          const OperatorCost& own = costs[static_cast<size_t>(oid)];
          const bool joint_sizing =
              options.build_degree == BuildDegreePolicy::kJoinAware &&
              dependent_of.find(oid) != dependent_of.end();
          auto sized = par_floating(
              joint_sizing
                  ? SizingCost(oid, costs, dependent_of, options.build_degree)
                  : own);
          if (!sized.ok()) return sized.status();
          const int degree = sized->degree;
          if (joint_sizing || options.cache != nullptr) {
            auto op = par_at_degree(own, degree);
            if (!op.ok()) return op.status();
            round_ops.push_back(std::move(op).value());
          } else {
            round_ops.push_back(std::move(sized).value());
          }
        }
      }

      if (pipeline) {
        // Rate matching (arxiv 1403.7729's pipelined extension): a task is
        // a producer/consumer pipeline that drains at its bottleneck
        // stage's rate, so every floating stage without a blocking
        // dependent drops to RateMatchedDegree — fewer clones, the same
        // pipeline rate, and alpha*N startup plus per-site load shrink.
        // Stages *with* a blocking dependent keep their joint-sized
        // degree: constraint B roots the dependent at their home, so
        // narrowing them would throttle a later round, not this pipeline.
        std::unordered_map<int, double> bottleneck;
        for (const ParallelizedOp& op : round_ops) {
          double& b = bottleneck[op_task.at(op.op_id)];
          b = std::max(b, op.t_par);
        }
        for (ParallelizedOp& op : round_ops) {
          if (op.rooted || op.degree <= 1) continue;
          if (dependent_of.find(op.op_id) != dependent_of.end()) continue;
          const OperatorCost& own = costs[static_cast<size_t>(op.op_id)];
          const int matched =
              RateMatchedDegree(own, params, usage,
                                bottleneck.at(op_task.at(op.op_id)),
                                op.degree);
          if (matched == op.degree) continue;
          auto lowered = par_at_degree(own, matched);
          if (!lowered.ok()) return lowered.status();
          op = std::move(lowered).value();
        }
      }

      // 2. Residual load at instant t: rebase every mid-flight site and
      // sum its remaining work vectors. OPERATORSCHEDULE's least-loaded
      // rule then minimizes l(R_s(t) + work(s)) over the new clones.
      std::vector<WorkVector> residual(
          static_cast<size_t>(config.num_sites),
          WorkVector(static_cast<size_t>(config.dims)));
      for (int j = 0; j < config.num_sites; ++j) {
        SiteTimeline& s = sites[static_cast<size_t>(j)];
        // Rebase even idle sites: their `now` must reach t so a new wave
        // projects from the clones' arrival instant, not the old finish.
        s.AdvanceTo(t);
        for (const SiteTimeline::Resident& r : s.residents()) {
          residual[static_cast<size_t>(j)] += r.remaining;
        }
        // External co-resident load is static over the query's horizon.
        if (external != nullptr) {
          residual[static_cast<size_t>(j)] +=
              (*external)[static_cast<size_t>(j)];
        }
      }

      // Stage split: pipeline mode places producers before their
      // consumers (one stage per intra-task pipeline depth), so each
      // consumer's least-loaded pass sees its producers' freshly
      // committed load; plain mode is a single stage. Operator ids are
      // topological (a producer is created before its consumer), so one
      // ascending pass settles the depths.
      std::vector<std::vector<ParallelizedOp>> stages;
      if (pipeline) {
        std::unordered_map<int, int> stage_of;
        stage_of.reserve(round_ops.size());
        std::vector<int> order = op_ids;
        std::sort(order.begin(), order.end());
        int num_stages = 1;
        for (int oid : order) {
          int depth = 0;
          for (int d : op_tree.op(oid).data_inputs) {
            auto it = stage_of.find(d);
            if (it != stage_of.end()) depth = std::max(depth, it->second + 1);
          }
          stage_of[oid] = depth;
          num_stages = std::max(num_stages, depth + 1);
        }
        stages.resize(static_cast<size_t>(num_stages));
        for (ParallelizedOp& op : round_ops) {
          stages[static_cast<size_t>(stage_of.at(op.op_id))].push_back(
              std::move(op));
        }
      } else {
        stages.push_back(std::move(round_ops));
      }

      // 3. Place and commit the stages into the global timeline and the
      // per-site resident sets, then re-project the touched sites'
      // completions. Every clone of the round starts at t — a consumer
      // starts the instant its pipelined producer does.
      std::vector<char> touched(static_cast<size_t>(config.num_sites), 0);
      int64_t round_clones = 0;
      for (std::vector<ParallelizedOp>& stage_ops : stages) {
        OperatorScheduleOptions round_options = options.list_options;
        round_options.base_load = &residual;
        auto round_schedule = OperatorSchedule(stage_ops, config.num_sites,
                                               config.dims, round_options);
        if (!round_schedule.ok()) return round_schedule.status();
        std::unordered_map<int, const ParallelizedOp*> by_id;
        for (const ParallelizedOp& op : stage_ops) by_id[op.op_id] = &op;
        result.schedule.ReserveFor(stage_ops);
        for (const ClonePlacement& c : round_schedule->placements()) {
          MRS_RETURN_IF_ERROR(result.schedule.PlaceAt(*by_id.at(c.op_id),
                                                      c.clone_idx, c.site, t));
          const int tid = op_task.at(c.op_id);
          sites[static_cast<size_t>(c.site)].Arrive(
              static_cast<int>(placement_task.size()), c.work, c.t_seq);
          placement_task.push_back(tid);
          touched[static_cast<size_t>(c.site)] = 1;
          // The next stage's least-loaded pass must see this clone.
          residual[static_cast<size_t>(c.site)] += c.work;
          ++outstanding_clones[static_cast<size_t>(tid)];
        }
        for (const ParallelizedOp& op : stage_ops) {
          home_of[op.op_id] = round_schedule->HomeOf(op.op_id);
        }
        round_clones +=
            static_cast<int64_t>(round_schedule->placements().size());
        result.ops.insert(result.ops.end(),
                          std::make_move_iterator(stage_ops.begin()),
                          std::make_move_iterator(stage_ops.end()));
      }
      // Re-project only the sites that received clones: an untouched
      // site's completion is unchanged (re-deriving it from the rebased
      // remainders would only jitter the float).
      for (int j = 0; j < config.num_sites; ++j) {
        if (touched[static_cast<size_t>(j)]) {
          sites[static_cast<size_t>(j)].Project();
        }
      }
      if (round_span.active()) {
        round_span.AttrInt("tasks", static_cast<int64_t>(ready.size()));
        round_span.AttrInt("ops", static_cast<int64_t>(op_ids.size()));
        round_span.AttrInt("clones", round_clones);
        round_span.AttrDouble("virtual_time_ms", t);
        if (pipeline) {
          round_span.AttrInt("stages", static_cast<int64_t>(stages.size()));
        }
      }
      round_span.End();
      result.clone_finish.resize(
          static_cast<size_t>(result.schedule.num_placements()), 0.0);
      ++result.rounds;
      ready.clear();
    }

    // 4. Advance virtual time to the earliest site completion.
    double t_next = std::numeric_limits<double>::infinity();
    for (const SiteTimeline& s : sites) {
      if (!s.empty()) t_next = std::min(t_next, s.finish());
    }
    if (t_next == std::numeric_limits<double>::infinity()) break;
    for (SiteTimeline& s : sites) {
      if (s.empty() || s.finish() > t_next) continue;
      for (const SiteTimeline::Resident& r : s.residents()) {
        result.clone_finish[static_cast<size_t>(r.id)] = s.finish();
        const int task = placement_task[static_cast<size_t>(r.id)];
        int& left = outstanding_clones[static_cast<size_t>(task)];
        if (--left == 0) {
          result.tasks[static_cast<size_t>(task)].finish = s.finish();
          ++completed_tasks;
          const int parent = task_tree.task(task).parent;
          if (parent >= 0 &&
              --pending_children[static_cast<size_t>(parent)] == 0) {
            ready.push_back(parent);
          }
        }
      }
      s.Complete();
    }
    std::sort(ready.begin(), ready.end());
    t = t_next;
  }

  if (completed_tasks != num_tasks) {
    return Status::Internal(
        StrFormat("event loop stalled: %d of %d tasks completed",
                  completed_tasks, num_tasks));
  }
  result.makespan = t;
  // eq. (3) diagnosis from the critical site's last projection (every
  // site is idle now, so finish() is its last wave's completion); a site
  // that never received a clone was never projected.
  for (size_t j = 0; j < sites.size(); ++j) {
    if (result.critical_site < 0 ||
        sites[j].finish() >
            sites[static_cast<size_t>(result.critical_site)].finish()) {
      result.critical_site = static_cast<int>(j);
    }
  }
  if (result.critical_site >= 0 &&
      !result.schedule.SitePlacements(result.critical_site).empty()) {
    const SiteTimeline& s = sites[static_cast<size_t>(result.critical_site)];
    const WorkVector& load = s.load();
    result.load_bound = load.Length() >= s.longest_own();
    for (size_t i = 0; i < load.dim(); ++i) {
      if (result.critical_resource < 0 ||
          load[i] > load[static_cast<size_t>(result.critical_resource)]) {
        result.critical_resource = static_cast<int>(i);
      }
    }
  }
  return result;
}

/// Dominance guard: never worse than TREESCHEDULE (see
/// ListScheduleOptions::tree_guard).
Status ApplyTreeGuard(const OperatorTree& op_tree, const TaskTree& task_tree,
                      const std::vector<OperatorCost>& costs,
                      const CostParams& params, const MachineConfig& config,
                      const OverlapUsageModel& usage,
                      const ListScheduleOptions& options,
                      ListScheduleResult* result) {
  TreeScheduleOptions tree_options;
  tree_options.granularity = options.granularity;
  tree_options.policy = options.policy;
  tree_options.build_degree = options.build_degree;
  tree_options.list_options = options.list_options;
  tree_options.cache = options.cache;
  auto tree = TreeSchedule(op_tree, task_tree, costs, params, config, usage,
                           tree_options);
  if (!tree.ok()) return tree.status();
  result->tree_response_time = tree->response_time;
  if (result->makespan > tree->response_time) {
    ListScheduleResult fallback =
        AlignedFallback(*tree, task_tree, config.num_sites, config.dims);
    fallback.tree_response_time = tree->response_time;
    *result = std::move(fallback);
  }
  return Status::OK();
}

}  // namespace

std::string ListScheduleResult::ToString() const {
  const char* mode = ModeString();
  std::string out = StrFormat(
      "ListSchedule(makespan=%.2fms, %zu tasks, %d rounds, mode=%s)\n",
      makespan, tasks.size(), rounds, mode);
  for (const ListTaskInterval& t : tasks) {
    out += StrFormat("  task %d: [%.2f, %.2f]ms\n", t.task, t.start,
                     t.finish);
  }
  return out;
}

Result<ListScheduleResult> ListSchedule(const OperatorTree& op_tree,
                                        const TaskTree& task_tree,
                                        const std::vector<OperatorCost>& costs,
                                        const CostParams& params,
                                        const MachineConfig& machine,
                                        const OverlapUsageModel& usage,
                                        const ListScheduleOptions& options) {
  if (static_cast<int>(costs.size()) != op_tree.num_ops()) {
    return Status::InvalidArgument(
        StrFormat("costs size %zu != %d operators", costs.size(),
                  op_tree.num_ops()));
  }
  MRS_RETURN_IF_ERROR(params.Validate());
  MachineConfig config = machine;
  MRS_RETURN_IF_ERROR(config.Validate());
  if (options.cache != nullptr &&
      !options.cache->CompatibleWith(params, usage.epsilon(),
                                     options.granularity, config.num_sites)) {
    return Status::InvalidArgument(
        "parallelize cache was built for a different scheduling context");
  }
  if (task_tree.num_tasks() == 0) {
    return Status::InvalidArgument("task tree has no tasks to schedule");
  }
  const std::vector<WorkVector>* external = options.list_options.base_load;
  if (external != nullptr) {
    if (static_cast<int>(external->size()) != config.num_sites) {
      return Status::InvalidArgument(
          StrFormat("base_load has %zu sites, machine has %d",
                    external->size(), config.num_sites));
    }
    for (const WorkVector& w : *external) {
      if (static_cast<int>(w.dim()) != config.dims) {
        return Status::InvalidArgument(
            StrFormat("base_load vector has %zu dims, machine has %d",
                      w.dim(), config.dims));
      }
    }
  }

  TraceSink* const trace = options.trace;
  SpanTimer call_span(trace, "list_schedule");

  ListScheduleResult result;
  if (!options.pipeline) {
    auto plain = GreedyListSchedule(op_tree, task_tree, costs, params, config,
                                    usage, options,
                                    /*pipeline=*/false, trace);
    if (!plain.ok()) return plain.status();
    result = std::move(plain).value();
    if (options.tree_guard) {
      MRS_RETURN_IF_ERROR(ApplyTreeGuard(op_tree, task_tree, costs, params,
                                         config, usage, options,
                                         &result));
    }
  } else {
    auto piped = GreedyListSchedule(op_tree, task_tree, costs, params, config,
                                    usage, options,
                                    /*pipeline=*/true, trace);
    if (!piped.ok()) return piped.status();
    result = std::move(piped).value();
    result.pipelined = true;
    if (options.pipeline_guard) {
      // Shadow task-wave baseline (untraced, itself tree-guarded when
      // tree_guard is on): the LIST side of PIPELINED <= LIST <= TREE.
      auto plain = GreedyListSchedule(op_tree, task_tree, costs, params,
                                      config, usage, options,
                                      /*pipeline=*/false, /*trace=*/nullptr);
      if (!plain.ok()) return plain.status();
      ListScheduleResult baseline = std::move(plain).value();
      if (options.tree_guard) {
        MRS_RETURN_IF_ERROR(ApplyTreeGuard(op_tree, task_tree, costs, params,
                                           config, usage, options,
                                           &baseline));
      }
      result.tree_response_time = baseline.tree_response_time;
      result.list_makespan = baseline.makespan;
      if (result.makespan > baseline.makespan) {
        baseline.tree_response_time = result.tree_response_time;
        baseline.list_makespan = result.list_makespan;
        baseline.used_list_fallback = true;
        result = std::move(baseline);
      }
    } else if (options.tree_guard) {
      MRS_RETURN_IF_ERROR(ApplyTreeGuard(op_tree, task_tree, costs, params,
                                         config, usage, options,
                                         &result));
    }
  }

  if (call_span.active()) {
    call_span.AttrInt("tasks", static_cast<int64_t>(result.tasks.size()));
    call_span.AttrInt("rounds", static_cast<int64_t>(result.rounds));
    call_span.AttrDouble("makespan_ms", result.makespan);
    call_span.AttrInt("fallback", result.used_tree_fallback ? 1 : 0);
    call_span.AttrInt("critical_site", result.critical_site);
    if (result.load_bound && result.critical_resource >= 0) {
      const size_t r = static_cast<size_t>(result.critical_resource);
      call_span.Attr("eq3_binding",
                     StrFormat("congestion:%s",
                               r < config.resource_names.size()
                                   ? config.resource_names[r].c_str()
                                   : StrFormat("r%zu", r).c_str()));
    } else {
      call_span.Attr("eq3_binding", "t_seq");
    }
    if (options.pipeline) {
      call_span.AttrInt("pipelined", result.pipelined ? 1 : 0);
      call_span.AttrInt("list_fallback", result.used_list_fallback ? 1 : 0);
    }
  }
  return result;
}

}  // namespace mrs
