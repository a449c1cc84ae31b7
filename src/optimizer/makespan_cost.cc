#include "optimizer/makespan_cost.h"

#include <algorithm>
#include <utility>

#include "common/str_util.h"
#include "cost/parallelize.h"

namespace mrs {

MakespanCostFn::MakespanCostFn(const Catalog* catalog,
                               const CostParams& params,
                               MachineConfig machine,
                               const OverlapUsageModel& usage,
                               const MakespanCostOptions& options)
    : catalog_(catalog),
      params_(params),
      machine_(std::move(machine)),
      usage_(usage),
      options_(options),
      cost_model_(params, machine_.dims, options.num_disks,
                  options.cost_options) {}

Result<MakespanCostFn> MakespanCostFn::Create(
    const Catalog* catalog, const CostParams& params,
    const MachineConfig& machine, const OverlapUsageModel& usage,
    const MakespanCostOptions& options) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("MakespanCostFn: null catalog");
  }
  if (catalog->num_relations() > 64) {
    return Status::InvalidArgument(
        StrFormat("MakespanCostFn: catalog has %d relations; subset masks "
                  "support at most 64",
                  catalog->num_relations()));
  }
  MRS_RETURN_IF_ERROR(params.Validate());
  MachineConfig config = machine;
  MRS_RETURN_IF_ERROR(config.Validate());
  if (options.num_disks < 1) {
    return Status::InvalidArgument(
        StrFormat("MakespanCostFn: num_disks must be >= 1, got %d",
                  options.num_disks));
  }
  if (config.dims < 2 + options.num_disks) {
    return Status::InvalidArgument(
        StrFormat("MakespanCostFn: machine dims %d too small for %d disks "
                  "(need >= %d)",
                  config.dims, options.num_disks, 2 + options.num_disks));
  }
  MakespanCostFn fn(catalog, params, std::move(config), usage, options);

  // Precompute each relation's zero-communication scan work. The cost
  // model charges a scan's consumer only through data_bytes, so this
  // vector is exactly the scan's processing vector in *any* plan — the
  // fact that makes the outside-subset work augmentation in LowerBound
  // sound.
  fn.scan_work_.reserve(static_cast<size_t>(catalog->num_relations()));
  for (int r = 0; r < catalog->num_relations(); ++r) {
    MRS_ASSIGN_OR_RETURN(Relation rel, catalog->GetRelation(r));
    PhysicalOp scan;
    scan.id = 0;
    scan.kind = OperatorKind::kScan;
    scan.input_tuples = rel.num_tuples;
    scan.output_tuples = rel.num_tuples;
    scan.layout = rel.layout;
    MRS_ASSIGN_OR_RETURN(OperatorCost cost, fn.cost_model_.Cost(scan));
    fn.scan_work_.push_back(std::move(cost.processing));
  }
  return fn;
}

Result<PreparedPlan> MakespanCostFn::Prepare(const PlanTree& plan) const {
  PreparedPlan p;
  MRS_ASSIGN_OR_RETURN(p.ops, OperatorTree::FromPlan(plan));
  MRS_ASSIGN_OR_RETURN(p.tasks, TaskTree::FromOperatorTree(&p.ops));
  MRS_ASSIGN_OR_RETURN(p.costs, cost_model_.CostAll(p.ops));
  p.total_processing = WorkVector(static_cast<size_t>(machine_.dims));
  for (const OperatorCost& cost : p.costs) {
    p.total_processing += cost.processing;
  }
  return p;
}

double MakespanCostFn::LowerBound(const PreparedPlan& p,
                                  uint64_t relations_mask) const {
  const double sites = static_cast<double>(machine_.num_sites);
  // Work bound over the *whole* query: the subplan's own processing plus
  // the scan work of every relation it does not cover — work any
  // completion of this subplan must still perform. l(.) is subadditive
  // and every site's time is at least the length of its load, so this
  // holds for any schedule under either engine. It subsumes OPTBOUND's
  // work bound bit for bit: total_processing is summed in the same order,
  // the uncovered scans only add non-negative terms, and Length is a max.
  WorkVector total = p.total_processing;
  for (int r = 0; r < catalog_->num_relations(); ++r) {
    if ((relations_mask >> r) & 1) continue;
    total += scan_work_[static_cast<size_t>(r)];
  }
  double bound = total.Length() / sites;

  // Per-operator floor: an operator runs at *some* degree N in [1, P] and
  // lasts at least T_par(op, N) >= min_n T_par(op, n); T_par is unimodal,
  // so the min sits at OptimalDegree. OPTBOUND's CG_f-capped critical
  // path is deliberately NOT used here: the kJoinAware build policy
  // legally sizes a build by the *combined* join cost and so exceeds the
  // build's own CG_f degree — the capped path can overshoot the very
  // schedules being priced.
  std::vector<double> op_floor(p.costs.size(), 0.0);
  for (size_t i = 0; i < p.costs.size(); ++i) {
    op_floor[i] = OperatorFloor(p.costs[i]);
  }

  if (options_.engine == OptimizerEngine::kTree) {
    // Synchronized phases execute back to back, and each phase lasts at
    // least as long as its slowest operator's floor and its packing bound
    // l(phase work)/P. The subplan's ALAP phase partition embeds into
    // every completion's at a constant phase shift (non-root tasks keep
    // their parent chains; the root pipeline only gains operators and
    // moves later), with every per-phase term only growing — so the sum
    // bounds the response time of every completion.
    double phase_sum = 0.0;
    for (int k = 0; k < p.tasks.num_phases(); ++k) {
      double slowest = 0.0;
      WorkVector phase_work(static_cast<size_t>(machine_.dims));
      for (int tid : p.tasks.phase(k)) {
        for (int oid : p.tasks.task(tid).ops) {
          slowest = std::max(slowest, op_floor[static_cast<size_t>(oid)]);
          phase_work += p.costs[static_cast<size_t>(oid)].processing;
        }
      }
      phase_sum += std::max(slowest, phase_work.Length() / sites);
    }
    bound = std::max(bound, phase_sum);
  } else {
    // Barrier-free list schedules overlap phases, so only the slowest
    // single operator is a safe structural floor.
    for (double f : op_floor) bound = std::max(bound, f);
  }
  return bound;
}

double MakespanCostFn::OperatorFloor(const OperatorCost& cost) const {
  const int n_opt = OptimalDegree(cost, params_, usage_, machine_.num_sites);
  return ParallelTime(cost, n_opt, params_, usage_);
}

Result<SubplanBound> MakespanCostFn::LeafBound(int relation) const {
  MRS_ASSIGN_OR_RETURN(Relation rel, catalog_->GetRelation(relation));
  PhysicalOp scan;
  scan.id = 0;
  scan.kind = OperatorKind::kScan;
  scan.input_tuples = rel.num_tuples;
  scan.output_tuples = rel.num_tuples;
  scan.layout = rel.layout;
  MRS_ASSIGN_OR_RETURN(OperatorCost cost, cost_model_.Cost(scan));
  SubplanBound b;
  b.out_tuples = rel.num_tuples;
  b.layout = rel.layout;
  b.work = std::move(cost.processing);
  b.root_start = 0.0;
  b.root_floor = OperatorFloor(cost);
  b.max_floor = b.root_floor;
  return b;
}

Result<SubplanBound> MakespanCostFn::CombineBound(
    const SubplanBound& outer, const SubplanBound& inner) const {
  // The root join's two operators, exactly as OperatorTree::FromPlan
  // would emit them for `outer JOIN inner` (the root probe has no
  // consumer; one only appears in a completion and only adds
  // communication, so these costs never exceed the in-context ones).
  PhysicalOp build;
  build.id = 0;
  build.kind = OperatorKind::kBuild;
  build.input_tuples = inner.out_tuples;
  build.output_tuples = 0;
  build.table_tuples = inner.out_tuples;
  build.layout = inner.layout;
  MRS_ASSIGN_OR_RETURN(OperatorCost build_cost, cost_model_.Cost(build));

  PhysicalOp probe;
  probe.id = 1;
  probe.kind = OperatorKind::kProbe;
  probe.input_tuples = outer.out_tuples;
  probe.output_tuples = KeyJoinResultTuples(outer.out_tuples,
                                            inner.out_tuples);
  probe.layout = outer.layout;
  MRS_ASSIGN_OR_RETURN(OperatorCost probe_cost, cost_model_.Cost(probe));

  const double build_floor = OperatorFloor(build_cost);
  const double probe_floor = OperatorFloor(probe_cost);

  SubplanBound b;
  b.out_tuples = probe.output_tuples;
  b.layout = outer.layout;
  b.work = outer.work;
  b.work += inner.work;
  b.work += build_cost.processing;
  b.work += probe_cost.processing;
  // The build joins the inner's root pipeline (its task floor grows to
  // the slower of the two); that task must finish before the root task —
  // the outer's root pipeline merged with the probe — can start.
  const double build_done =
      inner.root_start + std::max(inner.root_floor, build_floor);
  b.root_start = std::max(outer.root_start, build_done);
  b.root_floor = std::max(outer.root_floor, probe_floor);
  b.max_floor = std::max({outer.max_floor, inner.max_floor, build_floor,
                          probe_floor});
  return b;
}

double MakespanCostFn::CheapLowerBound(const SubplanBound& b,
                                       uint64_t relations_mask) const {
  WorkVector total = b.work;
  for (int r = 0; r < catalog_->num_relations(); ++r) {
    if ((relations_mask >> r) & 1) continue;
    total += scan_work_[static_cast<size_t>(r)];
  }
  double bound = total.Length() / static_cast<double>(machine_.num_sites);
  bound = std::max(bound, b.max_floor);
  if (options_.engine == OptimizerEngine::kTree) {
    // Synchronized phases make the build blocking chain additive; see
    // LowerBound's phase-sum term for the embedding argument.
    bound = std::max(bound, b.root_start + b.root_floor);
  }
  return bound;
}

Result<double> MakespanCostFn::Makespan(const PreparedPlan& p) const {
  TreeScheduleOptions tree;
  tree.granularity = options_.granularity;
  tree.policy = options_.policy;
  tree.build_degree = options_.build_degree;
  tree.cache = options_.cache;
  if (options_.engine == OptimizerEngine::kList) {
    ListScheduleOptions opts;
    opts.tree = tree;
    MRS_ASSIGN_OR_RETURN(
        ListScheduleResult result,
        ListSchedule(p.ops, p.tasks, p.costs, params_, machine_, usage_,
                     opts));
    return result.makespan;
  }
  MRS_ASSIGN_OR_RETURN(
      TreeScheduleResult result,
      TreeSchedule(p.ops, p.tasks, p.costs, params_, machine_, usage_, tree));
  return result.response_time;
}

}  // namespace mrs
