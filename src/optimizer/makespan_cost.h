#ifndef MRS_OPTIMIZER_MAKESPAN_COST_H_
#define MRS_OPTIMIZER_MAKESPAN_COST_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "cost/cost_model.h"
#include "cost/parallelize_cache.h"
#include "plan/operator_tree.h"
#include "plan/plan_tree.h"
#include "plan/task_tree.h"
#include "resource/machine.h"
#include "resource/usage_model.h"

namespace mrs {

/// Which scheduling engine prices a candidate plan.
enum class OptimizerEngine {
  kTree,  ///< TREESCHEDULE response time (synchronized phases)
  kList,  ///< barrier-free LISTSCHEDULE makespan (tree_guard on)
};

struct MakespanCostOptions {
  /// Granularity parameter f of the CG_f condition.
  double granularity = 0.7;
  ParallelizationPolicy policy = ParallelizationPolicy::kCoarseGrain;
  BuildDegreePolicy build_degree = BuildDegreePolicy::kJoinAware;
  OptimizerEngine engine = OptimizerEngine::kTree;
  /// Disks per site (widens the work-vector layout, see CostModel).
  int num_disks = 1;
  /// Cost-model mode (e.g. a Calibrator's fitted per-dimension scales).
  CostModelOptions cost_options;
  /// Shared memoized parallelization cache (not owned, may be null). The
  /// cache is thread-safe and its entries are pure functions of the
  /// operator signature, so one cache serves all search workers — the
  /// optimizer's subplan-schedule memoization rides on it.
  ParallelizeCache* cache = nullptr;
};

/// A plan expanded and costed once, ready for repeated bound/schedule
/// evaluation. TaskTree holds operator ids only, so the struct is movable.
struct PreparedPlan {
  OperatorTree ops;
  TaskTree tasks;
  std::vector<OperatorCost> costs;
  /// Per-dimension sum of all operators' zero-communication work.
  WorkVector total_processing{1};
};

/// Compositional pruning aggregates of a memoized subplan candidate:
/// everything needed to lower-bound the candidate — and any join of two
/// candidates — *without* materializing a PlanTree or costing the whole
/// operator tree. CombineBound() prices only the two root operators of
/// the join (an O(1) step given the children's aggregates), which is what
/// lets the search gate the vast majority of candidates for a fraction of
/// the cost of Prepare().
struct SubplanBound {
  /// Root output cardinality (key-join sizing, as PlanTree::AddJoin).
  int64_t out_tuples = 0;
  /// Root output layout (a join inherits its outer child's layout).
  TupleLayout layout;
  /// Sum of every operator's zero-communication processing work.
  WorkVector work{1};
  /// Lower bound on when the root task can start: the blocking chain of
  /// hash builds below it (tree engine only; see LowerBound's phase-sum).
  double root_start = 0.0;
  /// Slowest-operator floor within the root pipeline.
  double root_floor = 0.0;
  /// Slowest-operator floor across the whole subplan.
  double max_floor = 0.0;
};

/// The optimizer's cost function: the scheduler's own makespan, plus a
/// lower bound used to prune partial plans before a full schedule is
/// paid. The bound keeps OPTBOUND's packing idea (src/core/opt_bound.h)
/// but computes it itself, over the whole query's work.
///
/// The lower bound is sound for *partial* plans (subplans over a relation
/// subset) because every term is monotone under embedding into any
/// completion: (i) packing — a scan's processing vector depends only on
/// the relation (its consumer affects communication bytes, never the
/// zero-communication work), so l(subplan work + uncovered scan work)/P
/// never exceeds the completion's work bound, and l(.) subadditivity
/// makes that a bound on any schedule; (ii) operator floors — an operator
/// runs at some degree N in [1, P] and lasts at least
/// min_n T_par(op, n) = T_par(op, OptimalDegree); (iii) tree engine only
/// — synchronized phases run back to back and the subplan's ALAP phase
/// partition maps into the completion's with per-phase terms only
/// growing, so the per-phase sum of max(slowest floor, l(phase)/P) bounds
/// the completion's response time. OPTBOUND's CG_f-capped critical path
/// is *not* a valid pruning bound here: kJoinAware builds legally exceed
/// their own CG_f degree, so that path can overshoot the priced schedule.
class MakespanCostFn {
 public:
  /// Validates the machine config and precomputes the per-relation scan
  /// work vectors. `catalog` must outlive the cost function.
  static Result<MakespanCostFn> Create(const Catalog* catalog,
                                       const CostParams& params,
                                       const MachineConfig& machine,
                                       const OverlapUsageModel& usage,
                                       const MakespanCostOptions& options);

  /// Expands, groups, and costs `plan` (which may cover any subset of the
  /// catalog's relations).
  Result<PreparedPlan> Prepare(const PlanTree& plan) const;

  /// Lower bound on the makespan of any complete plan containing `p` as a
  /// subplan. `relations_mask` holds the catalog relation ids `p` covers
  /// (bit r = relation r); scan work of the relations outside the mask is
  /// folded into the work bound.
  double LowerBound(const PreparedPlan& p, uint64_t relations_mask) const;

  /// The scheduled makespan of a complete plan under the configured
  /// engine. Deterministic: equal inputs give bit-equal results, with or
  /// without the shared cache.
  Result<double> Makespan(const PreparedPlan& p) const;

  /// Pruning aggregates of a single-relation (leaf) candidate.
  Result<SubplanBound> LeafBound(int relation) const;

  /// Aggregates of `outer JOIN inner`: costs only the root build and
  /// probe operators (mirroring OperatorTree::FromPlan, consumer-less
  /// root — a completion only adds communication, keeping every term a
  /// valid lower bound) and folds the children's aggregates in O(1).
  Result<SubplanBound> CombineBound(const SubplanBound& outer,
                                    const SubplanBound& inner) const;

  /// Cheap counterpart of LowerBound() over the aggregates alone: the
  /// augmented work bound plus the structural floors (the build blocking
  /// chain for the tree engine, the slowest single operator for both).
  /// Never exceeds the makespan of any completion of the candidate.
  double CheapLowerBound(const SubplanBound& b, uint64_t relations_mask) const;

  const MachineConfig& machine() const { return machine_; }
  const MakespanCostOptions& options() const { return options_; }

 private:
  MakespanCostFn(const Catalog* catalog, const CostParams& params,
                 MachineConfig machine, const OverlapUsageModel& usage,
                 const MakespanCostOptions& options);

  /// min_n T_par(cost, n): the cheapest stand-alone time any degree in
  /// [1, P] admits (T_par is unimodal with its min at OptimalDegree).
  double OperatorFloor(const OperatorCost& cost) const;

  const Catalog* catalog_;
  CostParams params_;
  MachineConfig machine_;
  OverlapUsageModel usage_;
  MakespanCostOptions options_;
  CostModel cost_model_;
  /// Zero-communication scan work per catalog relation id.
  std::vector<WorkVector> scan_work_;
};

}  // namespace mrs

#endif  // MRS_OPTIMIZER_MAKESPAN_COST_H_
