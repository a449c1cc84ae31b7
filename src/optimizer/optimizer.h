#ifndef MRS_OPTIMIZER_OPTIMIZER_H_
#define MRS_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/result.h"
#include "exec/trace.h"
#include "optimizer/makespan_cost.h"
#include "optimizer/plan_enumerator.h"
#include "plan/plan_tree.h"
#include "plan/query_graph.h"

namespace mrs {

/// Knobs of the scheduler-in-the-loop join-order search.
struct OptimizerOptions {
  /// Granularity parameter f of the CG_f condition.
  double granularity = 0.7;
  ParallelizationPolicy policy = ParallelizationPolicy::kCoarseGrain;
  BuildDegreePolicy build_degree = BuildDegreePolicy::kJoinAware;
  /// Which engine prices each candidate plan.
  OptimizerEngine engine = OptimizerEngine::kTree;
  /// Disks per site (machine.dims must be >= 2 + num_disks).
  int num_disks = 1;
  /// Cost-model mode (e.g. a Calibrator's fitted scales).
  CostModelOptions cost_options;
  /// Search worker threads (clamped to >= 1). The result is byte-identical
  /// across thread counts.
  int num_threads = 1;
  /// Lower-bound pruning: MakespanCostFn's bounds against an incumbent
  /// that starts at the greedy seed's makespan and drops to the best
  /// schedule found between pricing batches. Pruning never changes the
  /// returned plan or makespan — only how many schedules are paid.
  /// prune=false is the exhaustive baseline.
  bool prune = true;
  /// Hard cap on memoized subplan candidates; exceeding it fails with
  /// InvalidArgument ("plan space too large") instead of thrashing.
  uint64_t max_candidates = 4000000;
  /// Metrics registry for the opt.* counters (null = process global).
  MetricsRegistry* metrics = nullptr;
  /// Optional trace sink: spans opt_seed / opt_dp / opt_search plus a
  /// whole-call `optimize` span carrying the counters.
  TraceSink* trace = nullptr;
};

/// Search counters. All except cache_{hits,misses} are deterministic for a
/// fixed option set regardless of thread count; the cache counters depend
/// on racing double-computes and are informational only.
struct OptimizerStats {
  uint64_t plans_considered = 0;  ///< complete plans formed at the root
  uint64_t plans_scheduled = 0;   ///< complete plans fully scheduled
  uint64_t plans_pruned = 0;      ///< complete plans skipped via lower bound
  uint64_t subplans_considered = 0;  ///< memo candidates generated
  uint64_t subplans_kept = 0;        ///< memo candidates kept
  uint64_t subplans_pruned = 0;      ///< memo candidates pruned
  uint64_t cache_hits = 0;    ///< shared parallelize-cache hits
  uint64_t cache_misses = 0;  ///< shared parallelize-cache misses
  int num_subsets = 0;  ///< proper connected subsets memoized
  int num_slices = 0;   ///< root slices (search-space partitions)
};

/// The optimum and how it was found.
struct OptimizeResult {
  /// The winning plan (never null on success), finalized over the input
  /// catalog.
  std::unique_ptr<PlanTree> plan;
  /// Its scheduled makespan under the configured engine — bit-equal to
  /// the exhaustive baseline's optimum by construction.
  double makespan = 0.0;
  /// Stable identity of the winning plan: (root slice << 40) | slice-local
  /// combination index, counted before pruning, so ids are comparable
  /// between pruned and exhaustive runs of the same graph. Ties in
  /// makespan resolve to the lowest id.
  uint64_t plan_id = 0;
  /// Makespan of the greedy connectivity-ordered seed plan (the first
  /// pruning incumbent; always >= makespan).
  double seed_makespan = 0.0;
  OptimizerStats stats;

  /// Option echo for reports.
  int num_relations = 0;
  int num_joins = 0;
  OptimizerEngine engine = OptimizerEngine::kTree;
  bool prune = true;

  /// Deterministic multi-line report (no thread count, no timings, no
  /// cache counters — byte-identical across thread counts; golden-pinned).
  std::string Explain() const;
};

/// Finds the bushy cross-product-free join order of `graph` minimizing the
/// *scheduler's own makespan* (TreeSchedule response time or ListSchedule
/// makespan), searching the DP memo of PlanEnumerator in parallel:
///
///   1. a greedy connectivity-ordered seed plan is scheduled to obtain the
///      pruning incumbent;
///   2. the memo of proper connected subsets is filled bottom-up, one
///      thread-pool job per subset with a barrier between sizes; with
///      pruning on, a candidate is dropped when its O(1) compositional
///      lower bound (SubplanBound: work/packing, operator floors, and the
///      build blocking chain, including the scans the subplan does not
///      cover) already exceeds the seed — a *fixed* incumbent, so the
///      memo is identical for every thread count;
///   3. every complete plan (the root join of two memo candidates that
///      split the relations along a root slice — a connected root
///      partition, Trummer & Koch's plan-space partition) gets the
///      compositional bound in O(1); those within the seed form the
///      frontier, 16-byte (bound, plan_id) pairs sorted by (bound,
///      plan_id). Workers claim fixed-size units of this work from an
///      atomic index, so no slice is one long job;
///   4. the frontier is priced best-first in fixed-size batches, workers
///      claiming plans within a batch: the full prepared-plan bound
///      (MakespanCostFn::LowerBound), then the scheduler, both gated by
///      the incumbent as it stood when the batch began. The incumbent
///      drops between batches, and the search stops at the first
///      frontier bound above it. The argmin by (makespan, plan_id) is the
///      winner.
///
/// All candidate evaluation is pure and no batch boundary depends on the
/// thread count, so the returned plan, makespan, and all non-cache
/// counters are byte-identical across `num_threads`.
Result<OptimizeResult> OptimizeJoinOrder(const Catalog& catalog,
                                         const QueryGraph& graph,
                                         const CostParams& params,
                                         const MachineConfig& machine,
                                         const OverlapUsageModel& usage,
                                         const OptimizerOptions& options = {});

/// The exhaustive baseline: the same search with pruning disabled — every
/// candidate is memoized and every complete plan is scheduled. Agrees with
/// OptimizeJoinOrder bit-exactly on makespan (the differential tests pin
/// this); pays the full plan space.
Result<OptimizeResult> ExhaustivePlanSearch(const Catalog& catalog,
                                            const QueryGraph& graph,
                                            const CostParams& params,
                                            const MachineConfig& machine,
                                            const OverlapUsageModel& usage,
                                            OptimizerOptions options = {});

}  // namespace mrs

#endif  // MRS_OPTIMIZER_OPTIMIZER_H_
