#ifndef MRS_CORE_MEMORY_AWARE_H_
#define MRS_CORE_MEMORY_AWARE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/tree_schedule.h"

namespace mrs {

/// Parameters of the memory extension. The paper's assumption A1 gives
/// every operator unlimited memory and §8 names the non-preemptable
/// memory dimension as an open problem; this module implements the
/// natural first step: hash tables occupy site memory from the end of
/// their build phase until their probe completes, and phases whose
/// resident tables would overflow a site are *split* (tasks deferred into
/// an extra synchronized subphase, in the spirit of Hsiao et al.'s
/// serialization), trading parallelism for feasibility.
struct MemoryOptions {
  /// Usable memory per site, in bytes.
  double site_memory_bytes = 64.0 * 1024 * 1024;
  /// Hash-table size as a multiple of the inner relation's bytes
  /// (directory + bucket overhead).
  double hash_table_overhead = 1.2;
};

/// One scheduled subphase of a memory-aware execution.
struct MemoryPhase {
  /// Index of the originating task-tree phase.
  int task_phase = -1;
  /// Subphase within the task phase (0 when no split happened).
  int subphase = 0;
  std::vector<ParallelizedOp> ops;
  Schedule schedule;
  double makespan = 0.0;
  /// Peak resident memory over all sites at the end of this subphase.
  double peak_site_memory = 0.0;
};

struct MemoryAwareResult {
  std::vector<MemoryPhase> phases;
  double response_time = 0.0;
  /// Number of extra synchronization points introduced by memory pressure
  /// (0 means assumption A1 was never violated and the schedule matches
  /// plain TREESCHEDULE's structure).
  int phase_splits = 0;
  /// Peak resident memory across the whole execution (bytes, one site).
  double peak_site_memory = 0.0;

  /// Placement of an operator across subphases (cf.
  /// TreeScheduleResult::HomeOf).
  std::vector<int> HomeOf(int op_id) const;

  std::string ToString() const;
};

/// TREESCHEDULE extended with non-preemptable memory:
///
///  * a build's hash table (inner bytes * overhead) is divided evenly
///    among its home sites and stays resident until its probe's phase
///    completes;
///  * the per-phase list scheduler only places a build clone on a site
///    with enough free memory; builds are given at least the degree
///    needed for their per-clone share to fit on a site;
///  * when a phase's builds cannot all be placed, the unplaceable tasks
///    are deferred into an additional synchronized subphase (memory
///    frees as earlier probes complete);
///  * fails with FailedPrecondition when even an empty machine cannot
///    hold a single table (per-site memory too small at maximum degree).
///
/// Degrees come from the TREESCHEDULE Allotment, which validates the
/// inputs like TreeSchedule. Of the TreeScheduleOptions it honours
/// `granularity`, `build_degree` and `cache`; it places with its own
/// memory-constrained least-loaded rule and records no spans, so
/// `list_options` and `trace` are ignored. `policy` must be kCoarseGrain
/// (InvalidArgument otherwise): the memory floor raises a build's CG_f
/// degree, which a malleable selection does not have.
Result<MemoryAwareResult> MemoryAwareTreeSchedule(
    const OperatorTree& op_tree, const TaskTree& task_tree,
    const std::vector<OperatorCost>& costs, const CostParams& params,
    const MachineConfig& machine, const OverlapUsageModel& usage,
    const TreeScheduleOptions& options = {},
    const MemoryOptions& memory = {});

}  // namespace mrs

#endif  // MRS_CORE_MEMORY_AWARE_H_
