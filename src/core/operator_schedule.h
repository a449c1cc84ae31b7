#ifndef MRS_CORE_OPERATOR_SCHEDULE_H_
#define MRS_CORE_OPERATOR_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/schedule.h"
#include "cost/parallelize.h"

namespace mrs {

/// Ordering of the floating-clone list (the paper's rule is
/// kDecreasingLength; the alternatives exist for the list-order ablation).
enum class ListOrder {
  kDecreasingLength,  ///< non-increasing l(w) — the paper's rule
  kIncreasingLength,
  kInputOrder,
  kRandom,
};

/// Site-selection rule (the paper's rule is kLeastLoaded; kFirstAllowable
/// exists for the ablation).
enum class SiteChoice {
  kLeastLoaded,     ///< site minimizing l(work(s)) among allowable sites
  kFirstAllowable,  ///< lowest-numbered allowable site
};

struct OperatorScheduleOptions {
  ListOrder order = ListOrder::kDecreasingLength;
  SiteChoice site_choice = SiteChoice::kLeastLoaded;
  /// Seed for ListOrder::kRandom.
  uint64_t shuffle_seed = 0;
  /// Residual per-site load from clones of *other* in-flight queries (the
  /// online scheduler's incremental variant: eq. (2)/(3) evaluated over
  /// the union of resident and new clones). When non-null it must hold
  /// exactly `num_sites` work vectors of dimensionality `dims`;
  /// least-loaded site selection then minimizes l(base[s] + work(s)).
  /// The returned Schedule still contains only the clones of `ops` —
  /// the base only biases placement. Null (the default) reproduces the
  /// paper's offline behavior exactly (an all-zero base is equivalent).
  const std::vector<WorkVector>* base_load = nullptr;
};

/// The paper's OPERATORSCHEDULE list scheduling heuristic (§5.3, Figure 3)
/// for a collection of concurrently executable (pipelined/independent)
/// operators whose degrees of parallelism are already fixed:
///
///   1. place the clones of every rooted operator at its home sites;
///   2. list the clones of all floating operators in non-increasing order
///      of their length l(w);
///   3. place each clone on the least-filled allowable site, i.e. the site
///      s with minimal l(work(s)) among sites hosting no other clone of
///      the same operator.
///
/// The resulting schedule satisfies constraints (A) and (B); its makespan
/// is within 2d+1 of the optimum for the given parallelization
/// (Theorem 5.1(a)) and within 2d(fd+1)+1 of the optimal CG_f schedule
/// (Theorem 5.1(b)).
///
/// Fails if any operator's degree exceeds `num_sites` or rooted homes are
/// malformed. Runs in O(M P (M + log P)) (Prop. 5.1); this implementation
/// is O(total_clones * (log P + degree)): least-loaded selection uses the
/// tournament tree of core/placement_index.h, whose ties break to the
/// lowest site index. The O(P) linear scan it replaced is kept as a test
/// oracle (tests/oracles/operator_schedule_oracle.h).
Result<Schedule> OperatorSchedule(const std::vector<ParallelizedOp>& ops,
                                  int num_sites, int dims,
                                  const OperatorScheduleOptions& options = {});

}  // namespace mrs

#endif  // MRS_CORE_OPERATOR_SCHEDULE_H_
