#ifndef MRS_TESTS_ORACLES_OPERATOR_SCHEDULE_ORACLE_H_
#define MRS_TESTS_ORACLES_OPERATOR_SCHEDULE_ORACLE_H_

#include <vector>

#include "common/result.h"
#include "core/operator_schedule.h"
#include "core/schedule.h"
#include "cost/parallelize.h"

namespace mrs {
namespace oracle {

// OPERATORSCHEDULE (paper §5.3, Fig. 3) with the reference O(P) site
// scan per clone: walk every site in ascending order, skip those already
// hosting a clone of the operator (constraint A), and keep the first
// strict-< minimum of l(base[s] + work(s)) — or, under
// SiteChoice::kFirstAllowable, the first allowable site. Honors every
// OperatorScheduleOptions field. The production function, which answers
// the same question with the tournament tree of core/placement_index.h,
// must match every placement bit for bit. Inputs must be valid (degrees
// within num_sites, base_load sized num_sites x dims).
Result<Schedule> LinearScanOperatorSchedule(
    const std::vector<ParallelizedOp>& ops, int num_sites, int dims,
    const OperatorScheduleOptions& options = {});

}  // namespace oracle
}  // namespace mrs

#endif  // MRS_TESTS_ORACLES_OPERATOR_SCHEDULE_ORACLE_H_
