#ifndef MRS_TESTS_ORACLES_ONLINE_PROJECTION_ORACLE_H_
#define MRS_TESTS_ORACLES_ONLINE_PROJECTION_ORACLE_H_

#include <vector>

#include "common/result.h"
#include "core/schedule.h"
#include "online/online_scheduler.h"

namespace mrs {
namespace oracle {

// The contended-phase projection that ProjectContendedPhase replaced,
// kept verbatim as the differential oracle: every resident clone on a
// touched site (with its remaining work) and every new clone becomes a
// synthetic degree-1 operator of one union Schedule, and the fluid
// simulator's optimal-stretch discipline times it. `resident` holds no
// clone finished by now_ms + 1e-9; `dims` is the machine's d. The
// production function must match every field bit for bit.
Result<PhaseProjection> ProjectContendedPhase(
    const std::vector<ClonePlacement>& placements,
    const std::vector<std::vector<ResidentClone>>& resident, double now_ms,
    int dims);

}  // namespace oracle
}  // namespace mrs

#endif  // MRS_TESTS_ORACLES_ONLINE_PROJECTION_ORACLE_H_
