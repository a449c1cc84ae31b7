#ifndef MRS_TESTS_ORACLES_VIRTUAL_TIMELINE_ORACLE_H_
#define MRS_TESTS_ORACLES_VIRTUAL_TIMELINE_ORACLE_H_

#include "common/status.h"
#include "core/schedule.h"
#include "exec/fluid_simulator.h"

namespace mrs {
namespace oracle {

// An independent realization of the optimal-stretch fluid discipline with
// staggered arrivals -- the same eq. (2)-on-remaining-work math as
// FluidSimulator::SimulateTimed, written without SiteTimeline: residents
// carry a single remaining *fraction* (remaining work = frac * W,
// remaining stand-alone time = frac * T_seq) instead of mutated work
// vectors, and rebasing on an arrival multiplies fractions. The
// differential suite holds the shared sweep (and so the execute
// backend's timeline) against it within tolerance.
Status ComputeVirtualTimeline(const Schedule& schedule, PhaseSimulation* sim);

}  // namespace oracle
}  // namespace mrs

#endif  // MRS_TESTS_ORACLES_VIRTUAL_TIMELINE_ORACLE_H_
