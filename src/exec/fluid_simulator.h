#ifndef MRS_EXEC_FLUID_SIMULATOR_H_
#define MRS_EXEC_FLUID_SIMULATOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/schedule.h"
#include "core/tree_schedule.h"

namespace mrs {

/// How a site's preemptable resources are time-shared among clones.
enum class SharingPolicy {
  /// The model-optimal "squeeze" discipline behind eq. (2): every clone is
  /// stretched so all co-scheduled clones finish together at the earliest
  /// feasible instant — a clone never runs faster than its stand-alone
  /// T_seq, and no resource is oversubscribed. With this policy the
  /// simulated site time *operationally realizes* eq. (2).
  kOptimalStretch,
  /// Naive round-robin time slicing: all active clones slow down by the
  /// same factor, the peak resource oversubscription. Finishing clones
  /// release capacity event by event. Pessimistic; exists to quantify how
  /// much the paper's model assumes of the execution engine.
  kUniformSlowdown,
};

/// Utilization of one site over one simulated phase.
struct SiteUtilization {
  /// Busy time per resource dimension (integral of consumption rate).
  WorkVector busy;
  /// Completion time of the site's last clone (0 if the site idles).
  double finish = 0.0;
};

/// Result of simulating one phase (one Schedule).
struct PhaseSimulation {
  double makespan = 0.0;
  std::vector<SiteUtilization> sites;
  /// Completion time of every clone, parallel to Schedule::placements().
  std::vector<double> clone_finish;
};

/// Result of simulating a full phased (TREESCHEDULE-style) execution.
struct SimulationResult {
  std::vector<PhaseSimulation> phases;
  double response_time = 0.0;
  /// Machine-wide average utilization per resource dimension in [0, 1]:
  /// busy site-milliseconds over P * response_time.
  WorkVector average_utilization;

  std::string ToString() const;
};

/// Event-driven fluid simulator for the paper's multi-dimensional
/// preemptable-resource sites. Each clone is a fluid job demanding
/// capacity on every resource simultaneously, in proportion to its work
/// vector (assumption A3: uniform usage over its lifetime); sites have
/// unit capacity per resource and zero time-sharing overhead (A2).
///
/// This is the operational counterpart of the analytic cost model: under
/// SharingPolicy::kOptimalStretch each site steps through the same
/// SiteTimeline sweep (core/site_timeline.h) as Schedule::SiteFinish, so
/// the simulated makespan is the eq. (3) value Schedule::Makespan()
/// reports, while kUniformSlowdown shows the price of a naive engine.
class FluidSimulator {
 public:
  explicit FluidSimulator(
      SharingPolicy policy = SharingPolicy::kOptimalStretch)
      : policy_(policy) {}

  /// Simulates one phase with every clone starting at time 0 on its site:
  /// SimulateTimed with each ClonePlacement::start read as 0. For an
  /// aligned schedule (every start 0) the two are the same computation.
  Result<PhaseSimulation> SimulatePhase(const Schedule& schedule) const;

  /// Simulates one schedule honoring per-clone start times
  /// (ClonePlacement::start, as produced by LISTSCHEDULE via
  /// Schedule::PlaceAt): a clone joins its site's resident set at its
  /// start instant and the sharing policy is applied to the time-varying
  /// set. Under kOptimalStretch the per-site finish equals
  /// Schedule::SiteFinish. Rejects a non-finite or negative start and a
  /// clone whose T_seq violates max(W) <= T_seq <= sum(W).
  Result<PhaseSimulation> SimulateTimed(const Schedule& schedule) const;

  /// Simulates a phased plan execution: phases run back to back with a
  /// synchronization barrier between them.
  Result<SimulationResult> Simulate(const TreeScheduleResult& plan) const;

 private:
  /// Validates and simulates every site; `honor_starts` false reads every
  /// start as 0 (SimulatePhase).
  Result<PhaseSimulation> SimulateSites(const Schedule& schedule,
                                        bool honor_starts) const;

  SharingPolicy policy_;
};

}  // namespace mrs

#endif  // MRS_EXEC_FLUID_SIMULATOR_H_
