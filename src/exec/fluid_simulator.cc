#include "exec/fluid_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/str_util.h"
#include "core/site_timeline.h"
#include "resource/usage_model.h"

namespace mrs {

namespace {

constexpr double kTimeTol = 1e-9;

struct ActiveClone {
  int placement_index;
  WorkVector remaining;     // remaining work per resource
  double remaining_own;     // remaining stand-alone time
};

/// Simulates one site under naive uniform time slicing with staggered
/// arrivals: every active clone progresses at the same speed factor
/// sigma = min(1, 1/rho), where rho is the peak resource oversubscription
/// of the active set's stand-alone rates. The event horizon is the earlier
/// of the next completion (min own / sigma) and the next arrival; each
/// completion releases capacity and sigma is recomputed.
void SimulateSiteUniform(const std::vector<SiteArrival>& arrivals,
                         SiteUtilization* util,
                         std::vector<double>* finish_times) {
  double now = 0.0;
  WorkVector rate_sum(util->busy.dim());  // hoisted per-event accumulator
  std::vector<ActiveClone> active;
  size_t i = 0;
  const size_t n = arrivals.size();
  active.reserve(n);
  const auto admit = [&] {
    while (i < n && arrivals[i].start <= now) {
      active.push_back(
          ActiveClone{arrivals[i].id, *arrivals[i].work, arrivals[i].t_seq});
      ++i;
    }
  };
  while (i < n || !active.empty()) {
    if (active.empty()) {
      now = std::max(now, arrivals[i].start);
      admit();
    }
    // Rates r_c[i] = W_c[i] / T_seq_c are constant over a clone's life
    // (uniform usage, A3); remaining work = r * remaining_own.
    rate_sum.SetZero();
    for (const auto& c : active) {
      if (c.remaining_own <= kTimeTol) continue;
      // Division, not reciprocal-multiply: keeps the event series (and the
      // golden schedules derived from it) bit-identical.
      for (size_t r = 0; r < rate_sum.dim(); ++r) {
        rate_sum[r] += c.remaining[r] / c.remaining_own;
      }
    }
    const double rho = rate_sum.Length();
    const double sigma = rho > 1.0 ? 1.0 / rho : 1.0;

    double min_own = std::numeric_limits<double>::infinity();
    for (const auto& c : active) {
      min_own = std::min(min_own, c.remaining_own);
    }
    const double next_arrival =
        i < n ? arrivals[i].start : std::numeric_limits<double>::infinity();
    const double dt = std::min(min_own / sigma, next_arrival - now);

    // Advance all clones by dt wall time (sigma*dt own time). The
    // consumed = remaining * fraction temporary is fused into two
    // in-place scaled adds: busy[i] += r[i]*f and r[i] += r[i]*(-f) are
    // bit-identical to the add/subtract of the materialized temporary
    // (IEEE sign flip is exact).
    for (auto& c : active) {
      const double own_progress = sigma * dt;
      const double fraction =
          c.remaining_own > 0 ? own_progress / c.remaining_own : 1.0;
      const double f = std::min(fraction, 1.0);
      util->busy.AddScaled(c.remaining, f);
      c.remaining.AddScaled(c.remaining, -f);
      c.remaining_own -= own_progress;
    }
    now += dt;
    for (auto it = active.begin(); it != active.end();) {
      if (it->remaining_own <= kTimeTol) {
        (*finish_times)[static_cast<size_t>(it->placement_index)] = now;
        it = active.erase(it);
      } else {
        ++it;
      }
    }
    admit();
  }
  util->finish = now;
}

}  // namespace

Result<PhaseSimulation> FluidSimulator::SimulatePhase(
    const Schedule& schedule) const {
  return SimulateSites(schedule, /*honor_starts=*/false);
}

Result<PhaseSimulation> FluidSimulator::SimulateTimed(
    const Schedule& schedule) const {
  return SimulateSites(schedule, /*honor_starts=*/true);
}

Result<PhaseSimulation> FluidSimulator::SimulateSites(
    const Schedule& schedule, bool honor_starts) const {
  PhaseSimulation sim;
  const size_t dims = static_cast<size_t>(schedule.dims());
  sim.sites.assign(static_cast<size_t>(schedule.num_sites()),
                   SiteUtilization{WorkVector(dims), 0.0});
  sim.clone_finish.assign(schedule.placements().size(), 0.0);

  std::vector<SiteArrival> arrivals;
  for (int j = 0; j < schedule.num_sites(); ++j) {
    arrivals.clear();
    arrivals.reserve(schedule.SitePlacements(j).size());
    for (int p : schedule.SitePlacements(j)) {
      const ClonePlacement& placement =
          schedule.placements()[static_cast<size_t>(p)];
      if (honor_starts &&
          (!std::isfinite(placement.start) || placement.start < 0.0)) {
        return Status::InvalidArgument(
            StrFormat("clone of op%d starts at %g, not a finite time >= 0",
                      placement.op_id, placement.start));
      }
      if (!SequentialTimeWithinBounds(placement.work, placement.t_seq,
                                      1e-6)) {
        return Status::InvalidArgument(
            StrFormat("clone of op%d violates max <= T_seq <= sum",
                      placement.op_id));
      }
      arrivals.push_back(SiteArrival{honor_starts ? placement.start : 0.0, p,
                                     &placement.work, placement.t_seq});
    }
    if (honor_starts) SortByArrival(&arrivals);
    SiteUtilization* util = &sim.sites[static_cast<size_t>(j)];
    if (policy_ == SharingPolicy::kOptimalStretch) {
      util->finish = SweepSite(arrivals, dims, &sim.clone_finish, &util->busy);
    } else {
      SimulateSiteUniform(arrivals, util, &sim.clone_finish);
    }
    sim.makespan = std::max(sim.makespan, util->finish);
  }
  return sim;
}

Result<SimulationResult> FluidSimulator::Simulate(
    const TreeScheduleResult& plan) const {
  if (plan.phases.empty()) {
    // A zero-phase plan carries no machine description at all (no site
    // count, no resource dimensionality), so any result we fabricated
    // here would have made-up dimensions.
    return Status::InvalidArgument("plan has no phases to simulate");
  }
  SimulationResult result;
  int dims = 1;
  int num_sites = 1;
  for (const auto& phase : plan.phases) {
    auto sim = SimulatePhase(phase.schedule);
    if (!sim.ok()) return sim.status();
    dims = phase.schedule.dims();
    num_sites = phase.schedule.num_sites();
    result.response_time += sim->makespan;
    result.phases.push_back(std::move(sim).value());
  }
  // Machine-wide utilization.
  WorkVector busy(static_cast<size_t>(dims));
  for (const auto& phase : result.phases) {
    for (const auto& site : phase.sites) busy += site.busy;
  }
  result.average_utilization = WorkVector(static_cast<size_t>(dims));
  if (result.response_time > 0.0) {
    result.average_utilization =
        busy * (1.0 / (static_cast<double>(num_sites) * result.response_time));
  }
  return result;
}

std::string SimulationResult::ToString() const {
  std::string out =
      StrFormat("Simulation(response=%.2fms, %zu phases, util=%s)\n",
                response_time, phases.size(),
                average_utilization.ToString().c_str());
  for (size_t k = 0; k < phases.size(); ++k) {
    out += StrFormat("  phase %zu: makespan=%.2fms\n", k, phases[k].makespan);
  }
  return out;
}

}  // namespace mrs
