#include "oracles/online_projection_oracle.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/fluid_simulator.h"

namespace mrs {
namespace oracle {

namespace {

/// Fraction of a clone's work still ahead of it at time t under the A3
/// uniform-usage assumption (linear decay over [start, finish]).
double RemainingFraction(double start, double finish, double t) {
  const double span = finish - start;
  if (span <= 0) return 0.0;
  const double frac = (finish - t) / span;
  return std::min(1.0, std::max(0.0, frac));
}

}  // namespace

Result<PhaseProjection> ProjectContendedPhase(
    const std::vector<ClonePlacement>& placements,
    const std::vector<std::vector<ResidentClone>>& resident, double now_ms,
    int dims) {
  // Union schedule over the touched sites: each resident reservation
  // (with its *remaining* work) and each new clone becomes a synthetic
  // degree-1 operator, residents first, new clones in placement order.
  // The eq. (2)-exact fluid model over this union predicts when the new
  // clones complete under contention.
  const int num_sites = static_cast<int>(resident.size());
  std::vector<char> touched(static_cast<size_t>(num_sites), 0);
  for (const ClonePlacement& p : placements) {
    touched[static_cast<size_t>(p.site)] = 1;
  }
  Schedule union_sched(num_sites, dims);
  std::vector<double> serial(static_cast<size_t>(num_sites), 0.0);
  int next_synth_id = 0;
  const auto add_clone = [&](const WorkVector& work, double t_seq, int site) {
    ParallelizedOp synth;
    synth.op_id = next_synth_id++;
    synth.degree = 1;
    synth.clones = {work};
    synth.t_seq = {t_seq};
    synth.t_par = t_seq;
    const Status placed = union_sched.Place(synth, 0, site);
    MRS_CHECK(placed.ok()) << placed.ToString();
    serial[static_cast<size_t>(site)] += t_seq;
  };
  int resident_count = 0;
  for (int s = 0; s < num_sites; ++s) {
    if (!touched[static_cast<size_t>(s)]) continue;
    for (const ResidentClone& c : resident[static_cast<size_t>(s)]) {
      const double frac = RemainingFraction(c.start, c.finish, now_ms);
      add_clone(c.work * frac, c.t_seq * frac, s);
      ++resident_count;
    }
  }
  for (const ClonePlacement& p : placements) {
    add_clone(p.work, p.t_seq, p.site);
  }

  const FluidSimulator simulator(SharingPolicy::kOptimalStretch);
  auto sim = simulator.SimulatePhase(union_sched);
  if (!sim.ok()) return sim.status();

  PhaseProjection out;
  out.residents = resident_count;
  for (size_t i = 0; i < placements.size(); ++i) {
    const double fin =
        sim->clone_finish[static_cast<size_t>(resident_count) + i];
    out.barrier_ms = std::max(out.barrier_ms, fin);
    out.clone_finish.push_back(fin);
  }
  for (int s = 0; s < num_sites; ++s) {
    if (touched[static_cast<size_t>(s)]) {
      out.serial_bound_ms =
          std::max(out.serial_bound_ms, serial[static_cast<size_t>(s)]);
    }
  }
  return out;
}

}  // namespace oracle
}  // namespace mrs
