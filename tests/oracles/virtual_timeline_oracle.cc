#include "oracles/virtual_timeline_oracle.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/str_util.h"
#include "resource/usage_model.h"

namespace mrs {
namespace oracle {

Status ComputeVirtualTimeline(const Schedule& schedule, PhaseSimulation* sim) {
  const size_t dims = static_cast<size_t>(schedule.dims());
  sim->makespan = 0.0;
  sim->sites.assign(static_cast<size_t>(schedule.num_sites()),
                    SiteUtilization{WorkVector(dims), 0.0});
  sim->clone_finish.assign(schedule.placements().size(), 0.0);

  struct Entry {
    double start;
    int p;
  };
  struct Resident {
    int p;
    double frac;
  };
  const std::vector<ClonePlacement>& placements = schedule.placements();
  WorkVector load(dims);
  for (int j = 0; j < schedule.num_sites(); ++j) {
    std::vector<Entry> entries;
    entries.reserve(schedule.SitePlacements(j).size());
    for (int p : schedule.SitePlacements(j)) {
      const ClonePlacement& placement = placements[static_cast<size_t>(p)];
      if (placement.start < 0.0) {
        return Status::InvalidArgument(
            StrFormat("clone of op%d starts at %g < 0", placement.op_id,
                      placement.start));
      }
      if (!SequentialTimeWithinBounds(placement.work, placement.t_seq, 1e-6)) {
        return Status::InvalidArgument(
            StrFormat("clone of op%d violates max <= T_seq <= sum",
                      placement.op_id));
      }
      entries.push_back(Entry{placement.start, p});
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.start < b.start;
                     });

    SiteUtilization* util = &sim->sites[static_cast<size_t>(j)];
    std::vector<Resident> active;
    double now = 0.0;
    size_t i = 0;
    const size_t n = entries.size();
    while (i < n || !active.empty()) {
      if (active.empty()) {
        now = std::max(now, entries[i].start);
        while (i < n && entries[i].start <= now) {
          active.push_back(Resident{entries[i].p, 1.0});
          ++i;
        }
      }
      double longest_own = 0.0;
      load.SetZero();
      for (const Resident& r : active) {
        const ClonePlacement& pl = placements[static_cast<size_t>(r.p)];
        longest_own = std::max(longest_own, r.frac * pl.t_seq);
        load.AddScaled(pl.work, r.frac);
      }
      const double t_fin = now + std::max(longest_own, load.Length());
      const double next_arrival =
          i < n ? entries[i].start : std::numeric_limits<double>::infinity();
      if (next_arrival < t_fin) {
        const double keep = (t_fin - next_arrival) / (t_fin - now);
        for (Resident& r : active) {
          const ClonePlacement& pl = placements[static_cast<size_t>(r.p)];
          util->busy.AddScaled(pl.work, r.frac * (1.0 - keep));
          r.frac *= keep;
        }
        now = next_arrival;
        while (i < n && entries[i].start <= now) {
          active.push_back(Resident{entries[i].p, 1.0});
          ++i;
        }
      } else {
        for (const Resident& r : active) {
          util->busy.AddScaled(placements[static_cast<size_t>(r.p)].work,
                               r.frac);
          sim->clone_finish[static_cast<size_t>(r.p)] = t_fin;
        }
        active.clear();
        now = t_fin;
      }
    }
    util->finish = now;
    sim->makespan = std::max(sim->makespan, now);
  }
  return Status::OK();
}

}  // namespace oracle
}  // namespace mrs
