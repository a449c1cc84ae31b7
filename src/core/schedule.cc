#include "core/schedule.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/str_util.h"
#include "core/site_timeline.h"

namespace mrs {

Schedule::Schedule(int num_sites, int dims)
    : num_sites_(num_sites),
      dims_(dims),
      site_chain_(static_cast<size_t>(std::max(num_sites, 0))),
      site_load_(static_cast<size_t>(std::max(num_sites, 0)),
                 WorkVector(static_cast<size_t>(std::max(dims, 0)))),
      site_max_t_seq_(static_cast<size_t>(std::max(num_sites, 0)), 0.0) {
  MRS_CHECK(num_sites >= 1) << "schedule needs at least one site";
  MRS_CHECK(dims >= 1) << "schedule needs at least one resource dimension";
}

void Schedule::ReserveFor(const std::vector<ParallelizedOp>& ops) {
  size_t total = placements_.size();
  for (const auto& op : ops) {
    if (op.degree > 0) total += static_cast<size_t>(op.degree);
  }
  placements_.reserve(total);
  next_at_site_.reserve(total);
  op_sites_.reserve(op_sites_.size() + ops.size());
  for (const auto& op : ops) {
    if (op.degree < 1) continue;
    auto it = op_sites_.find(op.op_id);
    if (it == op_sites_.end()) {
      op_sites_.emplace(op.op_id,
                        std::vector<int>(static_cast<size_t>(op.degree), -1));
    }
  }
}

Status Schedule::Place(const ParallelizedOp& op, int clone_idx, int site) {
  return PlaceAt(op, clone_idx, site, 0.0);
}

Status Schedule::PlaceAt(const ParallelizedOp& op, int clone_idx, int site,
                         double start) {
  if (!std::isfinite(start) || start < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "op%d clone %d start %g is not a finite time >= 0", op.op_id,
        clone_idx, start));
  }
  if (site < 0 || site >= num_sites_) {
    return Status::OutOfRange(StrFormat("site %d outside [0, %d)", site,
                                        num_sites_));
  }
  if (clone_idx < 0 || clone_idx >= op.degree) {
    return Status::OutOfRange(
        StrFormat("clone %d outside [0, %d) for op%d", clone_idx, op.degree,
                  op.op_id));
  }
  if (static_cast<int>(op.clones[static_cast<size_t>(clone_idx)].dim()) !=
      dims_) {
    return Status::InvalidArgument(
        StrFormat("op%d clone dimensionality %zu != schedule dims %d",
                  op.op_id, op.clones[static_cast<size_t>(clone_idx)].dim(),
                  dims_));
  }
  // find-then-emplace instead of try_emplace with a vector argument: the
  // latter constructs (allocates) the vector before probing the map, even
  // when the key is already present — i.e. on every placement after the
  // operator's first.
  auto it = op_sites_.find(op.op_id);
  if (it == op_sites_.end()) {
    it = op_sites_
             .emplace(op.op_id,
                      std::vector<int>(static_cast<size_t>(op.degree), -1))
             .first;
  }
  std::vector<int>& sites = it->second;
  if (static_cast<int>(sites.size()) != op.degree) {
    return Status::InvalidArgument(
        StrFormat("op%d placed with inconsistent degrees", op.op_id));
  }
  if (sites[static_cast<size_t>(clone_idx)] != -1) {
    return Status::InvalidArgument(
        StrFormat("clone %d of op%d already placed", clone_idx, op.op_id));
  }
  // Constraint (A): no two clones of one operator on the same site.
  if (HasOpAtSite(op.op_id, site)) {
    return Status::InvalidArgument(
        StrFormat("site %d already hosts a clone of op%d", site, op.op_id));
  }

  ClonePlacement placement;
  placement.op_id = op.op_id;
  placement.clone_idx = clone_idx;
  placement.site = site;
  placement.work = op.clones[static_cast<size_t>(clone_idx)];
  placement.t_seq = op.t_seq[static_cast<size_t>(clone_idx)];
  placement.start = start;
  if (start > 0.0) aligned_ = false;

  const int index = static_cast<int>(placements_.size());
  sites[static_cast<size_t>(clone_idx)] = site;
  SiteChain& chain = site_chain_[static_cast<size_t>(site)];
  if (chain.tail >= 0) {
    next_at_site_[static_cast<size_t>(chain.tail)] = index;
  } else {
    chain.head = index;
  }
  chain.tail = index;
  ++chain.count;
  site_load_[static_cast<size_t>(site)] += placement.work;
  site_max_t_seq_[static_cast<size_t>(site)] =
      std::max(site_max_t_seq_[static_cast<size_t>(site)], placement.t_seq);
  placements_.push_back(std::move(placement));
  next_at_site_.push_back(-1);
  return Status::OK();
}

Status Schedule::PlaceRooted(const ParallelizedOp& op) {
  if (!op.rooted) {
    return Status::InvalidArgument(
        StrFormat("op%d is not rooted", op.op_id));
  }
  if (static_cast<int>(op.home.size()) != op.degree) {
    return Status::InvalidArgument(
        StrFormat("op%d home size %zu != degree %d", op.op_id,
                  op.home.size(), op.degree));
  }
  for (int k = 0; k < op.degree; ++k) {
    MRS_RETURN_IF_ERROR(Place(op, k, op.home[static_cast<size_t>(k)]));
  }
  return Status::OK();
}

Schedule::SitePlacementRange Schedule::SitePlacements(int site) const {
  MRS_CHECK(site >= 0 && site < num_sites_) << "site out of range";
  const SiteChain& chain = site_chain_[static_cast<size_t>(site)];
  return SitePlacementRange(chain.head, chain.count, &next_at_site_);
}

const WorkVector& Schedule::SiteLoad(int site) const {
  MRS_CHECK(site >= 0 && site < num_sites_) << "site out of range";
  return site_load_[static_cast<size_t>(site)];
}

double Schedule::SiteLoadLength(int site) const {
  return SiteLoad(site).Length();
}

double Schedule::SiteTime(int site) const {
  MRS_CHECK(site >= 0 && site < num_sites_) << "site out of range";
  return std::max(site_max_t_seq_[static_cast<size_t>(site)],
                  SiteLoadLength(site));
}

double Schedule::SweepSiteFinish(int site,
                                 std::vector<double>* finish) const {
  std::vector<SiteArrival> arrivals;
  arrivals.reserve(SitePlacements(site).size());
  for (int p : SitePlacements(site)) {
    const ClonePlacement& c = placements_[static_cast<size_t>(p)];
    arrivals.push_back(SiteArrival{c.start, p, &c.work, c.t_seq});
  }
  SortByArrival(&arrivals);
  return SweepSite(arrivals, static_cast<size_t>(dims_), finish, nullptr);
}

double Schedule::SiteFinish(int site) const {
  MRS_CHECK(site >= 0 && site < num_sites_) << "site out of range";
  if (aligned_) return SiteTime(site);
  return SweepSiteFinish(site, nullptr);
}

std::vector<double> Schedule::CloneFinishTimes() const {
  std::vector<double> finish(placements_.size(), 0.0);
  if (aligned_) {
    for (size_t p = 0; p < placements_.size(); ++p) {
      finish[p] = SiteTime(placements_[p].site);
    }
    return finish;
  }
  for (int j = 0; j < num_sites_; ++j) SweepSiteFinish(j, &finish);
  return finish;
}

double Schedule::Makespan() const {
  if (aligned_) {
    double m = 0.0;
    for (int j = 0; j < num_sites_; ++j) m = std::max(m, SiteTime(j));
    return m;
  }
  double m = 0.0;
  for (int j = 0; j < num_sites_; ++j) m = std::max(m, SiteFinish(j));
  return m;
}

bool Schedule::HasOpAtSite(int op_id, int site) const {
  auto it = op_sites_.find(op_id);
  if (it == op_sites_.end()) return false;
  for (int s : it->second) {
    if (s == site) return true;
  }
  return false;
}

std::vector<int> Schedule::HomeOf(int op_id) const {
  auto it = op_sites_.find(op_id);
  if (it == op_sites_.end()) return {};
  return it->second;
}

Status Schedule::Validate(const std::vector<ParallelizedOp>& ops) const {
  for (const auto& op : ops) {
    auto it = op_sites_.find(op.op_id);
    if (it == op_sites_.end()) {
      return Status::FailedPrecondition(
          StrFormat("op%d has no placements", op.op_id));
    }
    const std::vector<int>& sites = it->second;
    if (static_cast<int>(sites.size()) != op.degree) {
      return Status::FailedPrecondition(
          StrFormat("op%d placed with degree %zu, expected %d", op.op_id,
                    sites.size(), op.degree));
    }
    std::vector<int> sorted = sites;
    std::sort(sorted.begin(), sorted.end());
    for (size_t k = 0; k < sorted.size(); ++k) {
      if (sorted[k] < 0) {
        return Status::FailedPrecondition(
            StrFormat("op%d has an unplaced clone", op.op_id));
      }
      if (k > 0 && sorted[k] == sorted[k - 1]) {
        return Status::FailedPrecondition(
            StrFormat("op%d has two clones at site %d (constraint A)",
                      op.op_id, sorted[k]));
      }
    }
    if (op.rooted && sites != op.home) {
      return Status::FailedPrecondition(
          StrFormat("rooted op%d not placed at its home (constraint B)",
                    op.op_id));
    }
  }
  return Status::OK();
}

std::string Schedule::ToString() const {
  std::string out = StrFormat("Schedule(P=%d, makespan=%.2fms):\n",
                              num_sites_, Makespan());
  for (int j = 0; j < num_sites_; ++j) {
    std::vector<std::string> parts;
    for (int p : SitePlacements(j)) {
      const auto& c = placements_[static_cast<size_t>(p)];
      parts.push_back(StrFormat("op%d.%d", c.op_id, c.clone_idx));
    }
    out += StrFormat("  s%-3d T=%.2fms load=%s: %s\n", j, SiteTime(j),
                     site_load_[static_cast<size_t>(j)].ToString().c_str(),
                     StrJoin(parts, " ").c_str());
  }
  return out;
}

}  // namespace mrs
