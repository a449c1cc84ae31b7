#include "core/operator_schedule.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/placement_index.h"

namespace mrs {

namespace {

struct CloneRef {
  size_t op_index;  // into ops
  int clone_idx;
  double length;
};

/// Lowest site in [0, num_sites) missing from the sorted, duplicate-free
/// list `used`; -1 when every site is used.
int FirstSiteExcluding(const std::vector<int>& used, int num_sites) {
  int site = 0;
  for (int u : used) {
    if (u != site) break;
    ++site;
  }
  return site < num_sites ? site : -1;
}

}  // namespace

Result<Schedule> OperatorSchedule(const std::vector<ParallelizedOp>& ops,
                                  int num_sites, int dims,
                                  const OperatorScheduleOptions& options) {
  if (num_sites < 1) {
    return Status::InvalidArgument("num_sites must be >= 1");
  }
  if (options.base_load != nullptr) {
    if (static_cast<int>(options.base_load->size()) != num_sites) {
      return Status::InvalidArgument(
          StrFormat("base_load has %zu sites, schedule has %d",
                    options.base_load->size(), num_sites));
    }
    for (const WorkVector& base : *options.base_load) {
      if (static_cast<int>(base.dim()) != dims) {
        return Status::InvalidArgument(
            StrFormat("base_load vector has %zu dims, schedule has %d",
                      base.dim(), dims));
      }
      if (!base.IsNonNegative()) {
        return Status::InvalidArgument("base_load has a negative component");
      }
    }
  }
  Schedule schedule(num_sites, dims);

  // Degrees must fit: constraint (A) caps an operator's parallelism at P.
  size_t floating_clones = 0;
  for (const auto& op : ops) {
    if (op.degree > num_sites) {
      return Status::InvalidArgument(
          StrFormat("op%d degree %d exceeds %d sites", op.op_id, op.degree,
                    num_sites));
    }
    if (static_cast<int>(op.clones.size()) != op.degree ||
        static_cast<int>(op.t_seq.size()) != op.degree) {
      return Status::InvalidArgument(
          StrFormat("op%d has inconsistent clone data", op.op_id));
    }
    if (!op.rooted) floating_clones += static_cast<size_t>(op.degree);
  }
  // All allocation happens up front; the placement loop below then runs
  // heap-allocation-free (pinned by tests/core/alloc_free_test.cc).
  schedule.ReserveFor(ops);

  // Step 1: rooted operators are pinned by data placement.
  for (const auto& op : ops) {
    if (op.rooted) {
      MRS_RETURN_IF_ERROR(schedule.PlaceRooted(op));
    }
  }

  // Step 2: list the floating clones.
  std::vector<CloneRef> list;
  list.reserve(floating_clones);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].rooted) continue;
    for (int k = 0; k < ops[i].degree; ++k) {
      list.push_back(
          {i, k, ops[i].clones[static_cast<size_t>(k)].Length()});
    }
  }
  switch (options.order) {
    case ListOrder::kDecreasingLength:
      std::stable_sort(list.begin(), list.end(),
                       [](const CloneRef& a, const CloneRef& b) {
                         return a.length > b.length;
                       });
      break;
    case ListOrder::kIncreasingLength:
      std::stable_sort(list.begin(), list.end(),
                       [](const CloneRef& a, const CloneRef& b) {
                         return a.length < b.length;
                       });
      break;
    case ListOrder::kInputOrder:
      break;
    case ListOrder::kRandom: {
      Rng rng(options.shuffle_seed);
      rng.Shuffle(&list);
      break;
    }
  }

  // Step 3: place each clone on the least-filled allowable site.
  // Cache l(work(s)) per site (a placement only changes one site's value)
  // and per-floating-op site occupancy (constraint A lookups in O(1)).
  // With a residual base the cached value is l(base[s] + work(s)): the
  // union load of resident and new clones drives site selection.
  std::vector<WorkVector> combined;
  std::vector<double> load_length(static_cast<size_t>(num_sites), 0.0);
  if (options.base_load != nullptr) {
    combined = *options.base_load;
    for (int j = 0; j < num_sites; ++j) {
      combined[static_cast<size_t>(j)] += schedule.SiteLoad(j);
      load_length[static_cast<size_t>(j)] =
          combined[static_cast<size_t>(j)].Length();
    }
  } else {
    for (int j = 0; j < num_sites; ++j) {
      load_length[static_cast<size_t>(j)] = schedule.SiteLoadLength(j);
    }
  }
  // Least-loaded selection descends a tournament tree over load_length
  // with the operator's already-used sites excluded (O(log P + degree) per
  // clone; below PlacementIndex::kLinearScanMaxSites it scans its leaves
  // instead — see placement_index.h). First-allowable selection takes the
  // lowest site missing from the same sorted exclusion list, O(degree).
  PlacementIndex index(load_length);
  std::vector<std::vector<int>> used_sorted(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].rooted) {
      used_sorted[i].reserve(static_cast<size_t>(ops[i].degree));
    }
  }
  for (const CloneRef& clone : list) {
    const ParallelizedOp& op = ops[clone.op_index];
    std::vector<int>& used = used_sorted[clone.op_index];
    const int chosen = options.site_choice == SiteChoice::kLeastLoaded
                           ? index.MinSiteExcluding(used)
                           : FirstSiteExcluding(used, num_sites);
    MRS_CHECK(chosen >= 0)
        << "no allowable site for op" << op.op_id
        << " — degree should have been capped at P";
    MRS_RETURN_IF_ERROR(schedule.Place(op, clone.clone_idx, chosen));
    used.insert(std::upper_bound(used.begin(), used.end(), chosen), chosen);
    if (options.base_load != nullptr) {
      combined[static_cast<size_t>(chosen)] +=
          op.clones[static_cast<size_t>(clone.clone_idx)];
      load_length[static_cast<size_t>(chosen)] =
          combined[static_cast<size_t>(chosen)].Length();
    } else {
      load_length[static_cast<size_t>(chosen)] =
          schedule.SiteLoadLength(chosen);
    }
    index.Update(chosen, load_length[static_cast<size_t>(chosen)]);
  }
  return schedule;
}

}  // namespace mrs
