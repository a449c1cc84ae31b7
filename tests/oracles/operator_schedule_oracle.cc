#include "oracles/operator_schedule_oracle.h"

#include <algorithm>
#include <limits>

#include "common/rng.h"

namespace mrs {
namespace oracle {

namespace {

struct CloneRef {
  size_t op_index;
  int clone_idx;
  double length;
};

}  // namespace

Result<Schedule> LinearScanOperatorSchedule(
    const std::vector<ParallelizedOp>& ops, int num_sites, int dims,
    const OperatorScheduleOptions& options) {
  Schedule schedule(num_sites, dims);
  for (const auto& op : ops) {
    if (op.rooted) MRS_RETURN_IF_ERROR(schedule.PlaceRooted(op));
  }

  std::vector<CloneRef> list;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].rooted) continue;
    for (int k = 0; k < ops[i].degree; ++k) {
      list.push_back({i, k, ops[i].clones[static_cast<size_t>(k)].Length()});
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

  // l(base[s] + work(s)) per site, kept current after every placement.
  std::vector<WorkVector> combined;
  std::vector<double> load_length;
  for (int j = 0; j < num_sites; ++j) {
    WorkVector load = schedule.SiteLoad(j);
    if (options.base_load != nullptr) {
      load += (*options.base_load)[static_cast<size_t>(j)];
    }
    load_length.push_back(load.Length());
    combined.push_back(std::move(load));
  }
  std::vector<std::vector<char>> used(
      ops.size(), std::vector<char>(static_cast<size_t>(num_sites), 0));
  for (const CloneRef& clone : list) {
    const ParallelizedOp& op = ops[clone.op_index];
    std::vector<char>& op_used = used[clone.op_index];
    int chosen = -1;
    double chosen_load = std::numeric_limits<double>::infinity();
    for (int j = 0; j < num_sites; ++j) {
      if (op_used[static_cast<size_t>(j)]) continue;
      if (options.site_choice == SiteChoice::kFirstAllowable) {
        chosen = j;
        break;
      }
      if (load_length[static_cast<size_t>(j)] < chosen_load) {
        chosen = j;
        chosen_load = load_length[static_cast<size_t>(j)];
      }
    }
    if (chosen < 0) {
      return Status::InvalidArgument("no allowable site: degree exceeds P");
    }
    MRS_RETURN_IF_ERROR(schedule.Place(op, clone.clone_idx, chosen));
    op_used[static_cast<size_t>(chosen)] = 1;
    WorkVector& site = combined[static_cast<size_t>(chosen)];
    site += op.clones[static_cast<size_t>(clone.clone_idx)];
    load_length[static_cast<size_t>(chosen)] = site.Length();
  }
  return schedule;
}

}  // namespace oracle
}  // namespace mrs
