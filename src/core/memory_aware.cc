#include "core/memory_aware.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/logging.h"
#include "common/str_util.h"

namespace mrs {

namespace {

/// A build clone's resident hash-table share.
struct TableResidence {
  int build_op = -1;
  std::vector<std::pair<int, double>> site_shares;  // (site, bytes)
};

/// Memory-constrained variant of the OPERATORSCHEDULE list rule: clones
/// of operators with a memory demand may only go to sites with enough
/// free memory, and placing one reserves it. Returns the placements'
/// schedule and mutates `free_mem` on success only.
class SubphasePacker {
 public:
  SubphasePacker(int num_sites, int dims, std::vector<double>* free_mem)
      : num_sites_(num_sites), dims_(dims), free_mem_(free_mem) {}

  /// `mem_demand[i]` is the per-clone memory demand of ops[i] (0 for
  /// memory-less operators).
  Result<Schedule> Pack(const std::vector<ParallelizedOp>& ops,
                        const std::vector<double>& mem_demand) {
    Schedule schedule(num_sites_, dims_);
    std::vector<double> mem = *free_mem_;  // tentative

    // Rooted first (constraint B). Rooted probes have no memory demand.
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!ops[i].rooted) continue;
      MRS_RETURN_IF_ERROR(schedule.PlaceRooted(ops[i]));
    }

    // Floating clones in non-increasing length order.
    struct CloneRef {
      size_t op_index;
      int clone_idx;
      double length;
    };
    std::vector<CloneRef> list;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].rooted) continue;
      for (int k = 0; k < ops[i].degree; ++k) {
        list.push_back(
            {i, k, ops[i].clones[static_cast<size_t>(k)].Length()});
      }
    }
    std::stable_sort(list.begin(), list.end(),
                     [](const CloneRef& a, const CloneRef& b) {
                       return a.length > b.length;
                     });

    std::vector<std::vector<char>> used(
        ops.size(), std::vector<char>(static_cast<size_t>(num_sites_), 0));
    std::vector<double> load_length(static_cast<size_t>(num_sites_), 0.0);
    for (int j = 0; j < num_sites_; ++j) {
      load_length[static_cast<size_t>(j)] = schedule.SiteLoadLength(j);
    }
    for (const CloneRef& clone : list) {
      const ParallelizedOp& op = ops[clone.op_index];
      const double demand = mem_demand[clone.op_index];
      int chosen = -1;
      double chosen_load = std::numeric_limits<double>::infinity();
      for (int j = 0; j < num_sites_; ++j) {
        if (used[clone.op_index][static_cast<size_t>(j)]) continue;
        if (demand > 0 && mem[static_cast<size_t>(j)] < demand) continue;
        if (load_length[static_cast<size_t>(j)] < chosen_load) {
          chosen = j;
          chosen_load = load_length[static_cast<size_t>(j)];
        }
      }
      if (chosen < 0) {
        return Status::FailedPrecondition(
            StrFormat("no site with %.0f free bytes for a clone of op%d",
                      demand, op.op_id));
      }
      MRS_RETURN_IF_ERROR(schedule.Place(op, clone.clone_idx, chosen));
      used[clone.op_index][static_cast<size_t>(chosen)] = 1;
      load_length[static_cast<size_t>(chosen)] =
          schedule.SiteLoadLength(chosen);
      if (demand > 0) mem[static_cast<size_t>(chosen)] -= demand;
    }
    *free_mem_ = std::move(mem);  // commit
    return schedule;
  }

 private:
  int num_sites_;
  int dims_;
  std::vector<double>* free_mem_;
};

/// Smallest degree n such that n distinct sites each have free memory for
/// a 1/n share of `table_bytes`; 0 if impossible even at n = P.
int MinDegreeForMemory(double table_bytes, const std::vector<double>& free_mem) {
  std::vector<double> sorted = free_mem;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  for (int n = 1; n <= static_cast<int>(sorted.size()); ++n) {
    const double share = table_bytes / static_cast<double>(n);
    if (sorted[static_cast<size_t>(n - 1)] >= share) return n;
  }
  return 0;
}

}  // namespace

std::vector<int> MemoryAwareResult::HomeOf(int op_id) const {
  for (const auto& phase : phases) {
    std::vector<int> home = phase.schedule.HomeOf(op_id);
    if (!home.empty()) return home;
  }
  return {};
}

std::string MemoryAwareResult::ToString() const {
  std::string out = StrFormat(
      "MemoryAwareSchedule(response=%.2fms, %zu subphases, %d splits, "
      "peak=%s)\n",
      response_time, phases.size(), phase_splits,
      FormatBytes(peak_site_memory).c_str());
  for (const auto& p : phases) {
    out += StrFormat("  phase %d.%d: %zu ops, makespan=%.2fms, peak=%s\n",
                     p.task_phase, p.subphase, p.ops.size(), p.makespan,
                     FormatBytes(p.peak_site_memory).c_str());
  }
  return out;
}

Result<MemoryAwareResult> MemoryAwareTreeSchedule(
    const OperatorTree& op_tree, const TaskTree& task_tree,
    const std::vector<OperatorCost>& costs, const CostParams& params,
    const MachineConfig& machine, const OverlapUsageModel& usage,
    const TreeScheduleOptions& options, const MemoryOptions& memory) {
  if (memory.site_memory_bytes <= 0 || memory.hash_table_overhead < 1.0) {
    return Status::InvalidArgument("invalid memory options");
  }
  if (options.policy != ParallelizationPolicy::kCoarseGrain) {
    // The memory floor raises a build's CG_f degree; it has no meaning
    // for a malleable selection.
    return Status::InvalidArgument(
        "the memory-aware schedule supports only the kCoarseGrain policy");
  }
  MRS_ASSIGN_OR_RETURN(
      const Allotment allotment,
      Allotment::Create(op_tree, costs, params, machine, usage, options));
  const MachineConfig& config = allotment.machine();
  // Memory-resident state materialized by an operator (hash/group tables;
  // 0 for disk-resident sorted runs and stateless operators).
  auto table_bytes = [&](int op_id) {
    const PhysicalOp& op = op_tree.op(op_id);
    return static_cast<double>(op.table_tuples) *
           static_cast<double>(op.layout.tuple_bytes) *
           memory.hash_table_overhead;
  };

  MemoryAwareResult result;
  std::vector<double> free_mem(static_cast<size_t>(config.num_sites),
                               memory.site_memory_bytes);
  // build op id -> resident shares, released when its probe's subphase ends.
  std::unordered_map<int, TableResidence> resident;

  for (int k = 0; k < task_tree.num_phases(); ++k) {
    std::vector<int> pending = task_tree.phase(k);
    // Memory-releasing tasks (those containing probes, which free their
    // builds' tables at subphase end) go first, so that under pressure
    // releases happen before reservations.
    std::stable_partition(pending.begin(), pending.end(), [&](int tid) {
      for (int oid : task_tree.task(tid).ops) {
        if (op_tree.op(oid).blocking_input >= 0) return true;
      }
      return false;
    });
    int subphase = 0;
    while (!pending.empty()) {
      // Greedily select a prefix of pending tasks whose aggregate table
      // demand fits the aggregate free memory.
      double free_total = 0.0;
      for (double m : free_mem) free_total += m;
      std::vector<int> selected;
      double demand_total = 0.0;
      for (int tid : pending) {
        double d = 0.0;
        for (int oid : task_tree.task(tid).ops) {
          d += table_bytes(oid);
        }
        if (selected.empty() || demand_total + d <= free_total) {
          selected.push_back(tid);
          demand_total += d;
        }
      }

      // Try to pack the selected tasks; on failure shed tasks from the
      // back until something fits.
      Result<Schedule> packed = Status::Internal("unattempted");
      std::vector<ParallelizedOp> ops;
      while (true) {
        ops.clear();
        std::vector<double> mem_demand;
        bool degree_ok = true;
        for (int tid : selected) {
          for (int oid : task_tree.task(tid).ops) {
            const PhysicalOp& op = op_tree.op(oid);
            const OperatorCost& cost = costs[static_cast<size_t>(oid)];
            if (op.blocking_input >= 0) {
              std::vector<int> home = result.HomeOf(op.blocking_input);
              if (home.empty()) {
                return Status::Internal(StrFormat(
                    "op%d scheduled before its blocking producer", oid));
              }
              auto rooted = allotment.Rooted(cost, std::move(home));
              if (!rooted.ok()) return rooted.status();
              ops.push_back(std::move(rooted).value());
              mem_demand.push_back(0.0);
            } else {
              auto sized = allotment.Floating(allotment.SizingCost(oid));
              if (!sized.ok()) return sized.status();
              int degree = sized->degree;
              double demand = 0.0;
              if (op.table_tuples > 0) {
                const double table = table_bytes(oid);
                const int n_min = MinDegreeForMemory(table, free_mem);
                if (n_min == 0) {
                  degree_ok = false;
                  break;
                }
                degree = std::min(std::max(degree, n_min), config.num_sites);
                demand = table / static_cast<double>(degree);
              }
              auto par = allotment.AtDegree(cost, degree);
              if (!par.ok()) return par.status();
              ops.push_back(std::move(par).value());
              mem_demand.push_back(demand);
            }
          }
          if (!degree_ok) break;
        }
        if (degree_ok) {
          SubphasePacker packer(config.num_sites, config.dims, &free_mem);
          packed = packer.Pack(ops, mem_demand);
          if (packed.ok()) break;
        }
        if (selected.size() == 1) {
          // Try any other pending task alone before giving up: one that
          // contains probes may release memory for the rest.
          bool swapped = false;
          for (int tid : pending) {
            if (tid == selected[0]) continue;
            bool materializes_state = false;
            for (int oid : task_tree.task(tid).ops) {
              if (op_tree.op(oid).table_tuples > 0) {
                materializes_state = true;
              }
            }
            if (!materializes_state) {
              selected[0] = tid;
              swapped = true;
              break;
            }
          }
          if (!swapped) {
            return Status::FailedPrecondition(StrFormat(
                "phase %d: insufficient memory (%s/site) to place the hash "
                "tables of task %d",
                k, FormatBytes(memory.site_memory_bytes).c_str(),
                selected[0]));
          }
        } else {
          selected.pop_back();
        }
      }

      // Commit: record residencies, release tables probed this subphase.
      MemoryPhase phase{k, subphase, std::move(ops),
                        std::move(packed).value(), 0.0, 0.0};
      phase.makespan = phase.schedule.Makespan();
      for (const auto& op : phase.ops) {
        if (op.rooted) continue;
        if (op_tree.op(op.op_id).table_tuples <= 0) continue;
        TableResidence res;
        res.build_op = op.op_id;
        const double share =
            table_bytes(op.op_id) / static_cast<double>(op.degree);
        for (int site : phase.schedule.HomeOf(op.op_id)) {
          res.site_shares.emplace_back(site, share);
        }
        resident[op.op_id] = std::move(res);
      }
      double peak = 0.0;
      for (double m : free_mem) {
        peak = std::max(peak, memory.site_memory_bytes - m);
      }
      phase.peak_site_memory = peak;
      result.peak_site_memory = std::max(result.peak_site_memory, peak);
      for (const auto& op : phase.ops) {
        if (op_tree.op(op.op_id).blocking_input < 0) continue;
        auto it = resident.find(op_tree.op(op.op_id).blocking_input);
        if (it != resident.end()) {
          for (const auto& [site, share] : it->second.site_shares) {
            free_mem[static_cast<size_t>(site)] += share;
          }
          resident.erase(it);
        }
      }

      result.response_time += phase.makespan;
      if (subphase > 0) ++result.phase_splits;
      result.phases.push_back(std::move(phase));
      // Remove the selected tasks from pending (preserving order).
      std::vector<int> rest;
      for (int tid : pending) {
        if (std::find(selected.begin(), selected.end(), tid) ==
            selected.end()) {
          rest.push_back(tid);
        }
      }
      pending = std::move(rest);
      ++subphase;
    }
  }
  return result;
}

}  // namespace mrs
