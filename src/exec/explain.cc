#include "exec/explain.h"

#include <algorithm>
#include <unordered_map>

#include "common/str_util.h"

namespace mrs {

namespace {

/// Name of resource dimension `r`, or "r<r>" past the named ones.
std::string ResourceName(const MachineConfig& machine, size_t r) {
  return r < machine.resource_names.size() ? machine.resource_names[r]
                                           : StrFormat("r%zu", r);
}

/// "slowest operator (T_par term)" or "resource congestion on <r>".
std::string BindingPhrase(bool load_bound, int critical_resource,
                          const MachineConfig& machine) {
  if (!load_bound || critical_resource < 0) {
    return "slowest operator (T_par term)";
  }
  return "resource congestion on " +
         ResourceName(machine, static_cast<size_t>(critical_resource));
}

/// "cpu=93% disk=40% ..." over per-resource utilizations in [0, 1].
std::string UtilizationList(const std::vector<double>& utilization,
                            const MachineConfig& machine) {
  std::string util;
  for (size_t i = 0; i < utilization.size(); ++i) {
    if (i > 0) util += " ";
    util += StrFormat("%s=%.0f%%", ResourceName(machine, i).c_str(),
                      utilization[i] * 100.0);
  }
  return util;
}

}  // namespace

std::string Eq3BindingLabel(bool load_bound, int critical_resource,
                            const MachineConfig& machine) {
  if (!load_bound || critical_resource < 0) return "t_seq";
  return "congestion:" +
         ResourceName(machine, static_cast<size_t>(critical_resource));
}

PhaseExplanation ExplainPhase(const PhaseSchedule& phase) {
  PhaseExplanation exp;
  exp.phase = phase.phase;
  exp.makespan = phase.makespan;
  const Schedule& s = phase.schedule;

  // Critical site: the eq. (3) argmax.
  for (int j = 0; j < s.num_sites(); ++j) {
    if (exp.critical_site < 0 ||
        s.SiteTime(j) > s.SiteTime(exp.critical_site)) {
      exp.critical_site = j;
    }
  }
  if (exp.critical_site >= 0) {
    const WorkVector& load = s.SiteLoad(exp.critical_site);
    double max_t_seq = 0.0;
    for (int p : s.SitePlacements(exp.critical_site)) {
      max_t_seq = std::max(
          max_t_seq, s.placements()[static_cast<size_t>(p)].t_seq);
    }
    exp.load_bound = load.Length() >= max_t_seq;
    for (size_t i = 0; i < load.dim(); ++i) {
      if (exp.critical_resource < 0 ||
          load[i] > load[static_cast<size_t>(exp.critical_resource)]) {
        exp.critical_resource = static_cast<int>(i);
      }
    }
    // Heaviest operator at the critical site by total assigned work.
    std::unordered_map<int, double> per_op;
    for (int p : s.SitePlacements(exp.critical_site)) {
      const ClonePlacement& c = s.placements()[static_cast<size_t>(p)];
      per_op[c.op_id] += c.work.Total();
    }
    double best = -1.0;
    for (const auto& [op, work] : per_op) {
      if (work > best) {
        best = work;
        exp.heaviest_op = op;
      }
    }
  }

  // Machine-wide utilization per resource.
  if (s.num_sites() > 0 && phase.makespan > 0) {
    WorkVector total(static_cast<size_t>(s.dims()));
    for (int j = 0; j < s.num_sites(); ++j) total += s.SiteLoad(j);
    exp.utilization.resize(static_cast<size_t>(s.dims()));
    for (int i = 0; i < s.dims(); ++i) {
      exp.utilization[static_cast<size_t>(i)] =
          total[static_cast<size_t>(i)] /
          (static_cast<double>(s.num_sites()) * phase.makespan);
    }
  }
  return exp;
}

ScheduleExplanation ExplainSchedule(const TreeScheduleResult& result) {
  ScheduleExplanation out;
  out.response_time = result.response_time;
  for (const auto& phase : result.phases) {
    out.phases.push_back(ExplainPhase(phase));
  }
  return out;
}

ListScheduleExplanation ExplainListSchedule(const ListScheduleResult& result) {
  ListScheduleExplanation exp;
  exp.makespan = result.makespan;
  exp.tree_response_time = result.tree_response_time;
  exp.rounds = result.rounds;
  exp.used_tree_fallback = result.used_tree_fallback;
  exp.pipelined = result.pipelined;
  exp.used_list_fallback = result.used_list_fallback;
  exp.critical_site = result.critical_site;
  exp.load_bound = result.load_bound;
  exp.critical_resource = result.critical_resource;
  exp.tasks = result.tasks;
  const Schedule& s = result.schedule;

  if (exp.critical_site >= 0) {
    // Heaviest operator at the critical site by total assigned work.
    std::unordered_map<int, double> per_op;
    for (int p : s.SitePlacements(exp.critical_site)) {
      const ClonePlacement& c = s.placements()[static_cast<size_t>(p)];
      per_op[c.op_id] += c.work.Total();
    }
    double best = -1.0;
    for (const auto& [op, work] : per_op) {
      if (work > best) {
        best = work;
        exp.heaviest_op = op;
      }
    }
  }

  if (s.num_sites() > 0 && result.makespan > 0) {
    WorkVector total(static_cast<size_t>(s.dims()));
    for (int j = 0; j < s.num_sites(); ++j) total += s.SiteLoad(j);
    exp.utilization.resize(static_cast<size_t>(s.dims()));
    for (int i = 0; i < s.dims(); ++i) {
      exp.utilization[static_cast<size_t>(i)] =
          total[static_cast<size_t>(i)] /
          (static_cast<double>(s.num_sites()) * result.makespan);
    }
  }
  return exp;
}

std::string ListScheduleExplanation::ToString(
    const MachineConfig& machine) const {
  const std::string binding =
      BindingPhrase(load_bound, critical_resource, machine);
  const std::string util = UtilizationList(utilization, machine);
  std::string out = StrFormat(
      "list schedule explanation — makespan %s (%s, %d rounds; "
      "phased reference %s)\n",
      FormatMillis(makespan).c_str(),
      used_tree_fallback ? "aligned-fallback"
      : pipelined        ? "pipelined"
      : used_list_fallback ? "wave-fallback"
                           : "greedy",
      rounds, FormatMillis(tree_response_time).c_str());
  out += StrFormat(
      "  critical site s%d bound by %s; heaviest op%d; utilization %s\n",
      critical_site, binding.c_str(), heaviest_op, util.c_str());
  for (const auto& t : tasks) {
    out += StrFormat("  task %d: [%s, %s]\n", t.task,
                     FormatMillis(t.start).c_str(),
                     FormatMillis(t.finish).c_str());
  }
  return out;
}

std::string ScheduleExplanation::ToString(const MachineConfig& machine) const {
  std::string out = StrFormat("schedule explanation — response %s\n",
                              FormatMillis(response_time).c_str());
  for (const auto& p : phases) {
    const std::string binding =
        BindingPhrase(p.load_bound, p.critical_resource, machine);
    const std::string util = UtilizationList(p.utilization, machine);
    out += StrFormat(
        "  phase %d: %s; critical site s%d bound by %s; heaviest op%d; "
        "utilization %s\n",
        p.phase, FormatMillis(p.makespan).c_str(), p.critical_site,
        binding.c_str(), p.heaviest_op, util.c_str());
  }
  return out;
}

}  // namespace mrs
