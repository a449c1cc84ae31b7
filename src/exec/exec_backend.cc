#include "exec/exec_backend.h"

#include "common/str_util.h"
#include "exec/execute_backend.h"

namespace mrs {

std::vector<ExecOpSpec> ExecOpSpecsFromTree(const OperatorTree& tree) {
  std::vector<ExecOpSpec> specs;
  specs.reserve(static_cast<size_t>(tree.num_ops()));
  for (const PhysicalOp& op : tree.ops()) {
    ExecOpSpec spec;
    spec.op_id = op.id;
    spec.kind = op.kind;
    spec.input_tuples = op.input_tuples;
    spec.blocking_input = op.blocking_input;
    spec.data_inputs = op.data_inputs;
    specs.push_back(spec);
  }
  return specs;
}

Result<std::vector<ExecutionResult>> ExecBackend::RunTree(
    const TreeScheduleResult& plan, const std::vector<ExecOpSpec>& specs) {
  std::vector<ExecutionResult> results;
  results.reserve(plan.phases.size());
  for (const PhaseSchedule& phase : plan.phases) {
    MRS_ASSIGN_OR_RETURN(ExecutionResult r, Run(phase.schedule, specs));
    results.push_back(std::move(r));
  }
  return results;
}

Result<ExecutionResult> SimulateBackend::Run(
    const Schedule& schedule, const std::vector<ExecOpSpec>& specs) {
  (void)specs;  // the simulator runs on placements alone
  ExecutionResult result;
  MRS_ASSIGN_OR_RETURN(result.timeline, simulator_.SimulateTimed(schedule));
  result.clones.resize(schedule.placements().size());
  for (size_t p = 0; p < schedule.placements().size(); ++p) {
    const ClonePlacement& placement = schedule.placements()[p];
    CloneExecution& clone = result.clones[p];
    clone.op_id = placement.op_id;
    clone.clone_idx = placement.clone_idx;
    clone.site = placement.site;
    clone.measured_ms = placement.t_seq;
    clone.virtual_start = placement.start;
    clone.virtual_finish = result.timeline.clone_finish[p];
  }
  return result;
}

Result<std::unique_ptr<ExecBackend>> MakeExecBackend(
    const std::string& mode, const ExecuteOptions& exec_options) {
  if (mode == "simulate") {
    return std::unique_ptr<ExecBackend>(new SimulateBackend());
  }
  if (mode == "execute") {
    return std::unique_ptr<ExecBackend>(new ExecuteBackend(exec_options));
  }
  return Status::InvalidArgument(
      StrFormat("unknown exec backend '%s' (want simulate|execute)",
                mode.c_str()));
}

}  // namespace mrs
