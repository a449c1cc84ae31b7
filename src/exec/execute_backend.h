#ifndef MRS_EXEC_EXECUTE_BACKEND_H_
#define MRS_EXEC_EXECUTE_BACKEND_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "exec/exec_backend.h"
#include "exec/operators.h"
#include "resource/machine.h"

namespace mrs {

/// Real execution of a Schedule: every placed clone runs an actual
/// operator fragment (exec/operators.h) over deterministic generated data
/// (workload/exec_data.h) on a thread pool, and the result carries both
///
///  * a *virtual timeline* — the optimal-stretch fluid discipline applied
///    to the placements' predicted (T_seq, W), exactly
///    FluidSimulator::SimulateTimed (the independent realization the
///    differential tests hold it against lives in tests/oracles/); and
///  * *measured* per-clone times (ExecMeter), which never influence the
///    timeline — they exist to be compared against it (exec/calibrate.h).
///
/// Execution semantics, kept deliberately simple (a validation backend,
/// not a query engine):
///
///  * every operator reads its own generated input stream (stream seed =
///    mix(data_seed, op_id)); by default pipelined edges are not
///    replayed — only the blocking edges move data, through materialized
///    site-local state. With ExecuteOptions::pipeline_edges, ops connected
///    by live data edges form pipeline groups that run in one wave:
///    producer clones push their actual output rows through bounded
///    queues (key-hash routed, one queue per consumer clone) to consumer
///    clones running concurrently on dedicated threads, and a group waits
///    until every member's blocking producer has materialized. Digests
///    stay order-independent, so either mode is byte-identical across
///    thread counts (the two modes see different row streams, though);
///  * kBuild key-partitions its stream into one hash table per clone;
///    kProbe streams a fresh stream over the same key domain and probes
///    the owning partition (build and probe degrees may differ);
///  * kAggBuild accumulates round-robin slices into per-clone partials;
///    kAggOutput merges each key partition across all partials;
///  * kSortRun sorts round-robin slices into runs; kSortMerge collects
///    and orders its key partition from all runs;
///  * kScan materializes and digests its round-robin slice;
///  * clones of ops with a blocking producer run in a later pool wave
///    than the producer (WaitAll barriers give the happens-before edge
///    that keeps concurrent table reads TSan-clean).
///
/// Within one Run, waves follow blocking dependencies; across Run calls
/// the materialized state persists (TREESCHEDULE probes execute phases
/// after their builds), until Reset.
class ExecuteBackend : public ExecBackend {
 public:
  explicit ExecuteBackend(ExecuteOptions options = {});
  ~ExecuteBackend() override;

  std::string_view name() const override { return "execute"; }

  Result<ExecutionResult> Run(const Schedule& schedule,
                              const std::vector<ExecOpSpec>& specs) override;

  void Reset() override;

  const ExecuteOptions& options() const { return options_; }

 private:
  /// Materialized state of one executed operator.
  struct OpState {
    OperatorKind kind = OperatorKind::kScan;
    int degree = 0;
    uint64_t seed = 0;
    ExecKeyDist dist;
    int64_t rows_exec = 0;
    std::vector<ExecHashTable> tables;        // kBuild
    std::vector<ExecGroupTable> partials;     // kAggBuild
    std::vector<std::vector<ExecRow>> runs;   // kSortRun
    std::vector<ExecGroupTable> emit_scratch;  // kAggOutput
  };

  ThreadPool* pool();

  ExecuteOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unordered_map<int, OpState> state_;
};

/// Deterministic text rendering of an ExecutionResult (the `--execute`
/// explain output; golden-stable under ExecMeter::kDeterministic).
/// `wall` includes the real elapsed time line (off for goldens).
std::string ExplainExecution(const ExecutionResult& result,
                             const MachineConfig& machine, bool wall = false);

}  // namespace mrs

#endif  // MRS_EXEC_EXECUTE_BACKEND_H_
