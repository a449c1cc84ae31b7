#ifndef MRS_EXEC_EXEC_BACKEND_H_
#define MRS_EXEC_EXEC_BACKEND_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/schedule.h"
#include "core/tree_schedule.h"
#include "exec/fluid_simulator.h"
#include "plan/operator_tree.h"

namespace mrs {

/// The two ways a Schedule can be "run" behind one interface:
///
///  * SimulateBackend — the fluid simulator: clones are fluid jobs
///    consuming their predicted work vectors; site times come out of the
///    model itself (exec/fluid_simulator.h).
///  * ExecuteBackend — real execution: clones are actual partitioned
///    hash-join / group-by / sort / scan fragments running on a thread
///    pool over generated data (exec/execute_backend.h), with measured
///    per-clone CPU time alongside the model-time virtual timeline.
///
/// Both return the same ExecutionResult shape, so the differential tests
/// and the calibrator (exec/calibrate.h) can hold one against the other.

/// What a backend needs to know about an operator beyond its placement:
/// its kind, its modeled input cardinality, and the blocking producer
/// whose materialized state it consumes (probe -> build, sort merge ->
/// sort run, aggregate output -> aggregate build; -1 for none).
struct ExecOpSpec {
  int op_id = -1;
  OperatorKind kind = OperatorKind::kScan;
  int64_t input_tuples = 0;
  int blocking_input = -1;
  /// Producers feeding this operator through *pipelined* edges (a probe's
  /// outer stream, the stream below a build / sort run / aggregate
  /// build); empty for scans. Only consulted when
  /// ExecuteOptions::pipeline_edges is on.
  std::vector<int> data_inputs;
};

/// Specs for every operator of `tree`, indexed by operator id.
std::vector<ExecOpSpec> ExecOpSpecsFromTree(const OperatorTree& tree);

/// How ExecuteBackend measures per-clone execution time.
enum class ExecMeter {
  /// CLOCK_THREAD_CPUTIME_ID around the clone body: real CPU
  /// milliseconds. The honest meter for calibration runs.
  kThreadCpu,
  /// rows-processed pseudo-milliseconds (1e-3 * (rows_in + rows_out)):
  /// byte-identical on every machine and run. The meter behind golden
  /// files and deterministic tests.
  kDeterministic,
};

/// Knobs of a real-execution replay.
struct ExecuteOptions {
  /// Root seed of every generated input stream (streams are per-operator:
  /// stream seed = mix(data_seed, op_id)).
  uint64_t data_seed = 1;
  /// Key skew of every stream, in [0, 1) (workload/exec_data.h).
  double skew = 0.0;
  /// Per-operator cap on executed rows. Modeled cardinalities routinely
  /// reach millions of tuples; the replay executes
  /// min(input_tuples, max_rows_per_op) rows and reports the ratio as
  /// CloneExecution::row_fraction so the calibrator can scale predicted
  /// work down to what actually ran. <= 0 means uncapped.
  int64_t max_rows_per_op = 8192;
  ExecMeter meter = ExecMeter::kThreadCpu;
  /// Worker threads of the replay pool; 0 = ThreadPool::DefaultThreads().
  int threads = 0;
  /// Replay pipelined edges (ROADMAP item-5 remnant): when on, an
  /// operator whose pipelined producer executes in the same wave consumes
  /// the producer's actual output rows through bounded in-memory queues —
  /// producer and consumer clones run concurrently on dedicated threads —
  /// instead of synthesizing its own stream, and the wave partition
  /// itself keeps a consumer in its live producer's wave. Off by default:
  /// the classic replay (and its goldens) reads per-operator generated
  /// streams and moves data only across blocking edges. Digests stay
  /// order-independent and rows are routed by key hash, so results remain
  /// byte-identical across thread counts either way.
  bool pipeline_edges = false;
};

/// One clone's execution record, parallel to Schedule::placements().
struct CloneExecution {
  int op_id = -1;
  int clone_idx = 0;
  int site = -1;
  OperatorKind kind = OperatorKind::kScan;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  /// Per-clone measured time (ExecMeter units). SimulateBackend reports
  /// the model's own T_seq here — simulating *is* its measurement.
  double measured_ms = 0.0;
  /// Executed over modeled input rows (1 when the row cap did not bind).
  double row_fraction = 1.0;
  /// Model-time interval on the virtual timeline (optimal-stretch fluid
  /// discipline over the predicted work vectors).
  double virtual_start = 0.0;
  double virtual_finish = 0.0;
};

/// What running one Schedule produced.
struct ExecutionResult {
  /// The model-time timeline: per-site busy vectors and finish times plus
  /// per-clone completion, as FluidSimulator::SimulateTimed computes it
  /// under optimal stretch.
  PhaseSimulation timeline;
  /// Per-clone records, parallel to Schedule::placements().
  std::vector<CloneExecution> clones;
  /// Total rows emitted across all clones (wrapping) and the
  /// order-independent digest of everything they produced — byte-identical
  /// across thread counts for a fixed seed.
  int64_t rows_out = 0;
  uint64_t digest = 0;
  /// Real elapsed wall time of the replay (0 for SimulateBackend).
  double wall_ms = 0.0;
};

/// Common interface over simulate / execute.
class ExecBackend {
 public:
  virtual ~ExecBackend() = default;

  virtual std::string_view name() const = 0;

  /// Runs one schedule, honoring per-clone start times. Stateful across
  /// calls: materialized operator state (hash tables, sorted runs, group
  /// partials) survives so a probe scheduled in a later phase finds the
  /// tables its build left behind. Call Reset between unrelated queries.
  virtual Result<ExecutionResult> Run(const Schedule& schedule,
                                      const std::vector<ExecOpSpec>& specs) = 0;

  /// Drops all cross-phase state.
  virtual void Reset() {}

  /// Runs a phased TREESCHEDULE plan: phases back to back through Run (so
  /// probes find their builds' state), one ExecutionResult per phase.
  Result<std::vector<ExecutionResult>> RunTree(
      const TreeScheduleResult& plan, const std::vector<ExecOpSpec>& specs);
};

/// The fluid simulator behind the backend interface: Run forwards to
/// FluidSimulator::SimulateTimed and reports each clone's T_seq as its
/// "measured" time.
class SimulateBackend : public ExecBackend {
 public:
  explicit SimulateBackend(
      SharingPolicy policy = SharingPolicy::kOptimalStretch)
      : simulator_(policy) {}

  std::string_view name() const override { return "simulate"; }

  Result<ExecutionResult> Run(const Schedule& schedule,
                              const std::vector<ExecOpSpec>& specs) override;

 private:
  FluidSimulator simulator_;
};

/// Factory over the backend modes: `mode` is "simulate" or "execute".
/// `exec_options` applies to the execute mode only.
Result<std::unique_ptr<ExecBackend>> MakeExecBackend(
    const std::string& mode, const ExecuteOptions& exec_options = {});

}  // namespace mrs

#endif  // MRS_EXEC_EXEC_BACKEND_H_
