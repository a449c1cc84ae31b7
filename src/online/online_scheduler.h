#ifndef MRS_ONLINE_ONLINE_SCHEDULER_H_
#define MRS_ONLINE_ONLINE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "core/schedule.h"
#include "core/tree_schedule.h"
#include "cost/parallelize_cache.h"
#include "exec/trace.h"
#include "online/admission.h"
#include "plan/plan_tree.h"
#include "resource/machine.h"
#include "resource/usage_model.h"

namespace mrs {

struct OnlineSchedulerOptions {
  /// Overlap epsilon of the usage model (EA2) used for costing and
  /// placement. (Contended completions take each clone's T_seq as given.)
  double overlap_eps = 0.5;
  int num_disks = 1;
  /// Per-query TREESCHEDULE knobs, for the phases placed on admission and
  /// for the shortest-makespan-first estimate. `cache` and `trace` are
  /// managed by the scheduler itself (see use_cost_cache / collect_traces)
  /// and ignored. `tree.list_options.placement_index` selects the indexed
  /// placement engine for the residual-load OPERATORSCHEDULE path too (the
  /// base_load branch re-run per phase of every admitted query) — with P
  /// sites and MPL resident queries that path is the hot loop of the
  /// service, and the indexed and linear engines are pinned to produce
  /// byte-identical placements.
  TreeScheduleOptions tree;
  AdmissionOptions admission;
  /// Share one memoized parallelize cache across all queries.
  bool use_cost_cache = true;
  /// Record a per-query ScheduleTrace (planner spans plus the online
  /// placement spans), retrievable from OnlineQueryResult::trace.
  bool collect_traces = false;
  /// Clock for the traces; default is wall time. Inject
  /// ScheduleTrace::CountingClock() for byte-deterministic traces.
  ScheduleTrace::ClockFn trace_clock;
  /// Registry for the online.* counters/gauges/histograms; nullptr = the
  /// process-global registry.
  MetricsRegistry* metrics = nullptr;
  /// Bytes of materialized state per input byte of a state-building
  /// operator (hash table / group table / sorted runs); feeds the
  /// admission memory estimate.
  double state_overhead = 1.2;
};

enum class OnlineQueryState {
  kQueued,    ///< waiting for a multiprogramming slot
  kRunning,   ///< admitted; phases placing/executing on the virtual clock
  kDone,      ///< all phases completed
  kRejected,  ///< never admitted (queue full, memory, or pipeline error)
  kTimedOut,  ///< queue wait exceeded the request deadline
};

std::string_view OnlineQueryStateToString(OnlineQueryState state);

/// Timing of one placed phase on the virtual clock.
struct OnlinePhaseTiming {
  int phase = -1;
  double start_ms = 0.0;
  /// Barrier instant: when the last of the phase's clones finishes under
  /// contention.
  double finish_ms = 0.0;
  /// The phase's uncontended eq. (3) makespan (what the phase would take
  /// on an idle machine) — a lower bound on the contended duration.
  double uncontended_ms = 0.0;
  /// No-overlap serial bound: the max over touched sites of the summed
  /// remaining stand-alone times of resident + new clones at placement
  /// time. Time sharing can never do worse, so DurationMs() <= this.
  double serial_bound_ms = 0.0;

  double DurationMs() const { return finish_ms - start_ms; }
};

/// Everything the scheduler knows about one submitted query.
struct OnlineQueryResult {
  uint64_t id = 0;
  OnlineQueryState state = OnlineQueryState::kQueued;
  /// OK unless rejected / timed out / aborted (then the typed reason).
  Status status;
  double arrival_ms = 0.0;
  double admit_ms = -1.0;
  double finish_ms = -1.0;
  /// Idle-system response time (the offline TreeSchedule), made at
  /// submit. Set under shortest-makespan-first, its only reader; 0
  /// otherwise. Equals the contended response time exactly when the query
  /// runs alone.
  double expected_makespan_ms = 0.0;
  double memory_estimate_bytes = 0.0;
  /// Placed phases; each PhaseSchedule::makespan is the *contended*
  /// duration of the phase, so response_time = finish_ms - admit_ms.
  TreeScheduleResult schedule;
  std::vector<OnlinePhaseTiming> timings;
  std::shared_ptr<ScheduleTrace> trace;

  bool terminal() const {
    return state == OnlineQueryState::kDone ||
           state == OnlineQueryState::kRejected ||
           state == OnlineQueryState::kTimedOut;
  }
  /// Queue wait (admit - arrival); full wait for timed-out queries, 0
  /// while still queued or rejected.
  double QueueWaitMs() const;
  /// The (projected) completion instant: finish_ms once terminal, else
  /// admit_ms + the placed response time for a running query whose phases
  /// are all placed; -1 when not yet determined.
  double ProjectedFinishMs() const;
};

/// One in-flight clone's reservation at a site: its full work vector and
/// stand-alone time, and its [start, finish) window on the virtual clock.
struct ResidentClone {
  uint64_t query = 0;
  WorkVector work;
  double t_seq = 0.0;
  double start = 0.0;
  double finish = 0.0;
};

/// Contended timing of one phase whose clones all start at one instant.
struct PhaseProjection {
  std::vector<double> clone_finish;  ///< per placement, after the start
  double barrier_ms = 0.0;           ///< the largest clone_finish
  double serial_bound_ms = 0.0;      ///< see OnlinePhaseTiming
  int residents = 0;                 ///< resident clones on touched sites
};

/// Eq. (2) on each site `placements` touch, over all that shares it from
/// `now_ms` on as if started together: each resident's remaining part
/// (frac of its work and t_seq, A3) and the new clones. `resident` holds
/// no clone finished by now_ms + 1e-9. Sums run in the order of the
/// union-Schedule fluid simulation this replaced, so results are
/// bit-identical to it (tests/oracles/online_projection_oracle.h).
/// InvalidArgument when a new clone breaks max <= T_seq <= sum.
Result<PhaseProjection> ProjectContendedPhase(
    const std::vector<ClonePlacement>& placements,
    const std::vector<std::vector<ResidentClone>>& resident, double now_ms);

/// On-line multi-query scheduler: the multi-query follow-up the paper's
/// §9 sketches, built on the batch primitives. Queries arrive over a
/// *virtual* clock (milliseconds, same unit as the cost model); admission
/// control bounds the multiprogramming level; each admitted query's phases
/// are placed one at a time by PhasePlanner against the *residual* site
/// load — the remaining work vectors of the clones of co-resident queries
/// — so OPERATORSCHEDULE's least-loaded rule (eq. (2)/(3) over the union
/// of resident and new clones) becomes an incremental, residual-capacity
/// variant. Phase completions follow eq. (2) on each touched site over the
/// residents' remaining work plus the new clones (ProjectContendedPhase)
/// and drive the event loop.
///
/// The model is non-preemptive in reservations: a placed clone's finish
/// time is fixed when its phase is placed; later arrivals see its
/// *remaining* work (linear decay between start and finish) as residual
/// load but do not stretch it. On an idle machine the placements and the
/// phase durations are bit-identical to the offline TreeSchedule().
///
/// Deterministic and single-threaded: no wall clock, no threads; callers
/// (e.g. SchedService) serialize access.
class OnlineScheduler {
 public:
  OnlineScheduler(const CostParams& params, const MachineConfig& machine,
                  const OnlineSchedulerOptions& options = {});
  ~OnlineScheduler();  // out-of-line: QueryRec is incomplete here

  /// Submits a query arriving at virtual time max(arrival_ms, now());
  /// pending events up to the arrival instant fire first. `timeout_ms` is
  /// the queue-wait budget relative to arrival (< 0 = the admission
  /// default; 0 = reject unless admitted immediately). The plan is only
  /// read during the call. Returns the query id; the outcome — including
  /// a typed rejection — is read back via result().
  uint64_t Submit(const PlanTree& plan, double arrival_ms = -1.0,
                  double timeout_ms = -1.0);

  /// Fires all events up to `t_ms` and advances the clock to it.
  Status AdvanceTo(double t_ms);

  /// Runs the event loop until no query is queued or running.
  Status Drain();

  /// Advances the clock just far enough that `id` is Resolved().
  Status ResolveQuery(uint64_t id);

  /// True once the query is terminal OR running with every phase placed
  /// (its schedule and finish time are then fully determined, even though
  /// the virtual clock has not reached the finish instant).
  bool Resolved(uint64_t id) const;

  double now() const { return now_; }
  /// Result of a submitted query; nullptr for unknown ids and for ids
  /// whose result was taken (TakeResult) and whose query has since ended.
  /// Otherwise valid until the scheduler dies: results nobody takes are
  /// kept, finished queries included.
  const OnlineQueryResult* result(uint64_t id) const;

  /// Hands a Resolved() query's result to the caller and stops retaining
  /// it. The placed phases and timings are moved out, not copied. A
  /// terminal query's record is erased at once; a running query keeps
  /// only the scalars its completion still needs (state, admit_ms, the
  /// response time) — result() shows it with no phases — and its record
  /// is erased when it completes. NotFound for an unknown (or already
  /// taken and ended) id, FailedPrecondition while the query is not yet
  /// Resolved().
  Result<OnlineQueryResult> TakeResult(uint64_t id);

  /// Residual load per site at now(): the summed remaining work vectors of
  /// all in-flight clones. Exactly zero on an idle system.
  std::vector<WorkVector> ResidualLoad() const;

  int in_flight() const { return admission_.in_flight(); }
  int queue_depth() const { return admission_.queue_depth(); }

  /// Structural invariants the property tests lean on: residual load
  /// non-negative, resident clones within their [start, finish] windows,
  /// admission accounting consistent with query states.
  Status CheckInvariants() const;

  const MachineConfig& machine() const { return machine_; }
  const OnlineSchedulerOptions& options() const { return options_; }

 private:
  struct QueryRec;
  struct Event {
    double time = 0.0;
    uint64_t seq = 0;  // tie-break: creation order
    enum Kind { kPhaseDone, kDeadline } kind = kPhaseDone;
    uint64_t query = 0;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      // Finish wins a timestamp tie against a deadline: a clone finish
      // that frees a slot at the very instant a waiter's budget runs out
      // must dispatch first, so the waiter is admitted rather than timed
      // out (the admission path makes the same choice — see
      // TryAdmitFromQueue).
      if (a.kind != b.kind) return a.kind == Event::kDeadline;
      return a.seq > b.seq;
    }
  };
  void ProcessUntil(double t_ms);
  void Dispatch(const Event& event);
  void PushEvent(double time, Event::Kind kind, uint64_t query);
  /// Creates the query's PhasePlanner and, under shortest-makespan-first,
  /// the idle-system estimate; otherwise PhasePlanner::Prepare. A failure
  /// here rejects the query before admission.
  Status PlanAtSubmit(QueryRec* rec);
  void AdmitQuery(QueryRec* rec);
  void PlaceNextPhase(QueryRec* rec);
  void CompleteQuery(QueryRec* rec, double at_ms);
  void AbortQuery(QueryRec* rec, Status status);
  void FinalizeRejected(QueryRec* rec, Status status, OnlineQueryState state);
  void TryAdmitFromQueue();
  void ExpireWaiters();  // times out queued queries past their budget
  void RetireThrough(double t_ms);
  /// Retires finished reservations; returns `load` = ResidualLoad(), or
  /// nullptr on an idle machine, which keeps the placement engines on
  /// their exact offline code path (bit-identical placements).
  const std::vector<WorkVector>* ResidualBaseNow(std::vector<WorkVector>* load);
  AdmissionRequest RequestOf(const QueryRec& rec) const;
  void UpdateGauges();

  CostParams params_;
  MachineConfig machine_;
  OnlineSchedulerOptions options_;
  OverlapUsageModel usage_;
  ParallelizeCache cache_;
  AdmissionController admission_;

  double now_ = 0.0;
  uint64_t next_id_ = 1;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::map<uint64_t, std::unique_ptr<QueryRec>> queries_;
  /// Per-site reservations of running queries (retired lazily).
  std::vector<std::vector<ResidentClone>> resident_;

  Counter* submitted_ = nullptr;
  Counter* admitted_ = nullptr;
  Counter* rejected_ = nullptr;
  Counter* timeout_ = nullptr;
  Gauge* queue_gauge_ = nullptr;
  Gauge* in_flight_gauge_ = nullptr;
  Histogram* queue_wait_hist_ = nullptr;
  Histogram* makespan_hist_ = nullptr;
};

}  // namespace mrs

#endif  // MRS_ONLINE_ONLINE_SCHEDULER_H_
