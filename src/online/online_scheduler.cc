#include "online/online_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "cost/cost_model.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"

namespace mrs {

namespace {

constexpr double kTimeTol = 1e-9;

/// Bytes of materialized state per input byte of a state-building
/// operator (hash table / group table / sorted runs); feeds the admission
/// memory estimate.
constexpr double kStateOverhead = 1.2;

/// Fraction of a clone's work still ahead of it at time t under the A3
/// uniform-usage assumption (linear decay over [start, finish]).
double RemainingFraction(double start, double finish, double t) {
  const double span = finish - start;
  if (span <= 0) return 0.0;
  const double frac = (finish - t) / span;
  return std::min(1.0, std::max(0.0, frac));
}

/// True when the operator materializes state that stays resident for the
/// lifetime of its blocking consumer (hash table, group table, sorted
/// runs) — the footprint admission's memory budget meters.
bool MaterializesState(OperatorKind kind) {
  return kind == OperatorKind::kBuild || kind == OperatorKind::kAggBuild ||
         kind == OperatorKind::kSortRun;
}

}  // namespace

Result<PhaseProjection> ProjectContendedPhase(
    const std::vector<ClonePlacement>& placements,
    const std::vector<std::vector<ResidentClone>>& resident, double now_ms) {
  // Eq. (2) terms of each touched site: the summed remaining work, the
  // longest remaining stand-alone time, and the summed stand-alone times.
  struct SiteTerms {
    WorkVector load;  // empty until a new clone touches the site
    double own = 0.0;
    double serial = 0.0;
  };
  std::vector<SiteTerms> sites(resident.size());
  PhaseProjection out;
  for (const ClonePlacement& p : placements) {
    if (!SequentialTimeWithinBounds(p.work, p.t_seq, 1e-6)) {
      return Status::InvalidArgument(StrFormat(
          "clone of op%d violates max <= T_seq <= sum", p.op_id));
    }
    SiteTerms& site = sites[static_cast<size_t>(p.site)];
    if (site.load.empty()) {
      // Residents first, summed from zero in resident order, then the new
      // clones in placement order: the union schedule's order.
      site.load = WorkVector(p.work.dim());
      for (const ResidentClone& c : resident[static_cast<size_t>(p.site)]) {
        const double frac = RemainingFraction(c.start, c.finish, now_ms);
        site.load.AddScaled(c.work, frac);
        site.own = std::max(site.own, c.t_seq * frac);
        site.serial += c.t_seq * frac;
        ++out.residents;
      }
    }
    site.load += p.work;
    site.own = std::max(site.own, p.t_seq);
    site.serial += p.t_seq;
  }
  out.clone_finish.reserve(placements.size());
  for (const ClonePlacement& p : placements) {
    const SiteTerms& site = sites[static_cast<size_t>(p.site)];
    const double fin = std::max(site.own, site.load.Length());
    out.clone_finish.push_back(fin);
    out.barrier_ms = std::max(out.barrier_ms, fin);
    out.serial_bound_ms = std::max(out.serial_bound_ms, site.serial);
  }
  return out;
}

std::string_view OnlineQueryStateToString(OnlineQueryState state) {
  switch (state) {
    case OnlineQueryState::kQueued:
      return "queued";
    case OnlineQueryState::kRunning:
      return "running";
    case OnlineQueryState::kDone:
      return "done";
    case OnlineQueryState::kRejected:
      return "rejected";
    case OnlineQueryState::kTimedOut:
      return "timed-out";
  }
  return "unknown";
}

double OnlineQueryResult::QueueWaitMs() const {
  if (admit_ms >= 0) return admit_ms - arrival_ms;
  if (state == OnlineQueryState::kTimedOut) return finish_ms - arrival_ms;
  return 0.0;
}

double OnlineQueryResult::ProjectedFinishMs() const {
  if (finish_ms >= 0) return finish_ms;
  if (admit_ms >= 0) return admit_ms + schedule.response_time;
  return -1.0;
}

struct OnlineScheduler::QueryRec {
  OnlineQueryResult result;
  /// Absolute queue-wait deadline; < 0 = none.
  double deadline_ms = -1.0;
  // The expanded pipeline inputs must stay address-stable while the
  // planner references them (TaskTree also points back into the
  // OperatorTree); all are released once the query leaves the machine.
  std::unique_ptr<OperatorTree> ops;
  std::unique_ptr<TaskTree> task_tree;
  std::vector<OperatorCost> costs;
  std::unique_ptr<PhasePlanner> planner;
  bool fully_placed = false;
  /// TakeResult handed the result out: erase the record once terminal.
  bool taken = false;

  void ReleasePipeline() {
    planner.reset();
    task_tree.reset();
    ops.reset();
    costs.clear();
    costs.shrink_to_fit();
  }
};

OnlineScheduler::OnlineScheduler(const CostParams& params,
                                 const MachineConfig& machine,
                                 const OnlineSchedulerOptions& options)
    : params_(params),
      machine_(machine),
      options_(options),
      usage_(options.overlap_eps),
      cache_(params, options.overlap_eps, options.tree.granularity,
             machine.num_sites, options.metrics),
      admission_(options.admission),
      resident_(static_cast<size_t>(machine.num_sites)) {
  MetricsRegistry* registry =
      options_.metrics != nullptr ? options_.metrics : &MetricsRegistry::Global();
  submitted_ = registry->GetCounter("online.submitted");
  admitted_ = registry->GetCounter("online.admitted");
  rejected_ = registry->GetCounter("online.rejected");
  timeout_ = registry->GetCounter("online.timeout");
  queue_gauge_ = registry->GetGauge("online.queue_depth");
  in_flight_gauge_ = registry->GetGauge("online.in_flight");
  queue_wait_hist_ = registry->GetHistogram("online.queue_wait_ms");
  makespan_hist_ = registry->GetHistogram("online.makespan_ms");
}

OnlineScheduler::~OnlineScheduler() = default;

uint64_t OnlineScheduler::Submit(const PlanTree& plan, double arrival_ms,
                                 double timeout_ms) {
  if (arrival_ms < now_) arrival_ms = now_;
  ProcessUntil(arrival_ms);

  const uint64_t id = next_id_++;
  auto owned = std::make_unique<QueryRec>();
  QueryRec* rec = owned.get();
  queries_.emplace(id, std::move(owned));
  rec->result.id = id;
  rec->result.arrival_ms = arrival_ms;
  submitted_->Increment();

  double timeout = timeout_ms;
  if (timeout < 0) {
    const double def = admission_.options().default_timeout_ms;
    timeout = def > 0 ? def : -1.0;
  }
  if (timeout >= 0) rec->deadline_ms = arrival_ms + timeout;

  ScheduleTrace* trace = nullptr;
  if (options_.collect_traces) {
    rec->result.trace =
        options_.trace_clock
            ? std::make_shared<ScheduleTrace>(options_.trace_clock)
            : std::make_shared<ScheduleTrace>();
    rec->result.trace->set_label(
        StrFormat("query-%llu", static_cast<unsigned long long>(id)));
    trace = rec->result.trace.get();
  }

  SpanTimer expand_span(trace, "expand");
  auto op_tree = OperatorTree::FromPlan(plan);
  if (!op_tree.ok()) {
    FinalizeRejected(rec, op_tree.status(), OnlineQueryState::kRejected);
    return id;
  }
  rec->ops = std::make_unique<OperatorTree>(std::move(op_tree).value());
  auto task_tree = TaskTree::FromOperatorTree(rec->ops.get());
  if (!task_tree.ok()) {
    FinalizeRejected(rec, task_tree.status(), OnlineQueryState::kRejected);
    return id;
  }
  rec->task_tree = std::make_unique<TaskTree>(std::move(task_tree).value());
  if (expand_span.active()) {
    expand_span.AttrInt("ops", rec->ops->num_ops());
    expand_span.AttrInt("phases", rec->task_tree->num_phases());
  }
  expand_span.End();

  SpanTimer cost_span(trace, "cost_model");
  const CostModel model(params_, machine_.dims, options_.num_disks);
  auto costs = model.CostAll(*rec->ops);
  if (!costs.ok()) {
    FinalizeRejected(rec, costs.status(), OnlineQueryState::kRejected);
    return id;
  }
  rec->costs = std::move(costs).value();
  cost_span.End();

  // Admission estimates: the planner (see PlanAtSubmit) and the
  // materialized-state footprint.
  SpanTimer est_span(trace, "admission_estimate");
  Status planned = PlanAtSubmit(rec);
  if (!planned.ok()) {
    FinalizeRejected(rec, std::move(planned), OnlineQueryState::kRejected);
    return id;
  }
  for (const PhysicalOp& op : rec->ops->ops()) {
    if (MaterializesState(op.kind)) {
      rec->result.memory_estimate_bytes +=
          static_cast<double>(op.input_bytes()) * kStateOverhead;
    }
  }
  if (est_span.active()) {
    est_span.AttrDouble("expected_makespan_ms",
                        rec->result.expected_makespan_ms);
    est_span.AttrDouble("memory_bytes", rec->result.memory_estimate_bytes);
  }
  est_span.End();

  SpanTimer adm_span(trace, "admission");
  Status why;
  const auto decision = admission_.OnArrival(RequestOf(*rec), &why);
  switch (decision) {
    case AdmissionController::Decision::kAdmit:
      if (adm_span.active()) adm_span.Attr("decision", "admit");
      adm_span.End();
      AdmitQuery(rec);
      break;
    case AdmissionController::Decision::kQueue:
      if (adm_span.active()) {
        adm_span.Attr("decision", "queue");
        adm_span.AttrInt("queue_depth", admission_.queue_depth());
      }
      adm_span.End();
      if (rec->deadline_ms >= 0) {
        PushEvent(rec->deadline_ms, Event::kDeadline, id);
      }
      UpdateGauges();
      break;
    case AdmissionController::Decision::kReject:
      if (adm_span.active()) adm_span.Attr("decision", "reject");
      adm_span.End();
      FinalizeRejected(rec, std::move(why), OnlineQueryState::kRejected);
      break;
  }
  return id;
}

Status OnlineScheduler::PlanAtSubmit(QueryRec* rec) {
  TreeScheduleOptions tree_options = options_.tree;
  tree_options.cache = &cache_;
  tree_options.trace = rec->result.trace.get();
  auto planner = PhasePlanner::Create(*rec->ops, *rec->task_tree, rec->costs,
                                      params_, machine_, usage_, tree_options);
  if (!planner.ok()) return planner.status();
  rec->planner = std::make_unique<PhasePlanner>(std::move(planner).value());
  if (admission_.options().policy != AdmissionPolicy::kShortestMakespanFirst) {
    return rec->planner->Prepare();
  }
  tree_options.trace = nullptr;
  auto estimate = TreeSchedule(*rec->ops, *rec->task_tree, rec->costs,
                               params_, machine_, usage_, tree_options);
  if (!estimate.ok()) return estimate.status();
  rec->result.expected_makespan_ms = estimate->response_time;
  return Status::OK();
}

void OnlineScheduler::AdmitQuery(QueryRec* rec) {
  rec->result.state = OnlineQueryState::kRunning;
  rec->result.admit_ms = now_;
  admitted_->Increment();
  queue_wait_hist_->Record(now_ - rec->result.arrival_ms);
  admission_.OnAdmitted(RequestOf(*rec));
  UpdateGauges();
  rec->result.schedule.phases.reserve(
      static_cast<size_t>(rec->planner->num_phases()));
  PlaceNextPhase(rec);
}

void OnlineScheduler::PlaceNextPhase(QueryRec* rec) {
  std::vector<WorkVector> base;
  const std::vector<WorkVector>* base_ptr = ResidualBaseNow(&base);
  const int k = rec->planner->next_phase();
  auto phase = rec->planner->NextPhase(base_ptr);
  if (!phase.ok()) {
    AbortQuery(rec, phase.status());
    return;
  }

  SpanTimer place_span(rec->result.trace.get(), "online_place", k);
  const auto& placements = phase->schedule.placements();
  auto projection = ProjectContendedPhase(placements, resident_, now_);
  if (!projection.ok()) {
    place_span.End();
    AbortQuery(rec, projection.status());
    return;
  }

  // Reserve the new clones at their projected completion instants and
  // close the phase at the barrier (the last new clone's finish).
  for (size_t i = 0; i < placements.size(); ++i) {
    resident_[static_cast<size_t>(placements[i].site)].push_back(
        ResidentClone{rec->result.id, placements[i].work, placements[i].t_seq,
                      now_, now_ + projection->clone_finish[i]});
  }
  const double barrier = projection->barrier_ms;

  OnlinePhaseTiming timing;
  timing.phase = k;
  timing.start_ms = now_;
  timing.finish_ms = now_ + barrier;
  timing.uncontended_ms = phase->makespan;
  timing.serial_bound_ms = projection->serial_bound_ms;
  rec->result.timings.push_back(timing);

  PhaseSchedule placed = std::move(phase).value();
  placed.makespan = barrier;  // contended duration
  rec->result.schedule.response_time += barrier;
  rec->result.schedule.phases.push_back(std::move(placed));

  if (place_span.active()) {
    place_span.AttrInt("residents", projection->residents);
    place_span.AttrDouble("start_ms", timing.start_ms);
    place_span.AttrDouble("duration_ms", barrier);
    place_span.AttrDouble("uncontended_ms", timing.uncontended_ms);
    place_span.AttrDouble("serial_bound_ms", timing.serial_bound_ms);
  }
  place_span.End();

  rec->fully_placed = rec->planner->done();
  PushEvent(now_ + barrier, Event::kPhaseDone, rec->result.id);
}

void OnlineScheduler::CompleteQuery(QueryRec* rec, double at_ms) {
  rec->result.state = OnlineQueryState::kDone;
  rec->result.finish_ms = at_ms;
  makespan_hist_->Record(at_ms - rec->result.admit_ms);
  admission_.OnFinished(RequestOf(*rec));
  rec->ReleasePipeline();
  UpdateGauges();
  const bool taken = rec->taken;
  const uint64_t id = rec->result.id;
  TryAdmitFromQueue();
  // Only a fully placed (hence running, never aborted or expired) query
  // can have been taken, so completion is where its record retires.
  if (taken) queries_.erase(id);
}

void OnlineScheduler::AbortQuery(QueryRec* rec, Status status) {
  const uint64_t id = rec->result.id;
  for (auto& site : resident_) {
    std::erase_if(site, [id](const ResidentClone& c) { return c.query == id; });
  }
  admission_.OnFinished(RequestOf(*rec));
  rec->result.state = OnlineQueryState::kRejected;
  rec->result.status = std::move(status);
  rec->result.finish_ms = now_;
  rejected_->Increment();
  rec->ReleasePipeline();
  UpdateGauges();
  TryAdmitFromQueue();
}

void OnlineScheduler::FinalizeRejected(QueryRec* rec, Status status,
                                       OnlineQueryState state) {
  rec->result.state = state;
  rec->result.status = std::move(status);
  rec->result.finish_ms = now_;
  if (state == OnlineQueryState::kTimedOut) {
    timeout_->Increment();
  } else {
    rejected_->Increment();
  }
  rec->ReleasePipeline();
  UpdateGauges();
}

void OnlineScheduler::TryAdmitFromQueue() {
  // Admissible waiters first — finish wins a deadline tie: when a clone
  // finish frees a slot at the very instant a waiter's budget runs out,
  // the waiter is admitted, not timed out. (A waiter whose deadline
  // passed *strictly* earlier cannot reach this point still queued: its
  // kDeadline event already fired and expired it — EventLater orders
  // equal-time finishes ahead of deadlines for exactly this case.)
  AdmissionRequest req;
  while (admission_.PopAdmissible(&req)) {
    auto it = queries_.find(req.id);
    MRS_CHECK(it != queries_.end()) << "queued id unknown to the scheduler";
    AdmitQuery(it->second.get());
  }
  ExpireWaiters();
  UpdateGauges();
}

void OnlineScheduler::ExpireWaiters() {
  for (const AdmissionRequest& expired : admission_.ExpireDeadlines(now_)) {
    auto it = queries_.find(expired.id);
    if (it == queries_.end()) continue;
    FinalizeRejected(
        it->second.get(),
        Status::DeadlineExceeded(StrFormat(
            "queue wait exceeded the %.3f ms budget",
            expired.deadline_ms - expired.arrival_ms)),
        OnlineQueryState::kTimedOut);
  }
}

Status OnlineScheduler::AdvanceTo(double t_ms) {
  ProcessUntil(t_ms);
  return Status::OK();
}

Status OnlineScheduler::Drain() {
  while (!events_.empty()) {
    const Event event = events_.top();
    events_.pop();
    Dispatch(event);
  }
  if (admission_.queue_depth() > 0 || admission_.in_flight() > 0) {
    return Status::Internal(
        StrFormat("drain left %d queued and %d running queries",
                  admission_.queue_depth(), admission_.in_flight()));
  }
  RetireThrough(now_);
  return Status::OK();
}

Status OnlineScheduler::ResolveQuery(uint64_t id) {
  if (queries_.find(id) == queries_.end()) {
    return Status::NotFound(StrFormat(
        "unknown query id %llu", static_cast<unsigned long long>(id)));
  }
  while (!Resolved(id)) {
    if (events_.empty()) {
      return Status::Internal("query unresolved but no pending events");
    }
    const Event event = events_.top();
    events_.pop();
    Dispatch(event);
  }
  return Status::OK();
}

bool OnlineScheduler::Resolved(uint64_t id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  const QueryRec& rec = *it->second;
  return rec.result.terminal() ||
         (rec.result.state == OnlineQueryState::kRunning && rec.fully_placed);
}

const OnlineQueryResult* OnlineScheduler::result(uint64_t id) const {
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : &it->second->result;
}

Result<OnlineQueryResult> OnlineScheduler::TakeResult(uint64_t id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StrFormat(
        "unknown query id %llu", static_cast<unsigned long long>(id)));
  }
  if (!Resolved(id)) {
    return Status::FailedPrecondition(StrFormat(
        "query %llu is not resolved", static_cast<unsigned long long>(id)));
  }
  OnlineQueryResult& kept = it->second->result;
  std::vector<PhaseSchedule> phases = std::exchange(kept.schedule.phases, {});
  std::vector<OnlinePhaseTiming> timings = std::exchange(kept.timings, {});
  OnlineQueryResult out = kept;  // what is left: scalars, status, trace
  out.schedule.phases = std::move(phases);
  out.timings = std::move(timings);
  if (kept.terminal()) {
    queries_.erase(it);
  } else {
    it->second->taken = true;
  }
  return out;
}

Status OnlineScheduler::CheckInvariants() const {
  for (int s = 0; s < machine_.num_sites; ++s) {
    for (const ResidentClone& c : resident_[static_cast<size_t>(s)]) {
      if (!c.work.IsNonNegative()) {
        return Status::Internal(
            StrFormat("site %d holds a clone with negative work", s));
      }
      if (c.finish + kTimeTol < c.start) {
        return Status::Internal(
            StrFormat("site %d holds a clone finishing before it starts", s));
      }
    }
  }
  for (const WorkVector& w : ResidualLoad()) {
    if (!w.IsNonNegative()) {
      return Status::Internal("negative residual load component");
    }
  }
  int running = 0;
  int queued = 0;
  for (const auto& entry : queries_) {
    const OnlineQueryState state = entry.second->result.state;
    if (state == OnlineQueryState::kRunning) ++running;
    if (state == OnlineQueryState::kQueued) ++queued;
  }
  if (running != admission_.in_flight()) {
    return Status::Internal(
        StrFormat("%d running queries but admission tracks %d", running,
                  admission_.in_flight()));
  }
  if (queued != admission_.queue_depth()) {
    return Status::Internal(
        StrFormat("%d queued queries but admission tracks %d", queued,
                  admission_.queue_depth()));
  }
  if (running > admission_.options().max_in_flight) {
    return Status::Internal("multiprogramming level exceeded");
  }
  return Status::OK();
}

void OnlineScheduler::ProcessUntil(double t_ms) {
  while (!events_.empty() && events_.top().time <= t_ms) {
    const Event event = events_.top();
    events_.pop();
    Dispatch(event);
  }
  if (t_ms > now_) now_ = t_ms;
}

void OnlineScheduler::Dispatch(const Event& event) {
  if (event.time > now_) now_ = event.time;
  auto it = queries_.find(event.query);
  if (it == queries_.end()) return;
  QueryRec* rec = it->second.get();
  switch (event.kind) {
    case Event::kPhaseDone:
      if (rec->result.state != OnlineQueryState::kRunning) return;  // stale
      if (!rec->planner->done()) {
        PlaceNextPhase(rec);
      } else {
        CompleteQuery(rec, event.time);
      }
      break;
    case Event::kDeadline:
      if (rec->result.state != OnlineQueryState::kQueued) return;  // stale
      ExpireWaiters();
      break;
  }
}

void OnlineScheduler::PushEvent(double time, Event::Kind kind,
                                uint64_t query) {
  Event event;
  event.time = time;
  event.seq = next_seq_++;
  event.kind = kind;
  event.query = query;
  events_.push(event);
}

const std::vector<WorkVector>* OnlineScheduler::ResidualBaseNow(
    std::vector<WorkVector>* load) {
  RetireThrough(now_);
  for (const auto& site : resident_) {
    if (!site.empty()) {
      *load = ResidualLoad();
      return load;
    }
  }
  return nullptr;
}

void OnlineScheduler::RetireThrough(double t_ms) {
  for (auto& site : resident_) {
    std::erase_if(site, [t_ms](const ResidentClone& c) {
      return c.finish <= t_ms + kTimeTol;
    });
  }
}

std::vector<WorkVector> OnlineScheduler::ResidualLoad() const {
  std::vector<WorkVector> load(
      static_cast<size_t>(machine_.num_sites),
      WorkVector(static_cast<size_t>(machine_.dims)));
  for (int s = 0; s < machine_.num_sites; ++s) {
    for (const ResidentClone& c : resident_[static_cast<size_t>(s)]) {
      if (c.finish <= now_ + kTimeTol) continue;
      load[static_cast<size_t>(s)].AddScaled(
          c.work, RemainingFraction(c.start, c.finish, now_));
    }
  }
  return load;
}

AdmissionRequest OnlineScheduler::RequestOf(const QueryRec& rec) const {
  AdmissionRequest req;
  req.id = rec.result.id;
  req.arrival_ms = rec.result.arrival_ms;
  req.deadline_ms = rec.deadline_ms;
  req.expected_makespan_ms = rec.result.expected_makespan_ms;
  req.memory_bytes = rec.result.memory_estimate_bytes;
  return req;
}

void OnlineScheduler::UpdateGauges() {
  queue_gauge_->Set(static_cast<double>(admission_.queue_depth()));
  in_flight_gauge_->Set(static_cast<double>(admission_.in_flight()));
}

}  // namespace mrs
