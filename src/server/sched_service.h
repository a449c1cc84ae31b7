#ifndef MRS_SERVER_SCHED_SERVICE_H_
#define MRS_SERVER_SCHED_SERVICE_H_

#include <mutex>
#include <string>

#include "cost/cost_params.h"
#include "online/online_scheduler.h"
#include "resource/machine.h"

namespace mrs {

struct SchedServiceOptions {
  CostParams params;
  MachineConfig machine;
  OnlineSchedulerOptions online;
};

/// The request/response core of the scheduling server, transport-free so
/// in-process tests and the socket front-end share one code path.
///
/// Request payload: optional leading directive lines, then plan text
/// (io/plan_text.h):
///
///   @arrival 120.5      # virtual arrival time in ms (default: now)
///   @timeout 50         # queue-wait budget in ms (default: admission's)
///   relation customer 30000
///   ...
///
/// Response payload: one JSON object.
///   admitted:  {"status":"ok","id":N,"arrival_ms":...,"admit_ms":...,
///               "queue_wait_ms":...,"finish_ms":...,"response_ms":...,
///               "schedule":<TreeScheduleToJson>}
///   rejected:  {"status":"rejected","code":"Unavailable","message":...}
///   timed out: {"status":"timeout","code":"DeadlineExceeded","message":...}
///   bad input: {"status":"error","code":...,"message":...}
///
/// Concurrent Handle() calls are safe. The internal mutex covers only the
/// scheduler, which is single-threaded by design: Submit, ResolveQuery and
/// TakeResult, which moves the result out so the scheduler retains no
/// served schedule. Request parsing before it and reply encoding after it
/// run unlocked, in parallel across callers. On an otherwise idle system
/// the embedded "schedule" JSON is byte-identical to the offline
/// TreeScheduleToJson output for the same plan.
///
/// Non-finite directive values (inf, nan) are rejected as InvalidArgument
/// and no number in a reply is printed as a bare inf or nan.
class SchedService {
 public:
  explicit SchedService(const SchedServiceOptions& options = {});
  virtual ~SchedService() = default;

  /// Processes one request payload into one response payload. Never
  /// throws; malformed input yields an "error" response. Virtual so the
  /// reactor-vs-threaded differential tests can substitute deterministic
  /// or adversarial (slow, oversized) handlers for the real scheduler.
  virtual std::string Handle(const std::string& request);

  /// The underlying scheduler. Callers must not touch it while another
  /// thread may be inside Handle (test/diagnostic aid). Queries served by
  /// Handle no longer appear in it once they have ended.
  OnlineScheduler* scheduler() { return &scheduler_; }

 private:
  std::mutex mu_;  // guards scheduler_ only
  OnlineScheduler scheduler_;
};

}  // namespace mrs

#endif  // MRS_SERVER_SCHED_SERVICE_H_
