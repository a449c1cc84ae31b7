#ifndef MRS_ONLINE_ADMISSION_H_
#define MRS_ONLINE_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"

namespace mrs {

/// Which queued query is admitted when a multiprogramming slot frees.
enum class AdmissionPolicy {
  /// Strict arrival order; a head-of-line query whose memory demand does
  /// not fit blocks the queue (fairness over utilization).
  kFifo,
  /// Shortest-expected-makespan-first: among the queued queries whose
  /// memory demand fits, admit the one with the smallest idle-system
  /// makespan estimate (ties broken by arrival order). The classic
  /// mean-response-time heuristic for on-line multi-query scheduling.
  kShortestMakespanFirst,
};

std::string_view AdmissionPolicyToString(AdmissionPolicy policy);

struct AdmissionOptions {
  AdmissionPolicy policy = AdmissionPolicy::kFifo;
  /// Multiprogramming level: queries running concurrently against the
  /// shared sites. Must be >= 1.
  int max_in_flight = 4;
  /// Arrivals beyond this many waiting queries are rejected with
  /// Unavailable. 0 = never queue (admit-or-reject).
  int max_queue_depth = 64;
  /// Default queue-wait budget for requests that do not carry their own
  /// (relative ms on the virtual clock); <= 0 = no deadline.
  double default_timeout_ms = -1.0;
  /// Aggregate memory budget for the materialized state (hash/group
  /// tables) of all running queries, in bytes; < 0 = unlimited. A single
  /// query whose estimate exceeds the budget is rejected outright.
  double memory_limit_bytes = -1.0;

  Status Validate() const;
};

/// One query's admission-relevant footprint.
struct AdmissionRequest {
  uint64_t id = 0;
  double arrival_ms = 0.0;
  /// Absolute deadline on the virtual clock; < 0 = none.
  double deadline_ms = -1.0;
  /// Idle-system makespan estimate. Set under kShortestMakespanFirst, its
  /// only reader; 0 otherwise.
  double expected_makespan_ms = 0.0;
  /// Estimated bytes of materialized state while running.
  double memory_bytes = 0.0;
};

/// Admission control for the online scheduler: bounded waiting queue,
/// multiprogramming-level and memory budgets, pluggable dequeue policy,
/// and per-request deadlines. Purely mechanical and single-threaded —
/// the OnlineScheduler drives it from its virtual-time event loop, and
/// it owns no clock of its own.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);

  enum class Decision { kAdmit, kQueue, kReject };

  /// Decides for an arriving request. kAdmit leaves all state untouched —
  /// the caller confirms with OnAdmitted once the query is actually
  /// placed. kQueue means the request was enqueued. kReject stores the
  /// typed reason in `why` (Unavailable for queue/memory pressure).
  Decision OnArrival(const AdmissionRequest& req, Status* why);

  /// Reserves a multiprogramming slot and the request's memory.
  void OnAdmitted(const AdmissionRequest& req);

  /// Releases the slot and memory of a running query that completed or
  /// was aborted.
  void OnFinished(const AdmissionRequest& req);

  /// Removes and returns every queued request whose deadline expired at
  /// or before `now_ms`, in arrival order.
  std::vector<AdmissionRequest> ExpireDeadlines(double now_ms);

  /// Removes the next admissible queued request (slot free and memory
  /// fits) into `out` per the policy; false when nothing can be admitted
  /// right now. Does not reserve — pair with OnAdmitted.
  bool PopAdmissible(AdmissionRequest* out);

  /// Earliest absolute deadline among queued requests; < 0 when none.
  double NextDeadline() const;

  int queue_depth() const { return static_cast<int>(queue_.size()); }
  int in_flight() const { return in_flight_; }
  double memory_in_use_bytes() const { return memory_in_use_; }
  const AdmissionOptions& options() const { return options_; }

 private:
  bool HasSlot() const { return in_flight_ < options_.max_in_flight; }
  bool MemoryFits(double bytes) const {
    return options_.memory_limit_bytes < 0 ||
           memory_in_use_ + bytes <= options_.memory_limit_bytes;
  }

  AdmissionOptions options_;
  std::deque<AdmissionRequest> queue_;  // arrival order
  int in_flight_ = 0;
  double memory_in_use_ = 0.0;
};

}  // namespace mrs

#endif  // MRS_ONLINE_ADMISSION_H_
