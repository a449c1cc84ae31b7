#include "online/admission.h"

#include <algorithm>

#include "common/logging.h"
#include "common/str_util.h"

namespace mrs {

std::string_view AdmissionPolicyToString(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kFifo:
      return "fifo";
    case AdmissionPolicy::kShortestMakespanFirst:
      return "shortest-makespan-first";
  }
  return "unknown";
}

Status AdmissionOptions::Validate() const {
  if (max_in_flight < 1) {
    return Status::InvalidArgument(
        StrFormat("max_in_flight must be >= 1, got %d", max_in_flight));
  }
  if (max_queue_depth < 0) {
    return Status::InvalidArgument(
        StrFormat("max_queue_depth must be >= 0, got %d", max_queue_depth));
  }
  return Status::OK();
}

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options) {
  MRS_CHECK(options_.Validate().ok()) << "invalid AdmissionOptions";
}

AdmissionController::Decision AdmissionController::OnArrival(
    const AdmissionRequest& req, Status* why) {
  if (options_.memory_limit_bytes >= 0 &&
      req.memory_bytes > options_.memory_limit_bytes) {
    if (why != nullptr) {
      *why = Status::Unavailable(StrFormat(
          "query needs %s of table memory, budget is %s",
          FormatBytes(req.memory_bytes).c_str(),
          FormatBytes(options_.memory_limit_bytes).c_str()));
    }
    return Decision::kReject;
  }
  // Arrivals go behind the waiting queue: a free slot is only handed to a
  // newcomer when nobody is waiting (no overtaking at the door).
  if (queue_.empty() && HasSlot() && MemoryFits(req.memory_bytes)) {
    return Decision::kAdmit;
  }
  if (queue_depth() < options_.max_queue_depth) {
    queue_.push_back(req);
    return Decision::kQueue;
  }
  if (why != nullptr) {
    *why = Status::Unavailable(
        StrFormat("admission queue full (depth %d)", options_.max_queue_depth));
  }
  return Decision::kReject;
}

void AdmissionController::OnAdmitted(const AdmissionRequest& req) {
  ++in_flight_;
  memory_in_use_ += req.memory_bytes;
}

void AdmissionController::OnFinished(const AdmissionRequest& req) {
  MRS_CHECK(in_flight_ > 0) << "OnFinished without a running query";
  --in_flight_;
  memory_in_use_ -= req.memory_bytes;
  if (memory_in_use_ < 0) memory_in_use_ = 0;  // fp dust
}

std::vector<AdmissionRequest> AdmissionController::ExpireDeadlines(
    double now_ms) {
  std::vector<AdmissionRequest> expired;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline_ms >= 0 && it->deadline_ms <= now_ms) {
      expired.push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

bool AdmissionController::PopAdmissible(AdmissionRequest* out) {
  if (queue_.empty() || !HasSlot()) return false;
  if (options_.policy == AdmissionPolicy::kFifo) {
    if (MemoryFits(queue_.front().memory_bytes)) {
      *out = queue_.front();
      queue_.pop_front();
      return true;
    }
    // Head-of-line query does not fit memory. Strict FIFO blocks here:
    // smaller fitting queries behind the head wait until running queries
    // free its memory (fairness over utilization).
    return false;
  }
  // Shortest-expected-makespan-first among the entries that fit memory.
  auto best = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (!MemoryFits(it->memory_bytes)) continue;
    if (best == queue_.end() ||
        it->expected_makespan_ms < best->expected_makespan_ms) {
      best = it;
    }
  }
  if (best == queue_.end()) return false;
  *out = *best;
  queue_.erase(best);
  return true;
}

double AdmissionController::NextDeadline() const {
  double next = -1.0;
  for (const auto& req : queue_) {
    if (req.deadline_ms < 0) continue;
    if (next < 0 || req.deadline_ms < next) next = req.deadline_ms;
  }
  return next;
}

}  // namespace mrs
