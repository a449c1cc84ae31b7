#include "server/sched_service.h"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/json_writer.h"
#include "common/str_util.h"
#include "io/plan_text.h"
#include "io/schedule_export.h"

namespace mrs {

namespace {

std::string ErrorResponse(const char* status, const Status& why) {
  std::string out;
  JsonWriter w(&out);
  w.Raw("{\"status\":").Str(status);
  w.Raw(",\"code\":").Str(StatusCodeToString(why.code()));
  w.Raw(",\"message\":").Str(why.message()).Raw("}");
  return out;
}

struct ParsedRequest {
  double arrival_ms = -1.0;
  double timeout_ms = -1.0;
  std::string plan_text;
};

Result<ParsedRequest> ParseRequest(const std::string& request) {
  ParsedRequest out;
  size_t pos = 0;
  while (pos < request.size() && request[pos] == '@') {
    size_t eol = request.find('\n', pos);
    if (eol == std::string::npos) eol = request.size();
    const std::string line = request.substr(pos, eol - pos);
    char* end = nullptr;
    const char* arg = line.c_str() + 8;
    if (line.rfind("@arrival", 0) == 0) {
      out.arrival_ms = std::strtod(arg, &end);
    } else if (line.rfind("@timeout", 0) == 0) {
      out.timeout_ms = std::strtod(arg, &end);
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown directive: %s", line.c_str()));
    }
    const bool converted = end != nullptr && end != arg;
    while (end != nullptr && *end == ' ') ++end;
    if (!converted || *end != '\0') {
      return Status::InvalidArgument(
          StrFormat("malformed directive: %s", line.c_str()));
    }
    // inf or nan would move the shared virtual clock (or a deadline)
    // beyond every later request and poison their replies.
    if (!std::isfinite(out.arrival_ms) || !std::isfinite(out.timeout_ms)) {
      return Status::InvalidArgument(
          StrFormat("non-finite directive: %s", line.c_str()));
    }
    pos = eol < request.size() ? eol + 1 : eol;
  }
  out.plan_text = request.substr(pos);
  return out;
}

}  // namespace

SchedService::SchedService(const SchedServiceOptions& options)
    : scheduler_(options.params, options.machine, options.online) {}

std::string SchedService::Handle(const std::string& request) {
  auto parsed_request = ParseRequest(request);
  if (!parsed_request.ok()) {
    return ErrorResponse("error", parsed_request.status());
  }
  auto parsed_plan = ParsePlanText(parsed_request->plan_text);
  if (!parsed_plan.ok()) {
    return ErrorResponse("error", parsed_plan.status());
  }
  if (parsed_plan->plan == nullptr) {
    return ErrorResponse(
        "error",
        Status::InvalidArgument(
            "request carries a graph stanza, not a plan; run the join-order "
            "optimizer first (sched_cli --optimize)"));
  }

  // Only the scheduler itself is serialized: the result leaves mu_ by
  // move, and the reply is encoded after unlocking, concurrently with
  // other requests.
  OnlineQueryResult result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = scheduler_.Submit(*parsed_plan->plan,
                                          parsed_request->arrival_ms,
                                          parsed_request->timeout_ms);
    const Status resolved = scheduler_.ResolveQuery(id);
    if (!resolved.ok()) {
      return ErrorResponse("error", resolved);
    }
    auto taken = scheduler_.TakeResult(id);
    if (!taken.ok()) {
      return ErrorResponse("error", taken.status());
    }
    result = std::move(taken).value();
  }
  switch (result.state) {
    case OnlineQueryState::kRejected:
      return ErrorResponse("rejected", result.status);
    case OnlineQueryState::kTimedOut:
      return ErrorResponse("timeout", result.status);
    case OnlineQueryState::kQueued:
      return ErrorResponse("error",
                           Status::Internal("query resolved while queued"));
    case OnlineQueryState::kRunning:
    case OnlineQueryState::kDone:
      break;
  }
  std::string reply;
  JsonWriter w(&reply);
  w.Raw("{\"status\":\"ok\",\"id\":").UInt(result.id);
  w.Raw(",\"arrival_ms\":").Num(result.arrival_ms);
  w.Raw(",\"admit_ms\":").Num(result.admit_ms);
  w.Raw(",\"queue_wait_ms\":").Num(result.QueueWaitMs());
  w.Raw(",\"finish_ms\":").Num(result.ProjectedFinishMs());
  w.Raw(",\"response_ms\":").Num(result.schedule.response_time);
  w.Raw(",\"schedule\":");
  AppendTreeScheduleJson(result.schedule, &reply);
  w.Raw("}");
  return reply;
}

}  // namespace mrs
