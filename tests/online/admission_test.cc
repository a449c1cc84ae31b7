#include "online/admission.h"

#include <gtest/gtest.h>

namespace mrs {
namespace {

AdmissionRequest Req(uint64_t id, double arrival, double makespan = 10.0,
                     double memory = 0.0, double deadline = -1.0) {
  AdmissionRequest r;
  r.id = id;
  r.arrival_ms = arrival;
  r.deadline_ms = deadline;
  r.expected_makespan_ms = makespan;
  r.memory_bytes = memory;
  return r;
}

TEST(AdmissionOptionsTest, Validates) {
  AdmissionOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  AdmissionOptions bad_mpl;
  bad_mpl.max_in_flight = 0;
  EXPECT_EQ(bad_mpl.Validate().code(), StatusCode::kInvalidArgument);
  AdmissionOptions bad_depth;
  bad_depth.max_queue_depth = -1;
  EXPECT_EQ(bad_depth.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(AdmissionControllerTest, AdmitsUpToMplThenQueues) {
  AdmissionOptions options;
  options.max_in_flight = 2;
  AdmissionController ctl(options);
  Status why;
  EXPECT_EQ(ctl.OnArrival(Req(1, 0.0), &why),
            AdmissionController::Decision::kAdmit);
  ctl.OnAdmitted(Req(1, 0.0));
  EXPECT_EQ(ctl.OnArrival(Req(2, 1.0), &why),
            AdmissionController::Decision::kAdmit);
  ctl.OnAdmitted(Req(2, 1.0));
  EXPECT_EQ(ctl.OnArrival(Req(3, 2.0), &why),
            AdmissionController::Decision::kQueue);
  EXPECT_EQ(ctl.in_flight(), 2);
  EXPECT_EQ(ctl.queue_depth(), 1);
}

TEST(AdmissionControllerTest, RejectsWhenQueueFull) {
  AdmissionOptions options;
  options.max_in_flight = 1;
  options.max_queue_depth = 1;
  AdmissionController ctl(options);
  Status why;
  ASSERT_EQ(ctl.OnArrival(Req(1, 0.0), &why),
            AdmissionController::Decision::kAdmit);
  ctl.OnAdmitted(Req(1, 0.0));
  ASSERT_EQ(ctl.OnArrival(Req(2, 1.0), &why),
            AdmissionController::Decision::kQueue);
  EXPECT_EQ(ctl.OnArrival(Req(3, 2.0), &why),
            AdmissionController::Decision::kReject);
  EXPECT_EQ(why.code(), StatusCode::kUnavailable);
}

TEST(AdmissionControllerTest, NoOvertakingWhileQueueNonEmpty) {
  AdmissionOptions options;
  options.max_in_flight = 2;
  AdmissionController ctl(options);
  Status why;
  ASSERT_EQ(ctl.OnArrival(Req(1, 0.0), &why),
            AdmissionController::Decision::kAdmit);
  ctl.OnAdmitted(Req(1, 0.0));
  ASSERT_EQ(ctl.OnArrival(Req(2, 1.0), &why),
            AdmissionController::Decision::kAdmit);
  ctl.OnAdmitted(Req(2, 1.0));
  ASSERT_EQ(ctl.OnArrival(Req(3, 2.0), &why),
            AdmissionController::Decision::kQueue);
  ctl.OnFinished(Req(1, 0.0));
  // A slot is free, but query 3 waits in the queue: a newcomer must not
  // jump it.
  EXPECT_EQ(ctl.OnArrival(Req(4, 3.0), &why),
            AdmissionController::Decision::kQueue);
  AdmissionRequest next;
  ASSERT_TRUE(ctl.PopAdmissible(&next));
  EXPECT_EQ(next.id, 3u);
}

TEST(AdmissionControllerTest, FifoHeadOfLineBlocksOnMemory) {
  AdmissionOptions options;
  options.max_in_flight = 4;
  options.memory_limit_bytes = 100.0;
  AdmissionController ctl(options);
  Status why;
  ASSERT_EQ(ctl.OnArrival(Req(1, 0.0, 10.0, 80.0), &why),
            AdmissionController::Decision::kAdmit);
  ctl.OnAdmitted(Req(1, 0.0, 10.0, 80.0));
  // 50 bytes do not fit next to 80 -> queued despite free slots.
  ASSERT_EQ(ctl.OnArrival(Req(2, 1.0, 10.0, 50.0), &why),
            AdmissionController::Decision::kQueue);
  ASSERT_EQ(ctl.OnArrival(Req(3, 2.0, 10.0, 10.0), &why),
            AdmissionController::Decision::kQueue);
  AdmissionRequest next;
  // FIFO: the 50-byte head blocks even though the 10-byte entry would fit.
  EXPECT_FALSE(ctl.PopAdmissible(&next));
  ctl.OnFinished(Req(1, 0.0, 10.0, 80.0));
  ASSERT_TRUE(ctl.PopAdmissible(&next));
  EXPECT_EQ(next.id, 2u);
}

TEST(AdmissionControllerTest, FifoHeadOfLineStarvesSmallerFits) {
  // Pins the documented semantics: strict FIFO never lets a fitting
  // query overtake a blocked head — even across arbitrarily many
  // admission attempts and unrelated completions, the small request
  // starves until the head itself fits (fairness over utilization).
  AdmissionOptions options;
  options.max_in_flight = 4;
  options.memory_limit_bytes = 100.0;
  AdmissionController ctl(options);
  Status why;
  ASSERT_EQ(ctl.OnArrival(Req(1, 0.0, 10.0, 90.0), &why),
            AdmissionController::Decision::kAdmit);
  ctl.OnAdmitted(Req(1, 0.0, 10.0, 90.0));
  // Head needs 50 (doesn't fit next to 90); the 5-byte query behind it
  // would fit trivially.
  ASSERT_EQ(ctl.OnArrival(Req(2, 1.0, 10.0, 50.0), &why),
            AdmissionController::Decision::kQueue);
  ASSERT_EQ(ctl.OnArrival(Req(3, 2.0, 10.0, 5.0), &why),
            AdmissionController::Decision::kQueue);
  AdmissionRequest next;
  for (int attempt = 0; attempt < 10; ++attempt) {
    EXPECT_FALSE(ctl.PopAdmissible(&next)) << "attempt " << attempt;
  }
  // Unrelated zero-memory churn does not unblock the queue either.
  ctl.OnAdmitted(Req(10, 3.0, 10.0, 0.0));
  ctl.OnFinished(Req(10, 3.0, 10.0, 0.0));
  EXPECT_FALSE(ctl.PopAdmissible(&next));
  EXPECT_EQ(ctl.queue_depth(), 2);
  // Only the head's own memory becoming available drains it — in order.
  ctl.OnFinished(Req(1, 0.0, 10.0, 90.0));
  ASSERT_TRUE(ctl.PopAdmissible(&next));
  EXPECT_EQ(next.id, 2u);
  ASSERT_TRUE(ctl.PopAdmissible(&next));
  EXPECT_EQ(next.id, 3u);
}

TEST(AdmissionControllerTest, ShortestMakespanFirstSkipsOversized) {
  AdmissionOptions options;
  options.policy = AdmissionPolicy::kShortestMakespanFirst;
  options.max_in_flight = 4;
  options.memory_limit_bytes = 100.0;
  AdmissionController ctl(options);
  Status why;
  ASSERT_EQ(ctl.OnArrival(Req(1, 0.0, 10.0, 80.0), &why),
            AdmissionController::Decision::kAdmit);
  ctl.OnAdmitted(Req(1, 0.0, 10.0, 80.0));
  ASSERT_EQ(ctl.OnArrival(Req(2, 1.0, 5.0, 50.0), &why),
            AdmissionController::Decision::kQueue);
  ASSERT_EQ(ctl.OnArrival(Req(3, 2.0, 20.0, 10.0), &why),
            AdmissionController::Decision::kQueue);
  ASSERT_EQ(ctl.OnArrival(Req(4, 3.0, 8.0, 15.0), &why),
            AdmissionController::Decision::kQueue);
  AdmissionRequest next;
  // Query 2 is shortest but does not fit; 4 is the shortest that fits.
  ASSERT_TRUE(ctl.PopAdmissible(&next));
  EXPECT_EQ(next.id, 4u);
  ctl.OnAdmitted(next);
  // 95/100 bytes in use: nothing else fits until query 1 releases its 80.
  EXPECT_FALSE(ctl.PopAdmissible(&next));
  ctl.OnFinished(Req(1, 0.0, 10.0, 80.0));
  ASSERT_TRUE(ctl.PopAdmissible(&next));
  EXPECT_EQ(next.id, 2u);
}

TEST(AdmissionControllerTest, RejectsSingleQueryOverTotalBudget) {
  AdmissionOptions options;
  options.memory_limit_bytes = 100.0;
  AdmissionController ctl(options);
  Status why;
  EXPECT_EQ(ctl.OnArrival(Req(1, 0.0, 10.0, 150.0), &why),
            AdmissionController::Decision::kReject);
  EXPECT_EQ(why.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ctl.queue_depth(), 0);
}

TEST(AdmissionControllerTest, ExpiresDeadlinesInArrivalOrder) {
  AdmissionOptions options;
  options.max_in_flight = 1;
  AdmissionController ctl(options);
  Status why;
  ASSERT_EQ(ctl.OnArrival(Req(1, 0.0), &why),
            AdmissionController::Decision::kAdmit);
  ctl.OnAdmitted(Req(1, 0.0));
  ASSERT_EQ(ctl.OnArrival(Req(2, 1.0, 10.0, 0.0, 5.0), &why),
            AdmissionController::Decision::kQueue);
  ASSERT_EQ(ctl.OnArrival(Req(3, 2.0, 10.0, 0.0, 4.0), &why),
            AdmissionController::Decision::kQueue);
  ASSERT_EQ(ctl.OnArrival(Req(4, 3.0), &why),
            AdmissionController::Decision::kQueue);
  EXPECT_DOUBLE_EQ(ctl.NextDeadline(), 4.0);
  auto expired = ctl.ExpireDeadlines(4.5);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 3u);
  expired = ctl.ExpireDeadlines(10.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 2u);
  EXPECT_EQ(ctl.queue_depth(), 1);
  EXPECT_LT(ctl.NextDeadline(), 0.0);
}

TEST(AdmissionControllerTest, MemoryAccountingReleasesOnFinish) {
  AdmissionOptions options;
  options.memory_limit_bytes = 100.0;
  AdmissionController ctl(options);
  Status why;
  ASSERT_EQ(ctl.OnArrival(Req(1, 0.0, 10.0, 60.0), &why),
            AdmissionController::Decision::kAdmit);
  ctl.OnAdmitted(Req(1, 0.0, 10.0, 60.0));
  EXPECT_DOUBLE_EQ(ctl.memory_in_use_bytes(), 60.0);
  ctl.OnFinished(Req(1, 0.0, 10.0, 60.0));
  EXPECT_DOUBLE_EQ(ctl.memory_in_use_bytes(), 0.0);
  EXPECT_EQ(ctl.in_flight(), 0);
}

TEST(AdmissionPolicyTest, Names) {
  EXPECT_EQ(AdmissionPolicyToString(AdmissionPolicy::kFifo), "fifo");
  EXPECT_EQ(AdmissionPolicyToString(AdmissionPolicy::kShortestMakespanFirst),
            "shortest-makespan-first");
}

}  // namespace
}  // namespace mrs
