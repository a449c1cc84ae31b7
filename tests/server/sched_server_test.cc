#include "server/sched_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "core/tree_schedule.h"
#include "io/plan_text.h"
#include "io/schedule_export.h"
#include "server/sched_client.h"
#include "server/sched_service.h"
#include "json_checker.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::JsonChecker;
using testing_util::MakeFixture;
using testing_util::PlanFixture;

PlanFixture SingleJoinFixture(int64_t outer, int64_t inner) {
  return MakeFixture({outer, inner}, [](PlanTree* plan) {
    plan->AddJoin(plan->AddLeaf(0).value(), plan->AddLeaf(1).value()).value();
  });
}

std::string PlanTextOf(const PlanFixture& fx) {
  auto text = WritePlanText(*fx.catalog, *fx.plan);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return std::move(text).value();
}

/// The "schedule" object embedded in an ok response.
std::string ScheduleJsonOf(const std::string& response) {
  const std::string key = "\"schedule\":";
  const size_t pos = response.find(key);
  EXPECT_NE(pos, std::string::npos) << response;
  if (pos == std::string::npos) return "";
  // The schedule object is the last field: strip the enclosing '}'.
  return response.substr(pos + key.size(),
                         response.size() - pos - key.size() - 1);
}

bool HasStatus(const std::string& response, const std::string& status) {
  return response.find("\"status\":\"" + status + "\"") != std::string::npos;
}

TEST(SchedServerTest, ConcurrentClientsGetOfflineByteIdenticalSchedules) {
  PlanFixture fx = SingleJoinFixture(6000, 3000);
  const std::string request = PlanTextOf(fx);

  OverlapUsageModel usage(0.5);
  auto offline = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                              MachineConfig{}, usage);
  ASSERT_TRUE(offline.ok());
  const std::string offline_json = TreeScheduleToJson(offline.value());

  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  // One query at a time: each admission happens on a drained machine, so
  // every response must embed the exact offline schedule.
  options.online.admission.max_in_flight = 1;
  SchedService service(options);
  SchedServer server(&service);

  constexpr int kClients = 4;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> client_threads;
  std::vector<std::thread> server_threads;
  std::vector<std::unique_ptr<Connection>> server_ends;
  for (int i = 0; i < kClients; ++i) {
    auto [client_end, server_end] = CreateInProcessPipe();
    server_ends.push_back(std::move(server_end));
    server_threads.emplace_back(
        [&server, conn = server_ends.back().get()] {
          server.ServeConnection(conn);
        });
    client_threads.emplace_back(
        [&request, &responses, i, conn = std::move(client_end)]() mutable {
          SchedClient client(std::move(conn));
          auto response = client.Call(request);
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          responses[i] = std::move(response).value();
          client.Close();
        });
  }
  for (auto& t : client_threads) t.join();
  for (auto& t : server_threads) t.join();
  server.Shutdown();

  for (const std::string& response : responses) {
    ASSERT_TRUE(HasStatus(response, "ok")) << response;
    EXPECT_EQ(ScheduleJsonOf(response), offline_json);
  }
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("online.submitted"), 4u);
  EXPECT_EQ(snap.CounterValue("online.admitted"), 4u);
}

TEST(SchedServerTest, UnderLoadEveryRequestIsAccountedFor) {
  PlanFixture fx = SingleJoinFixture(20000, 10000);
  const std::string plan_text = PlanTextOf(fx);

  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  options.online.admission.max_in_flight = 1;
  options.online.admission.max_queue_depth = 2;
  SchedService service(options);
  SchedServer server(&service);

  // A tight timeout forces queue expiries; a depth of 2 forces rejects.
  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> client_threads;
  std::vector<std::thread> server_threads;
  std::vector<std::unique_ptr<Connection>> server_ends;
  for (int i = 0; i < kClients; ++i) {
    auto [client_end, server_end] = CreateInProcessPipe();
    server_ends.push_back(std::move(server_end));
    server_threads.emplace_back(
        [&server, conn = server_ends.back().get()] {
          server.ServeConnection(conn);
        });
    const std::string request = "@timeout 0.5\n" + plan_text;
    client_threads.emplace_back(
        [request, &responses, i, conn = std::move(client_end)]() mutable {
          SchedClient client(std::move(conn));
          auto response = client.Call(request);
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          responses[i] = std::move(response).value();
          client.Close();
        });
  }
  for (auto& t : client_threads) t.join();
  for (auto& t : server_threads) t.join();
  server.Shutdown();
  ASSERT_TRUE(service.scheduler()->Drain().ok());

  int ok = 0, rejected = 0, timeout = 0;
  for (const std::string& response : responses) {
    if (HasStatus(response, "ok")) ++ok;
    if (HasStatus(response, "rejected")) ++rejected;
    if (HasStatus(response, "timeout")) ++timeout;
  }
  EXPECT_EQ(ok + rejected + timeout, kClients);

  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("online.submitted"),
            static_cast<uint64_t>(kClients));
  EXPECT_EQ(snap.CounterValue("online.admitted") +
                snap.CounterValue("online.rejected") +
                snap.CounterValue("online.timeout"),
            static_cast<uint64_t>(kClients));
  ASSERT_TRUE(service.scheduler()->CheckInvariants().ok());
}

TEST(SchedServerTest, MalformedRequestsYieldErrorResponses) {
  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);

  std::string response = service.Handle("this is not a plan");
  EXPECT_TRUE(HasStatus(response, "error")) << response;
  EXPECT_NE(response.find("\"code\":\"InvalidArgument\""), std::string::npos);

  response = service.Handle("@arrival nonsense\nrelation r 10\nplan (scan r)");
  EXPECT_TRUE(HasStatus(response, "error")) << response;

  response = service.Handle("@frobnicate 1\nrelation r 10\nplan (scan r)");
  EXPECT_TRUE(HasStatus(response, "error")) << response;
}

TEST(SchedServerTest, NonFiniteDirectivesAreRejectedAndLeaveTheClockAlone) {
  PlanFixture fx = SingleJoinFixture(4000, 2000);
  const std::string plan = PlanTextOf(fx);
  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);
  for (const char* directive :
       {"@arrival inf", "@arrival nan", "@arrival -inf", "@arrival 1e999",
        "@timeout inf", "@timeout nan"}) {
    const std::string response =
        service.Handle(std::string(directive) + "\n" + plan);
    EXPECT_TRUE(HasStatus(response, "error")) << response;
    EXPECT_NE(response.find("\"code\":\"InvalidArgument\""),
              std::string::npos)
        << response;
    EXPECT_TRUE(JsonChecker(response).Valid()) << response;
  }
  EXPECT_EQ(service.scheduler()->now(), 0.0);
  EXPECT_EQ(metrics.Snapshot().CounterValue("online.submitted"), 0u);

  // The next ordinary request sees an unpoisoned clock.
  const std::string response = service.Handle("@arrival 10\n" + plan);
  ASSERT_TRUE(HasStatus(response, "ok")) << response;
  EXPECT_TRUE(JsonChecker(response).Valid()) << response;
  EXPECT_NE(response.find("\"arrival_ms\":10.000000,\"admit_ms\":10.000000,"
                          "\"queue_wait_ms\":0.000000"),
            std::string::npos)
      << response;
}

TEST(SchedServerTest, ConcurrentHandleEncodesUnlockedAndRetainsNoResults) {
  // Two plans, so a reply carrying the wrong schedule cannot pass.
  const PlanFixture fixtures[] = {SingleJoinFixture(6000, 3000),
                                  BushyFourWayFixture()};
  std::string plans[2], offline_json[2];
  OverlapUsageModel usage(0.5);
  for (int p = 0; p < 2; ++p) {
    plans[p] = PlanTextOf(fixtures[p]);
    auto offline = TreeSchedule(fixtures[p].op_tree, fixtures[p].task_tree,
                                fixtures[p].costs, CostParams{},
                                MachineConfig{}, usage);
    ASSERT_TRUE(offline.ok());
    offline_json[p] = TreeScheduleToJson(offline.value());
  }

  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);

  // Stamps 10^7 ms apart dwarf any makespan here, so a request that
  // arrives at its own stamp finds the machine idle. A request that takes
  // the lock after a later stamp arrives at that later instant instead,
  // beside a resident query: its reply is checked for shape only.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  constexpr double kStampMs = 1e7;
  std::atomic<int> next_stamp{1};
  struct Reply {
    int plan = 0;
    double stamp = 0.0;
    std::string text;
  };
  std::vector<std::vector<Reply>> replies(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Reply r;
        r.plan = (t + i) % 2;
        r.stamp = next_stamp.fetch_add(1) * kStampMs;
        r.text = service.Handle(StrFormat("@arrival %.0f\n", r.stamp) +
                                plans[r.plan]);
        replies[static_cast<size_t>(t)].push_back(std::move(r));
      }
    });
  }
  for (auto& t : threads) t.join();

  int idle = 0;
  std::vector<uint64_t> ids;
  for (const auto& per_thread : replies) {
    for (const Reply& r : per_thread) {
      ASSERT_TRUE(JsonChecker(r.text).Valid()) << r.text.substr(0, 200);
      ASSERT_TRUE(HasStatus(r.text, "ok")) << r.text.substr(0, 200);
      ids.push_back(std::strtoull(
          r.text.c_str() + r.text.find("\"id\":") + 5, nullptr, 10));
      const std::string own_arrival =
          StrFormat("\"arrival_ms\":%.6f,", r.stamp);
      if (r.text.find(own_arrival) == std::string::npos) continue;
      ++idle;
      EXPECT_EQ(ScheduleJsonOf(r.text), offline_json[r.plan]);
    }
  }
  EXPECT_GE(idle, 1);  // the first request to take the lock always is
  ASSERT_EQ(ids.size(), static_cast<size_t>(kThreads * kPerThread));

  OnlineScheduler* scheduler = service.scheduler();
  ASSERT_TRUE(scheduler->Drain().ok());
  EXPECT_TRUE(scheduler->CheckInvariants().ok());
  EXPECT_EQ(scheduler->in_flight(), 0);
  for (uint64_t id : ids) {
    EXPECT_EQ(scheduler->result(id), nullptr) << "query " << id << " kept";
  }
  EXPECT_EQ(metrics.Snapshot().CounterValue("online.admitted"),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(SchedServerTest, DeeplyNestedPlanGetsAnErrorReplyAndServingContinues) {
  // About 210 KB of nested sorts, one frame well under the frame cap: it
  // used to exhaust the stack in the recursive plan passes.
  std::string deep = "relation r 1000\nplan ";
  for (int i = 0; i < 30000; ++i) deep += "(sort ";
  deep += "r";
  deep.append(30000, ')');
  const std::string plan = PlanTextOf(SingleJoinFixture(4000, 2000));

  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);
  SchedServer server(&service);
  Status started = server.Start("127.0.0.1", 0);
  ASSERT_TRUE(started.ok()) << started.ToString();
  auto client = SchedClient::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto response = client.value().Call(deep);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(HasStatus(response.value(), "error")) << response.value();
  EXPECT_NE(response.value().find("\"code\":\"InvalidArgument\""),
            std::string::npos)
      << response.value();
  EXPECT_TRUE(JsonChecker(response.value()).Valid()) << response.value();

  response = client.value().Call(plan);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(HasStatus(response.value(), "ok")) << response.value();
  EXPECT_TRUE(JsonChecker(response.value()).Valid());
  client.value().Close();
  server.Shutdown();
}

TEST(SchedServerTest, ArrivalDirectiveSetsVirtualTime) {
  PlanFixture fx = SingleJoinFixture(4000, 2000);
  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);
  const std::string response =
      service.Handle("@arrival 123.5\n" + PlanTextOf(fx));
  ASSERT_TRUE(HasStatus(response, "ok")) << response;
  EXPECT_NE(response.find("\"arrival_ms\":123.500000"), std::string::npos)
      << response;
}

TEST(SchedServerTest, ShutdownDrainsInFlightRequests) {
  PlanFixture fx = SingleJoinFixture(6000, 3000);
  const std::string request = PlanTextOf(fx);

  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);
  auto server = std::make_unique<SchedServer>(&service);

  auto [client_end, server_end] = CreateInProcessPipe();
  std::thread server_thread(
      [srv = server.get(), conn = server_end.get()] {
        srv->ServeConnection(conn);
      });

  SchedClient client(std::move(client_end));
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(HasStatus(response.value(), "ok"));

  // Shutdown with the connection still open: the serve loop must wind
  // down without the client hanging up first.
  std::thread shutdown_thread([srv = server.get()] { srv->Shutdown(); });
  server_thread.join();
  shutdown_thread.join();

  // The caller of ServeConnection owns the endpoint; close it like the
  // accept loop would, then a late call fails cleanly instead of hanging.
  server_end->Close();
  auto late = client.Call(request);
  EXPECT_FALSE(late.ok());
  server.reset();
}

TEST(SchedServerTest, TcpLoopbackRoundTrip) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  const std::string request = PlanTextOf(fx);

  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);
  SchedServer server(&service);
  Status started = server.Start("127.0.0.1", 0);
  ASSERT_TRUE(started.ok()) << started.ToString();
  ASSERT_GT(server.port(), 0);

  auto client = SchedClient::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client.value().Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(HasStatus(response.value(), "ok")) << response.value();
  client.value().Close();
  server.Shutdown();
}

}  // namespace
}  // namespace mrs
