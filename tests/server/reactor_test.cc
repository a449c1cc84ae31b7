// Adversarial-connection and differential coverage for the epoll reactor
// front-end (server/sched_server.cc):
//
//  * reactor vs the blocking ServeConnection loop, one thread per
//    in-process pipe (the threaded oracle): byte-identical response
//    streams for the same per-client request streams (N concurrent
//    clients, mixed payload sizes forcing partial writes), and for the
//    real scheduling service on a sequential client;
//  * slow-loris byte-at-a-time framing, pipelined frames answered in
//    order, mid-frame disconnect and oversized-frame rejection without
//    tearing down the loop;
//  * drain-on-shutdown with a response still being computed;
//  * write-backlog cap: a peer that stops reading is closed with a typed
//    error (server.backlog_closed) instead of wedging the loop;
//  * peers that RST with responses queued must not kill the process
//    (the write path's MSG_NOSIGNAL vs SIGPIPE regression);
//  * accept survival under RLIMIT_NOFILE pressure (EMFILE) — the
//    `fast`-label smoke for ulimit -n.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/str_util.h"
#include "io/plan_text.h"
#include "server/framing.h"
#include "server/sched_client.h"
#include "server/sched_server.h"
#include "server/sched_service.h"
#include "server/transport.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::MakeFixture;
using testing_util::PlanFixture;

/// Deterministic request -> response transform: a checksum prefix plus the
/// doubled payload, so responses are fully reproducible across engines and
/// large enough (for large requests) to force partial writes.
class TransformService : public SchedService {
 public:
  static std::string Transform(const std::string& request) {
    uint64_t h = 1469598103934665603ull;
    for (unsigned char ch : request) {
      h ^= ch;
      h *= 1099511628211ull;
    }
    std::string out =
        StrFormat("%016llx:", static_cast<unsigned long long>(h));
    out += request;
    out += request;
    return out;
  }

  std::string Handle(const std::string& request) override {
    return Transform(request);
  }
};

/// Handle() that signals entry and then takes a while — the drain test's
/// "response still queued at Shutdown" window.
class SlowService : public SchedService {
 public:
  std::string Handle(const std::string& request) override {
    entered.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return "slow:" + request;
  }
  std::atomic<bool> entered{false};
};

/// Handle() returning a response far larger than the configured backlog
/// cap, for the stopped-reader test.
class BigService : public SchedService {
 public:
  std::string Handle(const std::string&) override {
    return std::string(12 * 1024 * 1024, 'x');
  }
};

SchedServerOptions ReactorOptions(MetricsRegistry* metrics) {
  SchedServerOptions options;
  options.metrics = metrics;
  return options;
}

/// Client connections to one SchedServer, over TCP to its reactor (the
/// server must be started) or over in-process pipes, each served by
/// ServeConnection on its own thread — the threaded oracle.
class Clients {
 public:
  Clients(SchedServer* server, bool tcp) : server_(server), tcp_(tcp) {}

  Result<SchedClient> Connect() {
    if (tcp_) return SchedClient::ConnectTcp("127.0.0.1", server_->port());
    auto [client_end, server_end] = CreateInProcessPipe();
    Connection* raw = server_end.get();
    server_ends_.push_back(std::move(server_end));
    serving_.emplace_back([server = server_, raw] {
      server->ServeConnection(raw);
    });
    return SchedClient(std::move(client_end));
  }

  /// Waits for every ServeConnection loop; close all clients first.
  void Join() {
    for (std::thread& t : serving_) t.join();
    serving_.clear();
  }

 private:
  SchedServer* server_;
  bool tcp_;
  std::vector<std::unique_ptr<Connection>> server_ends_;
  std::vector<std::thread> serving_;
};

/// The per-client request streams of the differential test: mixed sizes,
/// from empty through ~1 MiB responses (doubled 512 KiB requests).
std::vector<std::string> RequestStream(int client_id) {
  std::vector<std::string> requests;
  const size_t sizes[] = {0, 1, 17, 1000, 65536, 512 * 1024};
  for (int round = 0; round < 2; ++round) {
    for (size_t size : sizes) {
      std::string request(size, static_cast<char>('a' + client_id));
      request += StrFormat("|c%d r%d", client_id, round);
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

/// Runs `clients` concurrent clients against a fresh server, over TCP to
/// the reactor or over pipes to the threaded oracle, each sending its
/// RequestStream strictly request-by-request, and returns the per-client
/// response sequences.
std::vector<std::vector<std::string>> RunClients(bool tcp, int clients) {
  MetricsRegistry metrics;
  TransformService service;
  SchedServer server(&service, ReactorOptions(&metrics));
  if (tcp) {
    Status started = server.Start("127.0.0.1", 0);
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  Clients connections(&server, tcp);

  std::vector<std::vector<std::string>> responses(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int i = 0; i < clients; ++i) {
    auto client = connections.Connect();
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    if (!client.ok()) break;
    threads.emplace_back(
        [i, &responses, client = std::move(client).value()]() mutable {
          for (const std::string& request : RequestStream(i)) {
            auto response = client.Call(request);
            ASSERT_TRUE(response.ok()) << response.status().ToString();
            responses[i].push_back(std::move(response).value());
          }
          client.Close();
        });
  }
  for (std::thread& t : threads) t.join();
  connections.Join();
  server.Shutdown();
  return responses;
}

TEST(ReactorDifferentialTest, ConcurrentClientsByteIdenticalToThreadedOracle) {
  constexpr int kClients = 6;
  const auto reactor = RunClients(/*tcp=*/true, kClients);
  const auto threaded = RunClients(/*tcp=*/false, kClients);
  ASSERT_EQ(reactor.size(), threaded.size());
  for (int i = 0; i < kClients; ++i) {
    ASSERT_EQ(reactor[i].size(), threaded[i].size()) << "client " << i;
    for (size_t r = 0; r < reactor[i].size(); ++r) {
      // Byte-identical across front-ends, and both equal the ground truth.
      EXPECT_EQ(reactor[i][r], threaded[i][r])
          << "client " << i << " response " << r;
      EXPECT_EQ(reactor[i][r],
                TransformService::Transform(RequestStream(i)[r]));
    }
  }
}

TEST(ReactorDifferentialTest, RealServiceByteIdenticalToServeConnection) {
  PlanFixture fx = MakeFixture({6000, 3000}, [](PlanTree* plan) {
    plan->AddJoin(plan->AddLeaf(0).value(), plan->AddLeaf(1).value()).value();
  });
  auto text = WritePlanText(*fx.catalog, *fx.plan);
  ASSERT_TRUE(text.ok()) << text.status().ToString();

  // A fresh scheduler per front-end and a single sequential client make
  // the full responses (ids, virtual times, schedule JSON) deterministic,
  // so the comparison really is byte-for-byte.
  auto run = [&](bool tcp) {
    MetricsRegistry metrics;
    SchedServiceOptions service_options;
    service_options.online.metrics = &metrics;
    service_options.online.admission.max_in_flight = 1;
    SchedService service(service_options);
    SchedServer server(&service, ReactorOptions(&metrics));
    if (tcp) {
      EXPECT_TRUE(server.Start("127.0.0.1", 0).ok());
    }
    Clients connections(&server, tcp);
    auto client = connections.Connect();
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    std::vector<std::string> responses;
    for (int r = 0; r < 5 && client.ok(); ++r) {
      auto response =
          client->Call(StrFormat("@arrival %d\n", r * 1000) + text.value());
      EXPECT_TRUE(response.ok()) << response.status().ToString();
      responses.push_back(std::move(response).value());
    }
    if (client.ok()) client->Close();
    connections.Join();
    server.Shutdown();
    return responses;
  };
  const auto reactor = run(true);
  const auto serve_connection = run(false);
  ASSERT_EQ(reactor.size(), 5u);
  ASSERT_EQ(reactor.size(), serve_connection.size());
  for (size_t r = 0; r < reactor.size(); ++r) {
    EXPECT_NE(reactor[r].find("\"status\":\"ok\""), std::string::npos)
        << reactor[r];
    EXPECT_EQ(reactor[r], serve_connection[r]) << "response " << r;
  }
}

TEST(ReactorAdversarialTest, SlowLorisByteAtATimeFrameIsServed) {
  MetricsRegistry metrics;
  TransformService service;
  SchedServer server(&service, ReactorOptions(&metrics));
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());

  auto conn = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  const std::string request = "drip-fed request";
  auto frame = EncodeFrame(request);
  ASSERT_TRUE(frame.ok());
  for (char byte : frame.value()) {
    ASSERT_TRUE(conn.value()->Write(&byte, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto response = ReadFrame(conn.value().get());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value(), TransformService::Transform(request));
  conn.value()->Close();
  server.Shutdown();
}

TEST(ReactorAdversarialTest, PipelinedFramesAnswerInOrder) {
  MetricsRegistry metrics;
  TransformService service;
  SchedServer server(&service, ReactorOptions(&metrics));
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());

  auto conn = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  // A burst of frames lands before any response is read; responses must
  // come back in request order.
  constexpr int kBurst = 12;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    auto frame = EncodeFrame(StrFormat("burst %d", i));
    ASSERT_TRUE(frame.ok());
    burst += frame.value();
  }
  ASSERT_TRUE(
      conn.value()->Write(burst.data(), static_cast<int>(burst.size())));
  for (int i = 0; i < kBurst; ++i) {
    auto response = ReadFrame(conn.value().get());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value(),
              TransformService::Transform(StrFormat("burst %d", i)));
  }
  conn.value()->Close();
  server.Shutdown();
}

TEST(ReactorAdversarialTest, MidFrameDisconnectLeavesLoopServing) {
  MetricsRegistry metrics;
  TransformService service;
  SchedServer server(&service, ReactorOptions(&metrics));
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());

  {
    auto victim = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(victim.ok());
    // Header promising 100 bytes, then 10 bytes, then disconnect.
    char header[kFrameHeaderBytes];
    EncodeFrameHeader(100, header);
    ASSERT_TRUE(victim.value()->Write(header, kFrameHeaderBytes));
    ASSERT_TRUE(victim.value()->Write("ten bytes.", 10));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    victim.value()->Close();
  }

  // The loop is still alive and serving.
  auto client = SchedClient::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Call("still here?");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value(), TransformService::Transform("still here?"));
  client->Close();
  server.Shutdown();
  EXPECT_GE(metrics.Snapshot().CounterValue("server.protocol_errors"), 1u);
}

TEST(ReactorAdversarialTest, OversizedFrameRejectedWithoutTearingDownLoop) {
  MetricsRegistry metrics;
  TransformService service;
  SchedServer server(&service, ReactorOptions(&metrics));
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());

  auto attacker = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(attacker.ok());
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(static_cast<uint32_t>(kMaxFrameBytes + 1), header);
  ASSERT_TRUE(attacker.value()->Write(header, kFrameHeaderBytes));
  // The server drops the connection without an allocation or a response.
  char buf[16];
  EXPECT_LE(attacker.value()->Read(buf, sizeof(buf)), 0);
  attacker.value()->Close();

  auto client = SchedClient::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Call("survivor");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value(), TransformService::Transform("survivor"));
  client->Close();
  server.Shutdown();
  EXPECT_GE(metrics.Snapshot().CounterValue("server.protocol_errors"), 1u);
}

TEST(ReactorAdversarialTest, ShutdownDrainsResponseStillBeingComputed) {
  MetricsRegistry metrics;
  SlowService service;
  auto server =
      std::make_unique<SchedServer>(&service, ReactorOptions(&metrics));
  ASSERT_TRUE(server->Start("127.0.0.1", 0).ok());

  auto conn = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(SendFrame(conn.value().get(), "drain me").ok());
  // Wait until the request is inside Handle, then shut down: the drain
  // guarantee says the fully received request still gets its response.
  while (!service.entered.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread shutdown_thread([&server] { server->Shutdown(); });
  auto response = ReadFrame(conn.value().get());
  shutdown_thread.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value(), "slow:drain me");
  conn.value()->Close();
  server.reset();
}

TEST(ReactorAdversarialTest, WriteBacklogCapClosesStoppedReader) {
  MetricsRegistry metrics;
  BigService service;
  SchedServerOptions options = ReactorOptions(&metrics);
  options.max_write_backlog_bytes = 64 * 1024;
  SchedServer server(&service, options);
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());

  auto conn = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  // Two requests for ~12 MiB responses each, reader never drains: kernel
  // buffers cannot absorb them, the per-connection backlog tops the
  // 64 KiB cap, and the server closes the connection with a typed error.
  ASSERT_TRUE(SendFrame(conn.value().get(), "a").ok());
  ASSERT_TRUE(SendFrame(conn.value().get(), "b").ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (metrics.Snapshot().CounterValue("server.backlog_closed") == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "backlog cap never tripped";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  conn.value()->Close();

  // The loop survived; backlog accounting returned to zero.
  auto client = SchedClient::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  server.Shutdown();
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_GE(snap.CounterValue("server.backlog_closed"), 1u);
  for (const auto& [name, value] : snap.gauges) {
    if (name == "server.write_backlog_bytes") EXPECT_EQ(value, 0.0);
  }
}

TEST(ReactorAdversarialTest, AbortingPeerWithQueuedResponsesDoesNotKillServer) {
  // Regression for the write path's SIGPIPE exposure: the reactor must
  // write with sendmsg(MSG_NOSIGNAL) so a peer that resets while 12 MiB
  // of response is still queued surfaces as EPIPE/ECONNRESET on that
  // connection. With a bare writev the kernel could deliver SIGPIPE,
  // whose default action kills the whole process — every other
  // connection with it. The clients here send a request, never read, and
  // abort with an RST (SO_LINGER {on, 0}) mid-response.
  MetricsRegistry metrics;
  BigService service;
  SchedServer server(&service, ReactorOptions(&metrics));
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());

  for (int round = 0; round < 10; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    auto frame = EncodeFrame("fire and forget");
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(::send(fd, frame->data(), frame->size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame->size()));
    // FIN now (half-close) so the server's side sits in CLOSE_WAIT while
    // it streams the response — the state where a subsequent RST marks
    // the socket EPIPE and a bare write raises SIGPIPE on its very next
    // call (an RST against ESTABLISHED yields only ECONNRESET first).
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    // Drain part of the response so the server keeps re-entering its
    // write burst, then abort with an RST (SO_LINGER {on, 0}) while it
    // is likely mid-burst with megabytes still queued.
    char sink[64 * 1024];
    size_t drained = 0;
    while (drained < (1u << 20) + static_cast<size_t>(round) * 37 * 1024) {
      const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
      if (n <= 0) break;
      drained += static_cast<size_t>(n);
    }
    const linger reset{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
    ::close(fd);
  }

  // The server notices every aborted connection, returns the backlog
  // accounting to zero, and the loop is still alive and serving.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (true) {
    const MetricsSnapshot snap = metrics.Snapshot();
    double connections = -1.0;
    double backlog = -1.0;
    for (const auto& [name, value] : snap.gauges) {
      if (name == "server.connections") connections = value;
      if (name == "server.write_backlog_bytes") backlog = value;
    }
    if (connections == 0.0 && backlog == 0.0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "aborted connections never fully reaped";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto client = SchedClient::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Call("still alive?");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().size(), 12u * 1024 * 1024);
  client->Close();
  server.Shutdown();
}

int CountOpenFds() {
  int count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

/// RAII guard restoring RLIMIT_NOFILE.
struct FdLimitGuard {
  FdLimitGuard() { ::getrlimit(RLIMIT_NOFILE, &saved); }
  ~FdLimitGuard() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  rlimit saved{};
};

/// The `fast`-label smoke that the server survives ulimit -n pressure:
/// with the fd table nearly exhausted, accept fails with EMFILE; the
/// server must count it, back off, keep serving existing connections, and
/// recover once descriptors free up.
TEST(ReactorAdversarialTest, ReactorAcceptSurvivesFdExhaustion) {
  const int used = CountOpenFds();
  ASSERT_GT(used, 0);
  FdLimitGuard guard;
  MetricsRegistry metrics;
  TransformService service;
  SchedServer server(&service, ReactorOptions(&metrics));
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());

  auto survivor = SchedClient::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(survivor.ok());
  auto ok = survivor->Call("before pressure");
  ASSERT_TRUE(ok.ok());

  rlimit tight = guard.saved;
  tight.rlim_cur = static_cast<rlim_t>(used + 12);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  // Fill the remaining descriptors with connection attempts. Client-side
  // connect() may succeed from the backlog even when the server side
  // cannot accept; what matters is the server surviving EMFILE.
  std::vector<std::unique_ptr<Connection>> hogs;
  for (int i = 0; i < 24; ++i) {
    auto conn = ConnectTcp("127.0.0.1", server.port());
    if (!conn.ok()) break;  // our own socket() hit the limit — also fine
    hogs.push_back(std::move(conn).value());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (metrics.Snapshot().CounterValue("server.accept_errors") == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "accept never hit resource pressure";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Existing connections still serve while accept is starved.
  auto during = survivor->Call("during pressure");
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(during.value(), TransformService::Transform("during pressure"));

  // Lift the limit, then free the descriptors: accept recovers after the
  // backoff and fresh connections serve again. The limit goes first
  // because destroying a connection with the fd table full can misfire
  // UBSan's vptr check, whose memory probe needs a free descriptor.
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &guard.saved), 0);
  hogs.clear();
  auto recovered_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (true) {
    auto fresh = SchedClient::ConnectTcp("127.0.0.1", server.port());
    if (fresh.ok()) {
      auto after = fresh->Call("after pressure");
      if (after.ok()) {
        EXPECT_EQ(after.value(),
                  TransformService::Transform("after pressure"));
        fresh->Close();
        break;
      }
    }
    ASSERT_LT(std::chrono::steady_clock::now(), recovered_deadline)
        << "accept never recovered after pressure lifted";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  survivor->Close();
  server.Shutdown();
  EXPECT_GE(metrics.Snapshot().CounterValue("server.accept_errors"), 1u);
}

TEST(ReactorMetricsTest, CountersAndGaugesTrackTraffic) {
  MetricsRegistry metrics;
  TransformService service;
  SchedServer server(&service, ReactorOptions(&metrics));
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());

  auto client = SchedClient::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  const std::string request = "count me";
  auto response = client->Call(request);
  ASSERT_TRUE(response.ok());

  // The connection is still open: the gauge must say so.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    const MetricsSnapshot snap = metrics.Snapshot();
    double connections = -1.0;
    for (const auto& [name, value] : snap.gauges) {
      if (name == "server.connections") connections = value;
    }
    if (connections == 1.0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  client->Close();
  server.Shutdown();

  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("server.bytes_in"),
            kFrameHeaderBytes + request.size());
  EXPECT_EQ(snap.CounterValue("server.bytes_out"),
            kFrameHeaderBytes + response.value().size());
  bool found = false;
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.name == "server.request_ms") {
      found = true;
      EXPECT_EQ(h.count, 1u);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace mrs
