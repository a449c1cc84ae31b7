// Online service connection-scaling bench (real TCP; one JSON line per
// run, collected by scripts/run_benches.sh into BENCH_server.json): holds
// N idle connections against the reactor front-end while timing requests
// on one active connection — the "can one replica hold 100k sockets
// without hurting p99" axis.
//
// Usage: micro_online_throughput --connections=N [--requests=R]

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "io/plan_text.h"
#include "server/sched_client.h"
#include "server/sched_server.h"
#include "server/sched_service.h"
#include "server/transport.h"
#include "workload/generator.h"

namespace mrs {
namespace {

/// Resident set size of this process in bytes (VmRSS; both ends of every
/// loopback connection live here, so the number covers server + harness).
int64_t ReadRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atoll(line.c_str() + 6) * 1024;
    }
  }
  return -1;
}

/// Raises RLIMIT_NOFILE so `connections` loopback pairs (two fds each,
/// both in this process) fit; returns the usable soft limit.
rlim_t RaiseFdLimit(int connections) {
  rlimit lim{};
  ::getrlimit(RLIMIT_NOFILE, &lim);
  const rlim_t wanted = static_cast<rlim_t>(connections) * 2 + 128;
  if (lim.rlim_cur < wanted) {
    rlimit raised = lim;
    raised.rlim_cur = wanted;
    if (raised.rlim_max != RLIM_INFINITY && raised.rlim_max < wanted) {
      raised.rlim_max = wanted;  // needs CAP_SYS_RESOURCE; harmless to try
    }
    if (::setrlimit(RLIMIT_NOFILE, &raised) != 0) {
      raised.rlim_max = lim.rlim_max;
      raised.rlim_cur = std::min(wanted, lim.rlim_max);
      ::setrlimit(RLIMIT_NOFILE, &raised);
    }
    ::getrlimit(RLIMIT_NOFILE, &lim);
  }
  return lim.rlim_cur;
}

/// Helper-process mode (--hold-connections): opens `count` connections to
/// `port`, reports each connect's latency as a "C <ms>" line plus a final
/// "DONE <n>" on stdout, then holds every connection open until stdin
/// reaches EOF. Client-side fds live in these helpers so the parent's
/// RLIMIT_NOFILE is spent entirely on server-side sockets — the container
/// caps the fd hard limit (no CAP_SYS_RESOURCE), and both ends of a
/// loopback pair would otherwise share it.
int RunHold(int port, int count) {
  RaiseFdLimit(count);
  std::vector<std::unique_ptr<Connection>> held;
  held.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto conn = ConnectTcp("127.0.0.1", port);
    if (!conn.ok()) break;
    std::printf("C %.6f\n", std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    held.push_back(std::move(conn).value());
  }
  std::printf("DONE %zu\n", held.size());
  std::fflush(stdout);
  char buf[64];
  while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
  }
  return 0;
}

struct HoldChild {
  pid_t pid = -1;
  int hold_fd = -1;   // write end; closing releases the connections
  FILE* stats = nullptr;
};

/// Spawns a helper holding `count` idle connections against `port`. The
/// exec args are rendered before fork(): the parent is multithreaded, so
/// the child keeps to async-signal-safe calls until execl.
bool SpawnHold(int port, int count, HoldChild* child) {
  const std::string port_arg = StrFormat("--hold-connections=%d", port);
  const std::string count_arg = StrFormat("--hold-count=%d", count);
  int to_child[2], from_child[2];
  if (::pipe(to_child) != 0) return false;
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    return false;
  }
  if (pid == 0) {
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execl("/proc/self/exe", "micro_online_throughput", port_arg.c_str(),
            count_arg.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  child->pid = pid;
  child->hold_fd = to_child[1];
  child->stats = ::fdopen(from_child[0], "r");
  return child->stats != nullptr;
}

/// Connection-scaling axis: N idle connections held open while one active
/// connection runs `requests` scheduling round trips.
int RunConnections(int connections, int requests) {
  const rlim_t fd_limit = RaiseFdLimit(connections);
  // Parent budget: one server-side fd per connection plus slack for the
  // listener, epoll/eventfd, stats pipes, and stdio.
  const int usable =
      static_cast<int>(fd_limit > 256 ? fd_limit - 256 : fd_limit / 2);
  if (connections > usable) {
    std::fprintf(stderr,
                 "clamping --connections=%d to %d (RLIMIT_NOFILE %llu)\n",
                 connections, usable,
                 static_cast<unsigned long long>(fd_limit));
    connections = usable;
  }

  WorkloadParams wp;
  wp.num_joins = 4;
  wp.min_tuples = 1'000;
  wp.max_tuples = 50'000;
  Rng rng(0x9e3779b97f4a7c15ull);
  auto gen = GenerateQuery(wp, &rng);
  if (!gen.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 gen.status().ToString().c_str());
    return 1;
  }
  auto text = WritePlanText(*gen->catalog, *gen->plan);
  if (!text.ok()) return 1;

  MetricsRegistry metrics;
  SchedServiceOptions service_options;
  service_options.online.metrics = &metrics;
  SchedService service(service_options);
  SchedServerOptions server_options;
  server_options.metrics = &metrics;
  SchedServer server(&service, server_options);
  Status started = server.Start("127.0.0.1", 0);
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  const int64_t rss_before = ReadRssBytes();
  Histogram connect_ms;
  // Small runs hold the client ends in-process (2 fds per connection);
  // larger runs spawn helper processes so the parent's fd budget is spent
  // on server-side sockets only (1 fd per connection).
  const int in_process_cap =
      static_cast<int>(fd_limit > 256 ? (fd_limit - 256) / 2 : 32);
  std::vector<std::unique_ptr<Connection>> idle;
  std::vector<HoldChild> children;
  size_t established = 0;
  const auto establish_start = std::chrono::steady_clock::now();
  if (connections <= in_process_cap) {
    idle.reserve(static_cast<size_t>(connections));
    for (int i = 0; i < connections; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      auto conn = ConnectTcp("127.0.0.1", server.port());
      if (!conn.ok()) {
        std::fprintf(stderr, "connect %d/%d failed: %s\n", i, connections,
                     conn.status().ToString().c_str());
        break;
      }
      connect_ms.Record(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      idle.push_back(std::move(conn).value());
    }
    established = idle.size();
  } else {
    constexpr int kPerChild = 5000;
    for (int remaining = connections; remaining > 0;
         remaining -= kPerChild) {
      HoldChild child;
      if (!SpawnHold(server.port(), std::min(remaining, kPerChild),
                     &child)) {
        std::fprintf(stderr, "failed to spawn hold helper\n");
        break;
      }
      children.push_back(child);
    }
    // Helpers connect concurrently; read each stats stream to completion
    // ("DONE <n>" terminates it) to learn how many stuck.
    for (const HoldChild& child : children) {
      char line[64];
      while (std::fgets(line, sizeof(line), child.stats) != nullptr) {
        if (std::strncmp(line, "C ", 2) == 0) {
          connect_ms.Record(std::atof(line + 2));
        } else if (std::strncmp(line, "DONE ", 5) == 0) {
          established += static_cast<size_t>(std::atoll(line + 5));
          break;
        }
      }
    }
  }
  const double establish_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    establish_start)
          .count();

  // Wait for the server side to have absorbed every connection (accepts
  // lag connects), so the request timings below really run against N
  // resident sockets.
  const auto settle_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (true) {
    double server_conns = 0.0;
    for (const auto& [name, value] : metrics.Snapshot().gauges) {
      if (name == "server.connections") server_conns = value;
    }
    if (server_conns >= static_cast<double>(established)) break;
    if (std::chrono::steady_clock::now() > settle_deadline) {
      std::fprintf(stderr, "server absorbed only %.0f/%zu connections\n",
                   server_conns, established);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  Histogram request_ms;
  auto active = SchedClient::ConnectTcp("127.0.0.1", server.port());
  if (!active.ok()) {
    std::fprintf(stderr, "active connect failed: %s\n",
                 active.status().ToString().c_str());
    return 1;
  }
  int ok = 0;
  for (int r = 0; r < requests; ++r) {
    // Arrivals far apart in virtual time: every request schedules onto an
    // idle machine, so the work per request is constant and the timing
    // isolates the front-end.
    const std::string request =
        StrFormat("@arrival %d\n", r * 1'000'000) + text.value();
    const auto t0 = std::chrono::steady_clock::now();
    auto response = active->Call(request);
    request_ms.Record(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    if (response.ok() &&
        response.value().find("\"status\":\"ok\"") != std::string::npos) {
      ++ok;
    }
  }
  const int64_t rss_after = ReadRssBytes();
  active->Close();

  const MetricsSnapshot snap = metrics.Snapshot();
  std::printf(
      "{\"bench\":\"micro_server_connections\",\"version\":1,"
      "\"server\":\"reactor\",\"loop_threads\":1,"
      "\"connections_requested\":%d,\"connections_established\":%zu,"
      "\"hold_processes\":%zu,\"establish_seconds\":%.3f,"
      "\"connect_ms\":{\"p50\":%.4f,\"p99\":%.4f,\"max\":%.4f},"
      "\"requests\":%d,\"requests_ok\":%d,"
      "\"request_ms\":{\"p50\":%.4f,\"p99\":%.4f,\"max\":%.4f},"
      "\"rss_before_bytes\":%lld,\"rss_bytes\":%lld,"
      "\"accept_errors\":%llu,\"fd_limit\":%llu}\n",
      connections, established,
      children.size(), establish_seconds, connect_ms.ValueAtPercentile(0.5),
      connect_ms.ValueAtPercentile(0.99), connect_ms.max(), requests, ok,
      request_ms.ValueAtPercentile(0.5), request_ms.ValueAtPercentile(0.99),
      request_ms.max(), static_cast<long long>(rss_before),
      static_cast<long long>(rss_after),
      static_cast<unsigned long long>(
          snap.CounterValue("server.accept_errors")),
      static_cast<unsigned long long>(fd_limit));
  std::fflush(stdout);

  idle.clear();
  for (HoldChild& child : children) {
    ::close(child.hold_fd);  // stdin EOF tells the helper to release
    if (child.stats != nullptr) ::fclose(child.stats);
  }
  for (HoldChild& child : children) {
    int wstatus = 0;
    ::waitpid(child.pid, &wstatus, 0);
  }
  server.Shutdown();
  return ok == requests ? 0 : 1;
}

}  // namespace
}  // namespace mrs

int main(int argc, char** argv) {
  int connections = -1;
  int requests = 200;
  int hold_port = -1, hold_count = -1;
  bool unknown = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--hold-connections=", 19) == 0) {
      hold_port = std::atoi(argv[i] + 19);
    } else if (std::strncmp(argv[i], "--hold-count=", 13) == 0) {
      hold_count = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--connections=", 14) == 0) {
      connections = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = std::atoi(argv[i] + 11);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      unknown = true;
    }
  }
  if (!unknown && hold_port > 0 && hold_count > 0) {
    return mrs::RunHold(hold_port, hold_count);
  }
  if (unknown || connections < 0 || requests <= 0) {
    std::fprintf(stderr,
                 "usage: %s --connections=N [--requests=R]\n",
                 argv[0]);
    return 2;
  }
  return mrs::RunConnections(connections, requests);
}
