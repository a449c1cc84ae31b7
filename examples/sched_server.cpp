// sched_server: the online scheduling service as a standalone process.
// Listens on TCP for length-prefixed plan-text requests (optionally with
// @arrival / @timeout directive lines) and answers each with a schedule
// JSON object — see src/server/sched_service.h for the wire contract.
//
// Usage:
//   sched_server [--port P] [--host H] [--sites N] [--eps E] [--f F]
//                [--mpl K] [--queue-depth D] [--timeout-ms T]
//                [--memory-limit BYTES] [--policy fifo|sjf]
//                [--workers W]
//
// The front-end is an epoll reactor: one loop thread serves every
// connection, and scheduling runs on W worker threads.
//
// Prints the bound address ("listening on HOST:PORT") on stdout, then
// serves until stdin reaches EOF (or the process is signalled), drains
// in-flight requests, and prints the online.* metrics on exit. Try it:
//
//   sched_server --port 4740 &
//   sched_cli plan.txt --connect 127.0.0.1:4740

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/metrics.h"
#include "server/sched_server.h"
#include "server/sched_service.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--host H] [--sites N] [--eps E] [--f F]\n"
               "          [--mpl K] [--queue-depth D] [--timeout-ms T]\n"
               "          [--memory-limit BYTES] [--policy fifo|sjf]\n"
               "          [--workers W]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrs;
  int port = 0;
  std::string host = "127.0.0.1";
  SchedServiceOptions options;
  SchedServerOptions server_options;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      port = std::atoi(need_value("--port"));
    } else if (std::strcmp(argv[i], "--host") == 0) {
      host = need_value("--host");
    } else if (std::strcmp(argv[i], "--sites") == 0) {
      options.machine.num_sites = std::atoi(need_value("--sites"));
    } else if (std::strcmp(argv[i], "--eps") == 0) {
      options.online.overlap_eps = std::atof(need_value("--eps"));
    } else if (std::strcmp(argv[i], "--f") == 0) {
      options.online.tree.granularity = std::atof(need_value("--f"));
    } else if (std::strcmp(argv[i], "--mpl") == 0) {
      options.online.admission.max_in_flight = std::atoi(need_value("--mpl"));
    } else if (std::strcmp(argv[i], "--queue-depth") == 0) {
      options.online.admission.max_queue_depth =
          std::atoi(need_value("--queue-depth"));
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      options.online.admission.default_timeout_ms =
          std::atof(need_value("--timeout-ms"));
    } else if (std::strcmp(argv[i], "--memory-limit") == 0) {
      options.online.admission.memory_limit_bytes =
          std::atof(need_value("--memory-limit"));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      server_options.worker_threads = std::atoi(need_value("--workers"));
      if (server_options.worker_threads <= 0) return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--policy") == 0) {
      const std::string policy = need_value("--policy");
      if (policy == "fifo") {
        options.online.admission.policy = AdmissionPolicy::kFifo;
      } else if (policy == "sjf") {
        options.online.admission.policy =
            AdmissionPolicy::kShortestMakespanFirst;
      } else {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
  }
  Status valid = options.online.admission.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid options: %s\n", valid.ToString().c_str());
    return 2;
  }

  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  server_options.metrics = &metrics;
  SchedService service(options);
  SchedServer server(&service, server_options);
  Status started = server.Start(host, port);
  if (!started.ok()) {
    std::fprintf(stderr, "cannot listen on %s:%d: %s\n", host.c_str(), port,
                 started.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%d (reactor front-end, %d sites, mpl %d, "
              "policy %s)\n",
              host.c_str(), server.port(), options.machine.num_sites,
              options.online.admission.max_in_flight,
              std::string(AdmissionPolicyToString(
                              options.online.admission.policy))
                  .c_str());
  std::fflush(stdout);

  // Serve until stdin closes — the idiomatic "run under a shell script /
  // harness" lifetime without signal-handler machinery.
  int c;
  while ((c = std::getchar()) != EOF) {
  }

  server.Shutdown();
  Status drained = service.scheduler()->Drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain failed: %s\n", drained.ToString().c_str());
    return 1;
  }
  std::printf("%s", metrics.Snapshot().ToString().c_str());
  return 0;
}
