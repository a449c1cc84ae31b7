// perfbench_driver: runs one workload of the repository benchmark and
// prints two lines on stdout — a context record (build, tail quantiles,
// validity notes) and, last, the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are end-to-end ones, with --trace 1 per-layer
// ones; run.py holds them against BENCHMARK.json. Exits 1 when an output
// check failed, 2 on bad usage.
//
// Usage: perfbench_driver --workload serve_mixed|online_burst|
//                         offline_plan_exec --seed N --seconds S --trace 0|1
// perfbench/run.py builds this and is the normal entry point.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve_mixed|online_burst|"
               "offline_plan_exec --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage(argv[0]);

  Report report;
  int rc;
  if (args.workload == "serve_mixed") {
    rc = RunServeMixed(args, &report);
  } else if (args.workload == "online_burst") {
    rc = RunOnlineBurst(args, &report);
  } else if (args.workload == "offline_plan_exec") {
    rc = RunOfflinePlanExec(args, &report);
  } else {
    return Usage(argv[0]);
  }
  if (rc != 0) return rc;

  std::printf("%s\n%s\n", report.Info(args).c_str(), report.Json().c_str());
  return report.correct() ? 0 : 1;
}
