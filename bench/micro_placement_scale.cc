// Clone-placement scaling bench: the OPERATORSCHEDULE site-selection
// kernel, indexed vs. linear. For each machine size P it synthesizes one
// phase of floating operators (~2P clones, quantized work vectors so load
// ties are frequent), then times the full OperatorSchedule call
//
//   (a) with the reference linear scan (the test oracle in
//       tests/oracles/operator_schedule_oracle.h), and
//   (b) with OperatorSchedule itself (the tournament-tree placement
//       index),
//
// in interleaved trials (min-of-trials estimator, same reasoning as
// micro_trace_overhead) and verifies once per configuration that both
// paths produce identical placements. Half the configurations carry a
// random residual base load, exercising the online scheduler's branch.
//
// Output: one JSON object per line (scripts/run_benches.sh collects them
// as BENCH_placement.json), e.g.
//   {"bench":"placement_scale","p":1024,"ops":341,"clones":2048,
//    "base_load":false,"linear_us":...,"indexed_us":...,
//    "speedup":...,"identical":true}
//
// Usage: micro_placement_scale [trials] [--quick]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/operator_schedule.h"
#include "cost/parallelize.h"
#include "oracles/operator_schedule_oracle.h"
#include "resource/usage_model.h"
#include "resource/work_vector.h"

namespace mrs {
namespace {

constexpr int kDims = 3;

/// One phase worth of floating operators with ~`target_clones` clones.
std::vector<ParallelizedOp> MakePhase(int num_sites, int target_clones,
                                      Rng* rng) {
  const OverlapUsageModel usage(0.5);
  std::vector<ParallelizedOp> ops;
  int clones = 0;
  int id = 0;
  while (clones < target_clones) {
    const int max_degree = std::min(num_sites, 8);
    const int degree =
        1 + static_cast<int>(rng->Index(static_cast<size_t>(max_degree)));
    ParallelizedOp op;
    op.op_id = id++;
    op.degree = degree;
    for (int k = 0; k < degree; ++k) {
      WorkVector w(static_cast<size_t>(kDims));
      for (int r = 0; r < kDims; ++r) {
        // Quantized work: frequent load ties stress the tie-break contract.
        w[static_cast<size_t>(r)] = static_cast<double>(1 + rng->Index(8));
      }
      const double t = usage.SequentialTime(w);
      op.clones.push_back(std::move(w));
      op.t_seq.push_back(t);
      op.t_par = std::max(op.t_par, t);
    }
    clones += degree;
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<WorkVector> MakeBase(int num_sites, Rng* rng) {
  std::vector<WorkVector> base;
  for (int s = 0; s < num_sites; ++s) {
    WorkVector w(static_cast<size_t>(kDims));
    for (int r = 0; r < kDims; ++r) {
      w[static_cast<size_t>(r)] = static_cast<double>(rng->Index(6));
    }
    base.push_back(std::move(w));
  }
  return base;
}

bool SamePlacements(const Schedule& a, const Schedule& b) {
  if (a.num_placements() != b.num_placements()) return false;
  for (int i = 0; i < a.num_placements(); ++i) {
    const ClonePlacement& pa = a.placements()[static_cast<size_t>(i)];
    const ClonePlacement& pb = b.placements()[static_cast<size_t>(i)];
    if (pa.op_id != pb.op_id || pa.clone_idx != pb.clone_idx ||
        pa.site != pb.site) {
      return false;
    }
  }
  return true;
}

int Run(int trials, bool quick) {
  const std::vector<int> machine_sizes =
      quick ? std::vector<int>{64, 1024} : std::vector<int>{64, 256, 1024, 4096};
  bool all_identical = true;
  for (int p : machine_sizes) {
    for (bool with_base : {false, true}) {
      Rng rng(0x9e3779b9u + static_cast<uint64_t>(p) * 2 +
              (with_base ? 1 : 0));
      const int target_clones = 2 * p;
      const std::vector<ParallelizedOp> ops = MakePhase(p, target_clones, &rng);
      const std::vector<WorkVector> base = MakeBase(p, &rng);
      int clones = 0;
      for (const auto& op : ops) clones += op.degree;

      OperatorScheduleOptions options;
      options.base_load = with_base ? &base : nullptr;
      using ScheduleFn = decltype(&OperatorSchedule);
      const ScheduleFn linear = &oracle::LinearScanOperatorSchedule;
      const ScheduleFn indexed = &OperatorSchedule;

      auto lin = linear(ops, p, kDims, options);
      auto idx = indexed(ops, p, kDims, options);
      if (!lin.ok() || !idx.ok()) {
        std::fprintf(stderr, "schedule failed: %s %s\n",
                     lin.status().ToString().c_str(),
                     idx.status().ToString().c_str());
        return 1;
      }
      const bool identical = SamePlacements(*lin, *idx) &&
                             lin->Makespan() == idx->Makespan();
      all_identical = all_identical && identical;

      // Repetitions sized so one trial stays ~tens of ms on the indexed
      // path while the linear path keeps enough work to time reliably.
      const int reps = std::max(1, (quick ? 16384 : 32768) / p);
      double checksum = 0.0;
      auto time_one = [&](ScheduleFn schedule) {
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < reps; ++i) {
          auto s = schedule(ops, p, kDims, options);
          if (s.ok()) checksum += s->Makespan();
        }
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count() /
               static_cast<double>(reps);
      };
      std::vector<double> linear_us;
      std::vector<double> indexed_us;
      time_one(indexed);  // warmup
      for (int t = 0; t < trials; ++t) {
        linear_us.push_back(time_one(linear));
        indexed_us.push_back(time_one(indexed));
      }
      const double lin_best =
          *std::min_element(linear_us.begin(), linear_us.end());
      const double idx_best =
          *std::min_element(indexed_us.begin(), indexed_us.end());
      std::printf(
          "{\"bench\":\"placement_scale\",\"p\":%d,\"ops\":%zu,"
          "\"clones\":%d,\"base_load\":%s,\"linear_us\":%.2f,"
          "\"indexed_us\":%.2f,\"speedup\":%.2f,\"identical\":%s,"
          "\"checksum\":%.3e}\n",
          p, ops.size(), clones, with_base ? "true" : "false", lin_best,
          idx_best, idx_best > 0 ? lin_best / idx_best : 0.0,
          identical ? "true" : "false", checksum);
      std::fflush(stdout);
    }
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: indexed and linear placement diverged — the "
                 "differential contract is broken\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mrs

int main(int argc, char** argv) {
  int trials = 5;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      trials = std::atoi(argv[i]);
    }
  }
  if (trials < 1) trials = 1;
  return mrs::Run(trials, quick);
}
