#!/usr/bin/env bash
# Builds and runs the benchmark suite, collecting machine-readable results
# under bench_results/ (override with OUT_DIR):
#
#   BENCH_micro.json   google-benchmark JSON from micro_scheduler_runtime
#   BENCH_workvector.json  google-benchmark JSON from micro_workvector
#                      (split/place/simulate across d and P; diff against
#                      a saved baseline with scripts/compare_bench.py)
#   BENCH_list.json    google-benchmark JSON from micro_list_schedule
#                      (LIST vs TREE makespan ratio and engine wall time
#                      across J x P x d)
#   BENCH_pipeline.json  google-benchmark JSON from micro_pipeline
#                      (pipelined vs task-wave LIST makespan ratio and
#                      guard-fallback rate across J x P x d)
#   BENCH_exec.json    google-benchmark JSON from micro_exec_calibration
#                      (real execution vs simulation of the same schedules;
#                      the calibration loop's mean-relative-error counters —
#                      diff with scripts/compare_bench.py --counters)
#   BENCH_opt.json     google-benchmark JSON from micro_optimizer
#                      (join-order search wall time and plans/s across
#                      J x threads, pruned vs the exhaustive baseline)
#   BENCH_server.json  one JSON object per line from micro_online_throughput
#                      --connections mode (the reactor front-end holding
#                      N idle TCP connections while timing requests on
#                      one active connection; >=10k connections ride in
#                      forked hold-helper processes so the fd limit is
#                      spent on server-side sockets)
#   BENCH_trace.txt    PASS/FAIL line from micro_trace_overhead
#   BENCH_placement.json  one JSON object per line from
#                      micro_placement_scale (indexed vs. linear clone
#                      placement across machine sizes P)
#
# Usage: scripts/run_benches.sh
#   BUILD_DIR=...  build tree to use (default: <repo>/build)
#   OUT_DIR=...    where to write results (default: <repo>/bench_results)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"
out_dir="${OUT_DIR:-${repo_root}/bench_results}"

if [ ! -d "${build_dir}" ]; then
  cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "${build_dir}" \
  --target micro_online_throughput micro_scheduler_runtime \
  micro_trace_overhead micro_placement_scale micro_workvector \
  micro_list_schedule micro_pipeline micro_exec_calibration micro_optimizer
mkdir -p "${out_dir}"

echo "=== scheduler microbenchmarks -> ${out_dir}/BENCH_micro.json ==="
"${build_dir}/bench/micro_scheduler_runtime" \
  --benchmark_format=json > "${out_dir}/BENCH_micro.json"

echo "=== work-vector core -> ${out_dir}/BENCH_workvector.json ==="
"${build_dir}/bench/micro_workvector" \
  --benchmark_format=json > "${out_dir}/BENCH_workvector.json"

echo "=== list vs tree engines -> ${out_dir}/BENCH_list.json ==="
"${build_dir}/bench/micro_list_schedule" \
  --benchmark_format=json > "${out_dir}/BENCH_list.json"

echo "=== pipelined vs task-wave list -> ${out_dir}/BENCH_pipeline.json ==="
"${build_dir}/bench/micro_pipeline" \
  --benchmark_format=json > "${out_dir}/BENCH_pipeline.json"

echo "=== execution backend + calibration -> ${out_dir}/BENCH_exec.json ==="
"${build_dir}/bench/micro_exec_calibration" \
  --benchmark_format=json > "${out_dir}/BENCH_exec.json"

echo "=== join-order optimizer search -> ${out_dir}/BENCH_opt.json ==="
"${build_dir}/bench/micro_optimizer" \
  --benchmark_format=json > "${out_dir}/BENCH_opt.json"

echo "=== server connection scaling -> ${out_dir}/BENCH_server.json ==="
: > "${out_dir}/BENCH_server.json"
# The connection-count ladder the reactor exists for: one epoll loop
# thread holding up to 16k idle sockets. The top point sits just under the
# container's RLIMIT_NOFILE hard cap.
for conns in 64 1024 10000 16000; do
  "${build_dir}/bench/micro_online_throughput" \
    --connections="${conns}" --requests=1000 \
    >> "${out_dir}/BENCH_server.json"
done
cat "${out_dir}/BENCH_server.json"

echo "=== tracing overhead -> ${out_dir}/BENCH_trace.txt ==="
"${build_dir}/bench/micro_trace_overhead" | tee "${out_dir}/BENCH_trace.txt"

echo "=== clone placement scaling -> ${out_dir}/BENCH_placement.json ==="
"${build_dir}/bench/micro_placement_scale" \
  | tee "${out_dir}/BENCH_placement.json"

echo "bench results written to ${out_dir}"
