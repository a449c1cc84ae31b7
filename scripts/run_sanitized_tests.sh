#!/usr/bin/env bash
# Runs the full test suite under both sanitizer configurations:
#
#   build-tsan  MRS_SANITIZE=thread   (ThreadSanitizer)
#   build-asan  MRS_SANITIZE=address  (AddressSanitizer + UBSan)
#
# Each config is configured/built/run in its own tree next to the source
# checkout, so the regular `build/` directory is untouched. Any extra
# arguments are forwarded to ctest (e.g. -R BatchFuzz).
#
# The execution-backend suites (ExecData/ExecOperator/ExecBackend/
# Calibrate plus the ExecDifferential cross-engine tests) are part of
# mrs_tests, so every real thread-pool replay runs under TSan here; the
# alloc-pinning tests skip themselves when a sanitizer owns the allocator.
# The pipelined-replay cases (ExecDifferential's pipeline_edges runs and
# the pipelined golden executions) matter most under TSan: the bounded
# row queues between co-resident clones are new happens-before edges —
# dedicated producer/consumer threads synchronizing through RowQueue's
# mutex/condvars — that the pool-only paths never exercised.
# mrs_slow_tests is built too, so the optimizer differential suite runs
# under both sanitizers as well: the multi-threaded DP, the frontier
# workers claiming bound units and the batch workers claiming plans from
# shared atomic indexes, all racing over the shared parallelize cache.
#
# The server suites (Framing/SchedServer/Reactor*) matter most under
# TSan: the epoll front-end's cross-thread seams are all eventfd- or
# queue-mediated — EventLoop::Post's task queue (worker threads handing
# completed responses back to the loop thread, synchronized by the task
# mutex + eventfd wakeup), ThreadPool::Submit carrying request payloads
# the other way, and the loop thread's exclusive ownership of every
# connection state machine in between. The reactor-vs-ServeConnection
# differential runs N concurrent clients against the reactor and against
# one ServeConnection thread per in-process pipe, so a missing
# happens-before edge on either handoff shows up as a TSan race on the
# connection's parser/output buffers.
#
# SchedService::Handle adds a third seam: results leave mu_ by move.
# OnlineScheduler::TakeResult moves a query's placed phases out under the
# lock and the reply is encoded after unlocking, so a worker encoding must
# share nothing with the scheduler another worker is driving.
# SchedServerTest.ConcurrentHandleEncodesUnlockedAndRetainsNoResults runs
# four threads through Handle at once to hold that under TSan.
#
# The plan-depth limit (kMaxPlanDepth) matters most under ASan, whose
# larger frames exhaust a stack sooner. Two tests hold it there:
#   PlanTextTest.PlanAtTheDepthLimitParsesAndSchedules
#     runs every recursive pass over the deepest plan the parser accepts;
#   SchedServerTest.DeeplyNestedPlanGetsAnErrorReplyAndServingContinues
#     sends a 30k-deep frame through the TCP front-end.
#
# Usage: scripts/run_sanitized_tests.sh [ctest args...]

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
generator_args=()
if command -v ninja >/dev/null 2>&1; then
  generator_args=(-G Ninja)
fi

run_config() {
  local name="$1" sanitize="$2"
  shift 2
  local build_dir="${repo_root}/build-${name}"
  echo "=== ${name}: MRS_SANITIZE=${sanitize} (${build_dir}) ==="
  cmake -B "${build_dir}" -S "${repo_root}" "${generator_args[@]}" \
    -DMRS_SANITIZE="${sanitize}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${build_dir}" --target mrs_tests mrs_golden_tests mrs_slow_tests
  ctest --test-dir "${build_dir}" --output-on-failure "$@"
}

run_config tsan thread "$@"
run_config asan address "$@"
echo "=== both sanitizer suites passed ==="
