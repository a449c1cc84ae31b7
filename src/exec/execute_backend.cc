#include "exec/execute_backend.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <ctime>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common/str_util.h"

namespace mrs {
namespace {

/// Bounded MPSC row queue of one pipelined consumer clone: every clone of
/// the (co-resident) producer pushes the rows whose key hashes to this
/// consumer, blocking while the queue is full — the backpressure of a real
/// pipelined exchange. Pop blocks until a row arrives or every producer
/// clone has closed. The mutex/condvar pair is the happens-before edge
/// that makes the streamed hand-off race-free (the TSan suite runs it).
class RowQueue {
 public:
  /// Registers `n` more producer clones. Called only while the wave is
  /// being wired up, before any clone thread starts.
  void AddProducers(int n) { open_ += n; }

  void Push(const ExecRow& row) {
    std::unique_lock<std::mutex> lock(mu_);
    can_push_.wait(lock, [&] { return rows_.size() < kCapacity; });
    rows_.push_back(row);
    can_pop_.notify_one();
  }

  /// False once every producer closed and the queue drained.
  bool Pop(ExecRow* row) {
    std::unique_lock<std::mutex> lock(mu_);
    can_pop_.wait(lock, [&] { return !rows_.empty() || open_ == 0; });
    if (rows_.empty()) return false;
    *row = rows_.front();
    rows_.pop_front();
    can_push_.notify_one();
    return true;
  }

  /// One producer clone will push no more rows.
  void ProducerDone() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--open_ == 0) can_pop_.notify_all();
  }

 private:
  static constexpr size_t kCapacity = 256;
  std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<ExecRow> rows_;
  int open_ = 0;
};

/// CPU time of the calling thread in milliseconds (the kThreadCpu meter).
double ThreadCpuMs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
  }
#endif
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stream seed of one operator's generated input.
uint64_t OpStreamSeed(uint64_t data_seed, int op_id) {
  return MixU64(data_seed ^ MixU64(static_cast<uint64_t>(op_id) +
                                   0x51ed2701u));
}

}  // namespace

ExecuteBackend::ExecuteBackend(ExecuteOptions options)
    : options_(std::move(options)) {}

ExecuteBackend::~ExecuteBackend() = default;

ThreadPool* ExecuteBackend::pool() {
  if (pool_ == nullptr) {
    const int threads =
        options_.threads > 0 ? options_.threads : ThreadPool::DefaultThreads();
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

void ExecuteBackend::Reset() { state_.clear(); }

Result<ExecutionResult> ExecuteBackend::Run(
    const Schedule& schedule, const std::vector<ExecOpSpec>& specs) {
  const auto wall_start = std::chrono::steady_clock::now();
  ExecKeyDist skew_probe;
  skew_probe.skew = options_.skew;
  if (Status s = ValidateKeyDist(skew_probe); !s.ok()) return s;

  // Index the specs and group the schedule's placements by operator.
  std::unordered_map<int, const ExecOpSpec*> spec_of;
  for (const ExecOpSpec& spec : specs) spec_of[spec.op_id] = &spec;
  std::unordered_map<int, std::vector<int>> clones_of;  // op -> placements
  std::vector<int> op_order;  // first-placement order, deterministic
  for (size_t p = 0; p < schedule.placements().size(); ++p) {
    const ClonePlacement& placement = schedule.placements()[p];
    auto [it, inserted] = clones_of.try_emplace(placement.op_id);
    if (inserted) op_order.push_back(placement.op_id);
    it->second.push_back(static_cast<int>(p));
    if (spec_of.find(placement.op_id) == spec_of.end()) {
      return Status::InvalidArgument(
          StrFormat("no ExecOpSpec for op%d", placement.op_id));
    }
  }
  for (int oid : op_order) {
    const size_t degree = schedule.HomeOf(oid).size();
    if (clones_of[oid].size() != degree) {
      return Status::InvalidArgument(
          StrFormat("op%d has %zu of %zu clones placed", oid,
                    clones_of[oid].size(), degree));
    }
  }

  ExecutionResult result;
  MRS_ASSIGN_OR_RETURN(result.timeline,
                       FluidSimulator().SimulateTimed(schedule));
  result.clones.resize(schedule.placements().size());
  std::vector<uint64_t> clone_digest(schedule.placements().size(), 0);

  // Execute in waves: an operator is runnable once its blocking producer
  // has materialized (in an earlier wave, or an earlier Run for phased
  // plans). WaitAll between waves is the happens-before edge that makes
  // cross-clone reads of the materialized state race-free.
  std::unordered_set<int> done;
  done.reserve(state_.size());
  for (const auto& [oid, st] : state_) done.insert(oid);
  std::vector<int> pending = op_order;
  const ExecMeter meter = options_.meter;
  const bool pipeline_edges = options_.pipeline_edges;

  // Pipeline groups: ops of THIS Run connected by live data edges (both
  // ends scheduled here — an edge whose producer materialized in an
  // earlier Run does not stream). In pipeline mode a whole group runs in
  // one wave, producer and consumer clones concurrently, so the group is
  // runnable only once every member's blocking input is done. Groups are
  // keyed by their minimum op id (deterministic).
  std::unordered_map<int, int> group_rep;
  if (pipeline_edges) {
    std::unordered_set<int> scheduled(pending.begin(), pending.end());
    for (int oid : pending) group_rep[oid] = oid;
    const auto find_rep = [&group_rep](int oid) {
      while (group_rep[oid] != oid) {
        group_rep[oid] = group_rep[group_rep[oid]];
        oid = group_rep[oid];
      }
      return oid;
    };
    for (int oid : pending) {
      for (int d : spec_of[oid]->data_inputs) {
        if (scheduled.count(d) == 0) continue;
        const int a = find_rep(oid);
        const int b = find_rep(d);
        if (a == b) continue;
        if (a < b) {
          group_rep[b] = a;
        } else {
          group_rep[a] = b;
        }
      }
    }
    for (int oid : pending) group_rep[oid] = find_rep(oid);
  }

  while (!pending.empty()) {
    std::vector<int> wave;
    std::vector<int> rest;
    std::unordered_set<int> wave_set;
    if (pipeline_edges) {
      // A group waits while any member's blocking producer is unfinished;
      // blocking edges always cross groups (a build never streams to its
      // probe), so some group is always runnable while progress is
      // possible.
      std::unordered_set<int> blocked_groups;
      for (int oid : pending) {
        const int b = spec_of[oid]->blocking_input;
        if (b >= 0 && done.count(b) == 0) blocked_groups.insert(group_rep[oid]);
      }
      for (int oid : pending) {
        if (blocked_groups.count(group_rep[oid]) == 0) {
          wave.push_back(oid);
          wave_set.insert(oid);
        } else {
          rest.push_back(oid);
        }
      }
    } else {
      for (int oid : pending) {
        const ExecOpSpec& spec = *spec_of[oid];
        if (spec.blocking_input < 0 || done.count(spec.blocking_input) > 0) {
          wave.push_back(oid);
          wave_set.insert(oid);
        } else {
          rest.push_back(oid);
        }
      }
    }
    if (wave.empty()) {
      return Status::InvalidArgument(StrFormat(
          "op%d blocks on op%d, which is neither in this schedule nor "
          "materialized by an earlier phase",
          pending.front(), spec_of[pending.front()]->blocking_input));
    }

    // Wire the wave's live pipelined edges: one bounded queue per consumer
    // clone (indexed by clone_idx), fed by every producer clone, rows
    // routed by key hash so each consumer clone sees a deterministic
    // multiset regardless of timing. `out_fanouts[p]` holds one fanout
    // (the consumer's per-clone queues) per consuming edge.
    std::unordered_map<int, std::vector<std::unique_ptr<RowQueue>>> in_queues;
    std::unordered_map<int, std::vector<std::vector<RowQueue*>>> out_fanouts;
    if (pipeline_edges) {
      for (int oid : wave) {
        const ExecOpSpec& spec = *spec_of[oid];
        for (int d : spec.data_inputs) {
          if (wave_set.count(d) == 0) continue;  // materialized earlier
          std::vector<std::unique_ptr<RowQueue>>& qs = in_queues[oid];
          if (qs.empty()) {
            for (size_t k = 0; k < clones_of[oid].size(); ++k) {
              qs.push_back(std::make_unique<RowQueue>());
            }
          }
          const int producers = static_cast<int>(clones_of[d].size());
          std::vector<RowQueue*> fan;
          fan.reserve(qs.size());
          for (const std::unique_ptr<RowQueue>& q : qs) {
            q->AddProducers(producers);
            fan.push_back(q.get());
          }
          out_fanouts[d].push_back(std::move(fan));
        }
      }
    }

    // Prepare per-op state (sized before any task is submitted).
    for (int oid : wave) {
      const ExecOpSpec& spec = *spec_of[oid];
      OpState& st = state_[oid];
      st.kind = spec.kind;
      st.degree = static_cast<int>(clones_of[oid].size());
      st.seed = OpStreamSeed(options_.data_seed, oid);
      st.rows_exec = spec.input_tuples;
      if (options_.max_rows_per_op > 0) {
        st.rows_exec = std::min(st.rows_exec, options_.max_rows_per_op);
      }
      st.dist.skew = options_.skew;
      switch (spec.kind) {
        case OperatorKind::kBuild:
        case OperatorKind::kScan:
        case OperatorKind::kSortRun:
          st.dist.domain = static_cast<uint64_t>(std::max<int64_t>(
              st.rows_exec, 1));
          break;
        case OperatorKind::kAggBuild:
          // ~4 rows per group keeps duplicate handling exercised without
          // collapsing everything into a handful of keys.
          st.dist.domain = static_cast<uint64_t>(std::max<int64_t>(
              st.rows_exec / 4, 1));
          break;
        case OperatorKind::kProbe: {
          // The probe streams over its build's key domain so matches
          // occur at the natural rate.
          const OpState& build = state_[spec.blocking_input];
          if (build.kind != OperatorKind::kBuild) {
            return Status::InvalidArgument(
                StrFormat("op%d probes op%d, which is not a build", oid,
                          spec.blocking_input));
          }
          st.dist = build.dist;
          break;
        }
        case OperatorKind::kSortMerge:
        case OperatorKind::kAggOutput: {
          // Consume materialized state; no stream of their own.
          const OperatorKind want = spec.kind == OperatorKind::kSortMerge
                                        ? OperatorKind::kSortRun
                                        : OperatorKind::kAggBuild;
          if (state_[spec.blocking_input].kind != want) {
            return Status::InvalidArgument(StrFormat(
                "op%d consumes op%d, which materialized the wrong state",
                oid, spec.blocking_input));
          }
          st.dist.domain = 1;
          break;
        }
      }
      switch (spec.kind) {
        case OperatorKind::kBuild:
          st.tables.clear();
          st.tables.resize(static_cast<size_t>(st.degree));
          break;
        case OperatorKind::kAggBuild:
          st.partials.clear();
          st.partials.resize(static_cast<size_t>(st.degree));
          break;
        case OperatorKind::kSortRun:
          st.runs.clear();
          st.runs.resize(static_cast<size_t>(st.degree));
          break;
        case OperatorKind::kAggOutput:
          st.emit_scratch.clear();
          st.emit_scratch.resize(static_cast<size_t>(st.degree));
          break;
        default:
          break;
      }
    }

    // Launch the wave's clones. Clones on a live pipelined edge (either
    // end) run on dedicated threads — a bounded queue plus a fixed-size
    // pool would deadlock when every worker blocks on a full or empty
    // queue — everything else keeps the pool. The streamed bodies mirror
    // the clone primitives' accounting (exec/operators.cc): same rows_in /
    // rows_out meaning, same order-independent digest sums, so results
    // stay byte-identical whether an edge streams or synthesizes.
    std::vector<std::thread> streamed_threads;
    for (int oid : wave) {
      const ExecOpSpec& spec = *spec_of[oid];
      OpState& st = state_[oid];
      OpState* blocking =
          spec.blocking_input >= 0 ? &state_[spec.blocking_input] : nullptr;
      const auto in_it = in_queues.find(oid);
      const auto out_it = out_fanouts.find(oid);
      const bool stream_clone =
          in_it != in_queues.end() || out_it != out_fanouts.end();
      for (int p : clones_of[oid]) {
        const ClonePlacement& placement =
            schedule.placements()[static_cast<size_t>(p)];
        const int k = placement.clone_idx;
        CloneExecution* out = &result.clones[static_cast<size_t>(p)];
        uint64_t* digest = &clone_digest[static_cast<size_t>(p)];
        out->op_id = oid;
        out->clone_idx = k;
        out->site = placement.site;
        out->kind = spec.kind;
        out->row_fraction =
            spec.input_tuples > 0
                ? static_cast<double>(st.rows_exec) /
                      static_cast<double>(spec.input_tuples)
                : 1.0;
        out->virtual_start = placement.start;
        out->virtual_finish =
            result.timeline.clone_finish[static_cast<size_t>(p)];
        if (stream_clone) {
          RowQueue* in_q = in_it != in_queues.end()
                               ? in_it->second[static_cast<size_t>(k)].get()
                               : nullptr;
          const std::vector<std::vector<RowQueue*>>* fans =
              out_it != out_fanouts.end() ? &out_it->second : nullptr;
          streamed_threads.emplace_back([&st, blocking, out, digest, k, meter,
                                         in_q, fans] {
            const double t0 =
                meter == ExecMeter::kThreadCpu ? ThreadCpuMs() : 0;
            OperatorExecStats stats;
            stats.clone = k;
            const auto emit = [fans](const ExecRow& row) {
              if (fans == nullptr) return;
              for (const std::vector<RowQueue*>& fan : *fans) {
                fan[static_cast<size_t>(
                        PartitionOf(row.key, static_cast<int>(fan.size())))]
                    ->Push(row);
              }
            };
            switch (st.kind) {
              case OperatorKind::kScan: {
                for (int64_t i = k; i < st.rows_exec; i += st.degree) {
                  const ExecRow row = SynthesizeRow(
                      st.seed, static_cast<uint64_t>(i), st.dist);
                  ++stats.rows_in;
                  stats.digest += RowDigest(row);
                  emit(row);
                }
                stats.rows_out = stats.rows_in;
                break;
              }
              case OperatorKind::kBuild: {
                // Streamed rows arrive pre-partitioned by key hash —
                // exactly the rows BuildClonePartition would have kept.
                ExecHashTable& table = st.tables[static_cast<size_t>(k)];
                table.Reset(static_cast<size_t>(
                    st.degree > 0 ? st.rows_exec / st.degree : st.rows_exec));
                ExecRow row;
                while (in_q->Pop(&row)) {
                  table.Insert(row.key, row.payload);
                  ++stats.rows_in;
                  stats.digest += RowDigest(row);
                }
                stats.rows_out = stats.rows_in;
                break;
              }
              case OperatorKind::kProbe: {
                const int parts = static_cast<int>(blocking->tables.size());
                const auto probe_row = [&](const ExecRow& row) {
                  ++stats.rows_in;
                  if (parts == 0) return;
                  const ExecHashTable& table =
                      blocking->tables[static_cast<size_t>(
                          PartitionOf(row.key, parts))];
                  table.ForEachMatch(row.key, [&](uint64_t build_payload) {
                    ++stats.rows_out;
                    stats.digest += JoinOutputDigest(row.key, build_payload,
                                                     row.payload);
                    // The joined row passed downstream: key plus a
                    // deterministic combination of both payloads.
                    emit(ExecRow{row.key, build_payload ^ row.payload});
                  });
                };
                if (in_q != nullptr) {
                  ExecRow row;
                  while (in_q->Pop(&row)) probe_row(row);
                } else {
                  for (int64_t i = k; i < st.rows_exec; i += st.degree) {
                    probe_row(SynthesizeRow(st.seed, static_cast<uint64_t>(i),
                                            st.dist));
                  }
                }
                break;
              }
              case OperatorKind::kAggBuild: {
                ExecGroupTable& partial =
                    st.partials[static_cast<size_t>(k)];
                partial.Reset(static_cast<size_t>(
                    st.degree > 0 ? st.rows_exec / st.degree : st.rows_exec));
                ExecRow row;
                while (in_q->Pop(&row)) {
                  partial.Accumulate(row.key, row.payload);
                  ++stats.rows_in;
                }
                stats.rows_out = static_cast<int64_t>(partial.num_groups());
                break;
              }
              case OperatorKind::kAggOutput: {
                // EmitClonePartition inlined so each group streams out as
                // it is emitted.
                ExecGroupTable& scratch =
                    st.emit_scratch[static_cast<size_t>(k)];
                size_t expected = 0;
                for (const ExecGroupTable& p : blocking->partials) {
                  expected += p.num_groups();
                }
                scratch.Reset(st.degree > 0 ? expected /
                                                  static_cast<size_t>(
                                                      st.degree)
                                            : expected);
                for (const ExecGroupTable& p : blocking->partials) {
                  p.ForEachGroup(
                      [&](uint64_t key, uint64_t count, uint64_t sum) {
                        if (PartitionOf(key, st.degree) != k) return;
                        scratch.Merge(key, count, sum);
                        stats.rows_in += static_cast<int64_t>(count);
                      });
                }
                scratch.ForEachGroup(
                    [&](uint64_t key, uint64_t count, uint64_t sum) {
                      ++stats.rows_out;
                      stats.digest += GroupOutputDigest(key, count, sum);
                      emit(ExecRow{key, sum});
                    });
                break;
              }
              case OperatorKind::kSortRun: {
                std::vector<ExecRow>& run = st.runs[static_cast<size_t>(k)];
                run.clear();
                ExecRow row;
                while (in_q->Pop(&row)) run.push_back(row);
                std::sort(run.begin(), run.end(),
                          [](const ExecRow& a, const ExecRow& b) {
                            return a.key < b.key ||
                                   (a.key == b.key && a.payload < b.payload);
                          });
                for (const ExecRow& r : run) stats.digest += RowDigest(r);
                stats.rows_in = static_cast<int64_t>(run.size());
                stats.rows_out = stats.rows_in;
                break;
              }
              case OperatorKind::kSortMerge: {
                std::vector<ExecRow> merged;
                for (const std::vector<ExecRow>& run : blocking->runs) {
                  for (const ExecRow& r : run) {
                    if (PartitionOf(r.key, st.degree) != k) continue;
                    merged.push_back(r);
                  }
                }
                std::sort(merged.begin(), merged.end(),
                          [](const ExecRow& a, const ExecRow& b) {
                            return a.key < b.key ||
                                   (a.key == b.key && a.payload < b.payload);
                          });
                for (const ExecRow& r : merged) {
                  stats.digest += RowDigest(r);
                  emit(r);
                }
                stats.rows_in = static_cast<int64_t>(merged.size());
                stats.rows_out = stats.rows_in;
                break;
              }
            }
            // Close every queue this clone fed, whether or not it pushed.
            if (fans != nullptr) {
              for (const std::vector<RowQueue*>& fan : *fans) {
                for (RowQueue* q : fan) q->ProducerDone();
              }
            }
            out->rows_in = stats.rows_in;
            out->rows_out = stats.rows_out;
            *digest = stats.digest;
            out->measured_ms =
                meter == ExecMeter::kThreadCpu
                    ? ThreadCpuMs() - t0
                    : 1e-3 *
                          static_cast<double>(stats.rows_in + stats.rows_out);
          });
          continue;
        }
        pool()->Submit([&st, blocking, out, digest, k, meter] {
          const double t0 = meter == ExecMeter::kThreadCpu ? ThreadCpuMs() : 0;
          OperatorExecStats stats;
          switch (st.kind) {
            case OperatorKind::kScan: {
              stats.clone = k;
              for (int64_t i = k; i < st.rows_exec; i += st.degree) {
                const ExecRow row =
                    SynthesizeRow(st.seed, static_cast<uint64_t>(i), st.dist);
                ++stats.rows_in;
                stats.digest += RowDigest(row);
              }
              stats.rows_out = stats.rows_in;
              break;
            }
            case OperatorKind::kBuild:
              stats = BuildClonePartition(st.seed, st.rows_exec, st.dist, k,
                                          st.degree,
                                          &st.tables[static_cast<size_t>(k)]);
              break;
            case OperatorKind::kProbe: {
              std::vector<const ExecHashTable*> tables;
              tables.reserve(blocking->tables.size());
              for (const ExecHashTable& t : blocking->tables) {
                tables.push_back(&t);
              }
              stats = ProbeCloneSlice(st.seed, st.rows_exec, st.dist, k,
                                      st.degree, tables, nullptr);
              break;
            }
            case OperatorKind::kAggBuild:
              stats = AccumulateCloneSlice(
                  st.seed, st.rows_exec, st.dist, k, st.degree,
                  &st.partials[static_cast<size_t>(k)]);
              break;
            case OperatorKind::kAggOutput: {
              std::vector<const ExecGroupTable*> partials;
              partials.reserve(blocking->partials.size());
              for (const ExecGroupTable& t : blocking->partials) {
                partials.push_back(&t);
              }
              stats = EmitClonePartition(
                  partials, k, st.degree,
                  &st.emit_scratch[static_cast<size_t>(k)], nullptr);
              break;
            }
            case OperatorKind::kSortRun: {
              stats.clone = k;
              std::vector<ExecRow>& run = st.runs[static_cast<size_t>(k)];
              run.clear();
              for (int64_t i = k; i < st.rows_exec; i += st.degree) {
                run.push_back(
                    SynthesizeRow(st.seed, static_cast<uint64_t>(i), st.dist));
              }
              std::sort(run.begin(), run.end(),
                        [](const ExecRow& a, const ExecRow& b) {
                          return a.key < b.key ||
                                 (a.key == b.key && a.payload < b.payload);
                        });
              for (const ExecRow& row : run) stats.digest += RowDigest(row);
              stats.rows_in = static_cast<int64_t>(run.size());
              stats.rows_out = stats.rows_in;
              break;
            }
            case OperatorKind::kSortMerge: {
              stats.clone = k;
              std::vector<ExecRow> merged;
              for (const std::vector<ExecRow>& run : blocking->runs) {
                for (const ExecRow& row : run) {
                  if (PartitionOf(row.key, st.degree) != k) continue;
                  merged.push_back(row);
                }
              }
              std::sort(merged.begin(), merged.end(),
                        [](const ExecRow& a, const ExecRow& b) {
                          return a.key < b.key ||
                                 (a.key == b.key && a.payload < b.payload);
                        });
              for (const ExecRow& row : merged) stats.digest += RowDigest(row);
              stats.rows_in = static_cast<int64_t>(merged.size());
              stats.rows_out = stats.rows_in;
              break;
            }
          }
          out->rows_in = stats.rows_in;
          out->rows_out = stats.rows_out;
          *digest = stats.digest;
          out->measured_ms =
              meter == ExecMeter::kThreadCpu
                  ? ThreadCpuMs() - t0
                  : 1e-3 * static_cast<double>(stats.rows_in + stats.rows_out);
        });
      }
    }
    pool()->WaitAll();
    for (std::thread& t : streamed_threads) t.join();
    for (int oid : wave) done.insert(oid);
    pending = std::move(rest);
  }

  for (size_t p = 0; p < result.clones.size(); ++p) {
    result.rows_out += result.clones[p].rows_out;
    result.digest += clone_digest[p];
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return result;
}

std::string ExplainExecution(const ExecutionResult& result,
                             const MachineConfig& machine, bool wall) {
  std::string out = StrFormat(
      "EXECUTION %s\n  makespan=%.3fms rows_out=%lld digest=%016llx\n",
      machine.ToString().c_str(), result.timeline.makespan,
      static_cast<long long>(result.rows_out),
      static_cast<unsigned long long>(result.digest));
  if (wall) out += StrFormat("  wall=%.3fms\n", result.wall_ms);

  // Clones grouped by site, in placement order (deterministic).
  for (size_t j = 0; j < result.timeline.sites.size(); ++j) {
    const SiteUtilization& site = result.timeline.sites[j];
    bool any = false;
    for (const CloneExecution& c : result.clones) {
      if (c.site == static_cast<int>(j)) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    out += StrFormat("  site %zu: finish=%.3fms busy=%s\n", j, site.finish,
                     site.busy.ToString().c_str());
    for (const CloneExecution& c : result.clones) {
      if (c.site != static_cast<int>(j)) continue;
      out += StrFormat(
          "    op%d/%d %-9s rows=%lld->%lld frac=%.3f measured=%.3f "
          "virt=[%.3f,%.3f]\n",
          c.op_id, c.clone_idx,
          std::string(OperatorKindToString(c.kind)).c_str(),
          static_cast<long long>(c.rows_in),
          static_cast<long long>(c.rows_out), c.row_fraction, c.measured_ms,
          c.virtual_start, c.virtual_finish);
    }
  }
  return out;
}

}  // namespace mrs
