// serve_mixed: an open-loop Poisson request stream over loopback TCP to
// the real sched_server binary (reactor front-end, default flags) running
// as a child process.
//
// Every request carries "@arrival k*kStampMs" with kStampMs far beyond any
// query's makespan, so each one schedules on an idle machine and its reply
// can be held byte for byte against the offline TreeScheduleToJson of the
// same plan. End to end: the highest rung of a fixed rate ladder whose p99
// meets kLatencyLimitMs with no growing backlog (ops_per_s), and latency at
// the fixed reference rate kReferenceRate timed from each request's due
// time. The traced run adds a closed-loop round-trip pass, an in-process
// SchedService::Handle pass and a per-layer pass over the same requests.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "common/metrics.h"
#include "common/str_util.h"
#include "core/tree_schedule.h"
#include "io/plan_text.h"
#include "io/schedule_export.h"
#include "online/online_scheduler.h"
#include "server/framing.h"
#include "server/sched_service.h"
#include "stats.h"

namespace perfbench {
namespace {

using mrs::StrFormat;

/// Plans in the request set: kPlansPerJ per join count J in [4, 20].
constexpr int kMinJoins = 4;
constexpr int kMaxJoins = 20;
constexpr int kPlansPerJ = 10;
/// Virtual spacing of request arrival stamps (ms); checked in set-up to
/// exceed every reference response time many times over.
constexpr double kStampMs = 1e7;
/// Open-loop connections (at most nproc).
constexpr int kMaxConnections = 4;
/// The ladder's latency limit on p99, timed from each request's due time.
/// High enough that queueing at moderate load stays under it, so the
/// limit marks the knee of the latency curve.
constexpr double kLatencyLimitMs = 100.0;
/// The fixed reference rate latency_* is measured at (requests/s): about
/// half the ladder capacity of the reactor front-end on a 4-core host.
constexpr double kReferenceRate = 80.0;
/// Outstanding requests of the saturation pass that brackets the ladder.
constexpr int kSaturationWindow = 8;
/// Ladder searches per run (the highest result stands); the first is
/// bracketed by the saturation throughput, later ones around its result.
/// Rung attempts past kMaxLadderAttempts in a run count as failures
/// without running, which bounds the run's length.
constexpr size_t kLadderSearches = 3;
constexpr int kMaxLadderAttempts = 20;
/// Reference-rate latency is summarized per block of this many requests
/// (2.5 s at the reference rate; p95 with ten samples beyond it).
constexpr size_t kLatencyBlock = 200;
/// Generator health. Lateness counts into every latency (timed from the
/// due time), so a late request is not lost — but a generator whose last
/// send trails its due time by more than kGenPaceShare of the send window
/// offered less than the nominal rate, and one whose p99 lateness exceeds
/// kGenLateLimitMs was starved rather than the server: either voids the
/// rung (or the run, at the reference rate).
constexpr double kGenPaceShare = 0.03;
constexpr double kGenLateLimitMs = kLatencyLimitMs / 4;

struct PlanRef {
  Query query;
  std::string schedule_json;  // offline TreeScheduleToJson
  double response_ms = 0.0;   // offline TREE response time
};

// ---------------------------------------------------------------------------
// The server child process.

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Stop();
    }
  }

  /// Spawns `binary` (default flags) and waits for its "listening on" line.
  bool Start(const std::string& binary) {
    int to_child[2], from_child[2];
    if (::pipe(to_child) != 0) return false;
    if (::pipe(from_child) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      ::dup2(to_child[0], 0);
      ::dup2(from_child[1], 1);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      ::execl(binary.c_str(), "sched_server", static_cast<char*>(nullptr));
      _exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    pid_ = pid;
    stdin_fd_ = to_child[1];
    out_ = ::fdopen(from_child[0], "r");
    if (out_ == nullptr) return false;
    char line[512];
    if (std::fgets(line, sizeof(line), out_) == nullptr) return false;
    const char* colon = std::strrchr(line, ':');
    if (std::strncmp(line, "listening on ", 13) != 0 || colon == nullptr) {
      return false;
    }
    port_ = std::atoi(colon + 1);
    return port_ > 0;
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Closes the server's stdin (it drains and prints its metrics), reads
  /// the metrics dump, and reaps the process. Returns the dump.
  std::string Stop() {
    std::string dump;
    if (stdin_fd_ >= 0) ::close(stdin_fd_);
    stdin_fd_ = -1;
    if (out_ != nullptr) {
      char buf[4096];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), out_)) > 0) {
        dump.append(buf, n);
      }
      std::fclose(out_);
      out_ = nullptr;
    }
    if (pid_ > 0) {
      int status = 0;
      ::waitpid(pid_, &status, 0);
      exit_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      pid_ = -1;
    }
    return dump;
  }

  bool exit_ok() const { return exit_ok_; }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  FILE* out_ = nullptr;
  int port_ = 0;
  bool exit_ok_ = false;
};

/// Counter `name` from a MetricsSnapshot::ToString dump; -1 when absent.
double DumpCounter(const std::string& dump, const std::string& name) {
  const std::string key = "counter   " + name + " ";
  const size_t pos = dump.find(key);
  if (pos == std::string::npos) return -1.0;
  return std::atof(dump.c_str() + pos + key.size());
}

std::string SelfDir() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<size_t>(n));
  return path.substr(0, path.rfind('/'));
}

// ---------------------------------------------------------------------------
// Reply checks.

/// Minimal JSON syntax check (objects, arrays, strings, numbers, literals).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool Valid() {
    Ws();
    if (!Value()) return false;
    Ws();
    return i_ == s_.size();
  }

 private:
  void Ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool Lit(const char* w) {
    const size_t n = std::strlen(w);
    if (s_.compare(i_, n, w) != 0) return false;
    i_ += n;
    return true;
  }
  bool String() {
    if (s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
      } else if (s_[i_] == '"') {
        ++i_;
        return true;
      }
    }
    return false;
  }
  bool Number() {
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    std::strtod(begin, &end);
    if (end == begin) return false;
    i_ += static_cast<size_t>(end - begin);
    return true;
  }
  bool Value() {
    if (++depth_ > 256 || i_ >= s_.size()) return false;
    bool ok = false;
    const char c = s_[i_];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      Ws();
      if (i_ < s_.size() && s_[i_] == close) {
        ++i_;
        --depth_;
        return true;
      }
      while (true) {
        Ws();
        if (c == '{') {
          if (i_ >= s_.size() || !String()) return false;
          Ws();
          if (i_ >= s_.size() || s_[i_++] != ':') return false;
          Ws();
        }
        if (!Value()) return false;
        Ws();
        if (i_ >= s_.size()) return false;
        if (s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (s_[i_] != close) return false;
        ++i_;
        break;
      }
      ok = true;
    } else if (c == '"') {
      ok = String();
    } else if (c == 't') {
      ok = Lit("true");
    } else if (c == 'f') {
      ok = Lit("false");
    } else if (c == 'n') {
      ok = Lit("null");
    } else {
      ok = Number();
    }
    --depth_;
    return ok;
  }

  const std::string& s_;
  size_t i_ = 0;
  int depth_ = 0;
};

double Field(const std::string& reply, const char* key) {
  const std::string k = StrFormat("\"%s\":", key);
  const size_t pos = reply.find(k);
  if (pos == std::string::npos) return NAN;
  return std::strtod(reply.c_str() + pos + k.size(), nullptr);
}

/// Outcome of checking one reply.
struct ReplyVerdict {
  bool ok = false;
  bool contended = false;  ///< arrival was pushed past its stamp
  double queue_wait_ms = 0.0;
  double response_ms = 0.0;
};

ReplyVerdict CheckReply(const std::string& reply, const PlanRef& ref,
                        double stamp) {
  ReplyVerdict v;
  if (!JsonChecker(reply).Valid()) return v;
  if (reply.find("\"status\":\"ok\"") == std::string::npos) return v;
  const double arrival = Field(reply, "arrival_ms");
  v.response_ms = Field(reply, "response_ms");
  v.queue_wait_ms = Field(reply, "queue_wait_ms");
  const std::string key = "\"schedule\":";
  const size_t pos = reply.find(key);
  if (pos == std::string::npos || !std::isfinite(arrival)) return v;
  if (arrival == stamp) {
    // Served on an idle machine: the schedule is the offline one, byte
    // for byte (it is the reply's last field).
    const size_t len = reply.size() - pos - key.size() - 1;
    v.ok = reply.compare(pos + key.size(), len, ref.schedule_json) == 0 &&
           reply.back() == '}';
  } else {
    // Another request overtook this one between the server's workers; it
    // then shares the machine and can only take longer.
    v.contended = true;
    v.ok = arrival > stamp && v.response_ms >= ref.response_ms * (1 - 1e-12);
  }
  return v;
}

// ---------------------------------------------------------------------------
// The load generator: one sender thread, one reader thread, pipelined
// frames over up to kMaxConnections loopback connections.

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

struct Phase {
  std::vector<int> plan;         // plan index per request
  std::vector<double> stamp;     // @arrival per request
  std::vector<double> due;       // wall ms
  std::vector<double> sent;      // wall ms
  std::vector<double> recv;      // wall ms (< 0: no reply)
  std::vector<std::string> reply;
  std::vector<double> outstanding;  // sampled during the send window
  int transport_errors = 0;

  std::vector<double> Latencies() const {
    std::vector<double> out;
    for (size_t i = 0; i < due.size(); ++i) {
      if (recv[i] >= 0) out.push_back(recv[i] - due[i]);
    }
    return out;
  }
  std::vector<double> Lateness() const {
    std::vector<double> out;
    for (size_t i = 0; i < due.size(); ++i) out.push_back(sent[i] - due[i]);
    return out;
  }
  /// Requests completed per wall second, from the first due time to the
  /// last reply.
  double Throughput() const {
    double last = 0.0;
    for (double r : recv) last = std::max(last, r);
    return 1000.0 * static_cast<double>(plan.size()) / (last - due.front());
  }
  /// Whether the open-loop generator offered the nominal rate and was not
  /// starved (see kGenPaceShare).
  bool GeneratorKeptPace() const {
    const double window = due.back() - due.front();
    return sent.back() - due.back() <= kGenPaceShare * window &&
           Percentile(Lateness(), 0.99) <= kGenLateLimitMs;
  }
};

class LoadClient {
 public:
  LoadClient(int port, int connections) {
    for (int c = 0; c < connections; ++c) {
      const int fd = ConnectLoopback(port);
      if (fd >= 0) conns_.push_back(std::make_unique<Conn>(fd));
    }
  }
  ~LoadClient() {
    for (auto& c : conns_) ::close(c->fd);
  }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  bool ok() const { return !conns_.empty(); }

  /// Sends `phase->plan.size()` requests. `rate` > 0 is an open-loop
  /// Poisson stream at that rate over every connection; rate == 0 a
  /// closed loop keeping `window` requests outstanding (window 1: the next
  /// request leaves when the previous reply lands). With a tracer, each
  /// round trip is recorded as a "tcp_request" span.
  void Run(const std::vector<PlanRef>& refs, double rate, int window,
           uint64_t seed, Phase* phase, Tracer* tracer = nullptr) {
    const size_t n = phase->plan.size();
    phase->due.assign(n, 0.0);
    phase->sent.assign(n, 0.0);
    phase->recv.assign(n, -1.0);
    phase->reply.assign(n, std::string());
    phase->outstanding.clear();
    // Rendered before the clock starts: the generator's own formatting
    // stays out of the measured window.
    std::vector<std::string> frames(n);
    for (size_t i = 0; i < n; ++i) {
      const std::string payload =
          StrFormat("@arrival %.0f\n", phase->stamp[i]) +
          refs[static_cast<size_t>(phase->plan[i])].query.text;
      auto frame = mrs::EncodeFrame(payload);
      frames[i] = frame.ok() ? std::move(frame).value() : std::string();
    }
    mrs::Rng rng(seed);
    const double t0 = NowMs() + 5.0;
    double t = t0;
    for (size_t i = 0; i < n; ++i) {
      phase->due[i] = t;
      if (rate > 0) t += -std::log(1.0 - rng.UniformDouble()) * 1000.0 / rate;
    }
    received_ = 0;
    std::thread reader([&] { ReadLoop(phase, tracer); });

    const size_t conns =
        rate > 0 ? conns_.size()
                 : std::clamp<size_t>(static_cast<size_t>(window), 1,
                                      conns_.size());
    const size_t outstanding = static_cast<size_t>(std::max(window, 1));
    const double span_ms = rate > 0 ? phase->due.back() - t0 : 0.0;
    const int kSamples = 30;
    int next_sample = 0;
    int write_errors = 0;
    for (size_t i = 0; i < n; ++i) {
      if (rate > 0) {
        while (next_sample < kSamples &&
               t0 + span_ms * next_sample / kSamples <= phase->due[i]) {
          phase->outstanding.push_back(static_cast<double>(i) -
                                       static_cast<double>(received_.load()));
          ++next_sample;
        }
        SleepUntil(phase->due[i]);
      } else {
        for (size_t r = received_.load(); r + outstanding <= i;
             r = received_.load()) {
          received_.wait(r);
        }
        phase->due[i] = NowMs();
      }
      Conn& c = *conns_[i % conns];
      {
        // Stamped under the lock the reader pops under, so the reader
        // sees due/sent of every request it pairs with a reply.
        std::lock_guard<std::mutex> lock(c.mu);
        phase->sent[i] = NowMs();
        c.pending.push_back(i);
      }
      if (!WriteAll(c.fd, frames[i])) ++write_errors;
    }
    reader.join();
    phase->transport_errors += write_errors;  // the reader has finished
  }

 private:
  struct Conn {
    explicit Conn(int f) : fd(f) {}
    int fd;
    mrs::FrameParser parser;
    std::mutex mu;
    std::deque<size_t> pending;  // request indices awaiting replies, FIFO
  };

  static void SleepUntil(double due_ms) {
    const double wait = due_ms - NowMs();
    if (wait > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wait));
    }
  }

  void ReadLoop(Phase* phase, Tracer* tracer) {
    const size_t n = phase->plan.size();
    std::vector<pollfd> fds;
    for (auto& c : conns_) fds.push_back({c->fd, POLLIN, 0});
    std::vector<char> buf(1 << 16);
    const double deadline = NowMs() + 120000.0;
    while (received_.load() < n) {
      if (NowMs() > deadline) {
        phase->transport_errors += static_cast<int>(n - received_.load());
        received_ = n;  // releases a closed-loop sender
        received_.notify_all();
        return;
      }
      if (::poll(fds.data(), fds.size(), 100) <= 0) continue;
      for (size_t k = 0; k < fds.size(); ++k) {
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = *conns_[k];
        const ssize_t got = ::recv(c.fd, buf.data(), buf.size(), 0);
        if (got <= 0) {
          phase->transport_errors += static_cast<int>(n - received_.load());
          received_ = n;
          received_.notify_all();
          return;
        }
        if (!c.parser.Append(buf.data(), static_cast<size_t>(got)).ok()) {
          ++phase->transport_errors;
        }
        std::string payload;
        while (c.parser.Next(&payload)) {
          const double now = NowMs();
          size_t idx;
          {
            std::lock_guard<std::mutex> lock(c.mu);
            if (c.pending.empty()) continue;
            idx = c.pending.front();
            c.pending.pop_front();
          }
          phase->recv[idx] = now;
          phase->reply[idx] = std::move(payload);
          if (tracer != nullptr) {
            tracer->Add("tcp_request", phase->sent[idx], now,
                        static_cast<int64_t>(idx));
          }
          received_.fetch_add(1);
          received_.notify_all();
        }
      }
    }
  }

  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<size_t> received_{0};
};

/// Checks every reply of `phase` into `report`; returns the verdicts.
std::vector<ReplyVerdict> CheckPhase(const Phase& phase,
                                     const std::vector<PlanRef>& refs,
                                     Report* report) {
  std::vector<ReplyVerdict> verdicts;
  int bad = phase.transport_errors;
  for (size_t i = 0; i < phase.plan.size(); ++i) {
    ReplyVerdict v;
    if (phase.recv[i] >= 0) {
      v = CheckReply(phase.reply[i],
                     refs[static_cast<size_t>(phase.plan[i])], phase.stamp[i]);
    }
    if (!v.ok) ++bad;
    verdicts.push_back(v);
  }
  report->Attempt(static_cast<int64_t>(phase.plan.size()));
  report->Fail(std::min<int64_t>(bad, static_cast<int64_t>(phase.plan.size())));
  report->Check(bad == 0, StrFormat("%d bad replies of %zu", bad,
                                    phase.plan.size()));
  return verdicts;
}

/// The workload's state across set-up and measurement.
class ServeMixed {
 public:
  ServeMixed(const Args& args, Report* report)
      : args_(args), report_(report), tracer_(args.trace) {}

  int Run() {
    if (!SetUp()) return 1;
    LoadClient client(server_->port(), std::min<int>(
        kMaxConnections, static_cast<int>(std::thread::hardware_concurrency())));
    if (!client.ok()) {
      std::fprintf(stderr, "cannot connect to sched_server\n");
      return 1;
    }
    // One pass over every plan fills the server's parallelize cache.
    Phase warm = MakePhase(refs_.size(), /*shuffle=*/false);
    client.Run(refs_, kReferenceRate, 0, args_.seed ^ 0x77, &warm);
    CheckPhase(warm, refs_, report_);

    if (args_.trace) {
      MeasureLayers(&client);
    } else {
      MeasureEndToEnd(&client);
    }
    const std::string dump = server_->Stop();
    report_->Check(server_->exit_ok(), "sched_server exited cleanly");
    if (args_.trace) {
      const double hits = DumpCounter(dump, "parallelize_cache.hits");
      const double misses = DumpCounter(dump, "parallelize_cache.misses");
      report_->Metric("cost.cache_hit_ratio",
                      hits + misses > 0 ? hits / (hits + misses) : 0.0,
                      "share");
      report_->Metric("online.admitted", DumpCounter(dump, "online.admitted"),
                      "count");
      report_->Metric("online.rejected", DumpCounter(dump, "online.rejected"),
                      "count");
      report_->Metric("online.timeout", DumpCounter(dump, "online.timeout"),
                      "count");
    }
    return 0;
  }

 private:
  bool SetUp() {
    const double setup_s = MedianSetupSeconds([&] {
      if (server_ != nullptr) server_->Stop();
      refs_.clear();
      server_ = std::make_unique<ServerProcess>();
      return GeneratePlans() && server_->Start(SelfDir() + "/sched_server");
    });
    if (setup_s < 0) {
      std::fprintf(stderr, "serve_mixed set-up failed\n");
      return false;
    }
    if (!args_.trace) report_->Metric("setup_s", setup_s, "s");

    // The schedule half of the metrics: this request set's plans under the
    // three offline engines, and a sample of them executed.
    EngineSummary engines;
    std::vector<const mrs::PlanTree*> exec_plans;
    double max_response = 0.0;
    for (size_t i = 0; i < refs_.size(); ++i) {
      auto x = Expand(*refs_[i].query.gen.plan, machine_);
      auto m = x.ok() ? ScheduleAllEngines(*x, machine_, usage_)
                      : mrs::Result<EngineMakespans>(x.status());
      report_->Check(m.ok(), "offline engines");
      if (!m.ok()) return false;
      engines.Add(*m);
      if (x.ok()) cost_ms_.push_back(x->cost_ms);
      max_response = std::max(max_response, refs_[i].response_ms);
      if (i <= kMaxJoins - kMinJoins) {
        exec_plans.push_back(refs_[i].query.gen.plan.get());  // one per J
      }
    }
    double json_bytes = 0.0;
    for (const PlanRef& r : refs_) json_bytes += r.schedule_json.size();
    report_->Note("schedule_json_bytes_mean", json_bytes / refs_.size());
    report_->Check(max_response * 100 < kStampMs,
                   "arrival stamps far apart relative to makespans");
    if (args_.trace) {
      engines.ReportLayers(report_);
      report_->Metric("cost.cost_all_ms_p50", Median(cost_ms_), "ms");
    } else {
      engines.ReportMakespans(report_);
    }
    ReportExecution(exec_plans, machine_, args_.seed, args_.trace, report_);
    return true;
  }

  bool GeneratePlans() {
    mrs::Rng rng(args_.seed);
    const mrs::WorkloadParams params;
    for (int k = 0; k < kPlansPerJ; ++k) {
      for (int j = kMinJoins; j <= kMaxJoins; ++j) {
        auto q = MakeQuery(params, j, &rng);
        if (!q.ok()) return false;
        PlanRef ref;
        ref.query = std::move(q).value();
        auto x = Expand(*ref.query.gen.plan, machine_);
        if (!x.ok()) return false;
        auto tree = mrs::TreeSchedule(*x->ops, *x->tasks, x->costs,
                                      mrs::CostParams{}, machine_, usage_);
        if (!tree.ok()) return false;
        ref.schedule_json = mrs::TreeScheduleToJson(*tree);
        ref.response_ms = tree->response_time;
        refs_.push_back(std::move(ref));
      }
    }
    // Index k * 17 + (J - 4): every run of 17 consecutive plans covers
    // each size once.
    return true;
  }

  /// A phase of `n` requests cycling through the plan set.
  Phase MakePhase(size_t n, bool shuffle) {
    Phase p;
    std::vector<int> order(refs_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    mrs::Rng rng(args_.seed + 0x51 + next_stamp_);
    if (shuffle) rng.Shuffle(&order);
    for (size_t i = 0; i < n; ++i) {
      p.plan.push_back(order[i % order.size()]);
      p.stamp.push_back(static_cast<double>(next_stamp_++) * kStampMs);
    }
    return p;
  }

  void MeasureEndToEnd(LoadClient* client) {
    // 60 requests per second of run at the reference rate, in blocks
    // spread over the whole run (before, between and after the ladder
    // searches), so a slow stretch of the host hits one block, not all.
    const size_t n_blocks = std::max<size_t>(
        2, static_cast<size_t>(60.0 * args_.seconds) / kLatencyBlock);
    const size_t n_rung = static_cast<size_t>(15.0 * args_.seconds);
    std::vector<double> latency;
    int contended = 0, replies = 0;
    double late_p99 = 0.0;
    auto reference_block = [&] {
      Phase ref = MakePhase(kLatencyBlock, true);
      client->Run(refs_, kReferenceRate, 0, args_.seed ^ next_stamp_, &ref);
      for (const ReplyVerdict& v : CheckPhase(ref, refs_, report_)) {
        contended += v.contended ? 1 : 0;
        ++replies;
      }
      const std::vector<double> lat = ref.Latencies();
      latency.insert(latency.end(), lat.begin(), lat.end());
      late_p99 = std::max(late_p99, Percentile(ref.Lateness(), 0.99));
      report_->Check(ref.GeneratorKeptPace(),
                     StrFormat("generator fell behind (p99 late %.3f ms): it, "
                               "not the server, set the pace",
                               late_p99));
      report_->Check(!BacklogGrowing(ref.outstanding,
                                     kReferenceRate * kLatencyLimitMs / 1e3),
                     "backlog grew at the reference rate");
    };

    // The rate ladder is bracketed around the saturation throughput (a
    // closed loop keeping kSaturationWindow requests outstanding): open-
    // loop capacity under a latency limit sits below it, so [0.7, 1.1] x
    // saturation holds it.
    reference_block();
    Phase sat = MakePhase(2 * refs_.size(), true);
    client->Run(refs_, 0.0, kSaturationWindow, 0, &sat);
    CheckPhase(sat, refs_, report_);
    const double saturation = sat.Throughput();
    report_->Note("saturation_ops_per_s", saturation);
    // The server's peak RSS after a fixed request count (the ladder's
    // attempt count varies, and the server keeps every query's result).
    report_->Metric("rss_peak_mb", PeakRssMb(server_->pid()), "MB");

    // Ladder searches between reference blocks; the highest result stands:
    // interference from outside the benchmark comes in bursts of seconds
    // and only ever lowers a search's result.
    std::string trials;
    int best = -1;
    double best_throughput = 0.0;
    const RateLadder ladder;
    int first = RungNear(ladder, 0.7 * saturation);
    int last = RungNear(ladder, 1.1 * saturation) + 1;
    for (size_t search = 0; search < std::max(n_blocks - 1, kLadderSearches);
         ++search) {
      if (search < kLadderSearches) {
        const auto [rung, throughput] =
            LadderSearch(client, first, last, n_rung, &trials);
        if (throughput > best_throughput) {
          best = rung;
          best_throughput = throughput;
        }
        if (search == 0 && rung >= 0) {
          first = std::max(0, rung - 2);
          last = std::min(ladder.rungs, rung + 3);
        }
      }
      if (search + 1 < n_blocks) reference_block();
    }
    ReportLatency(report_, latency, kLatencyBlock);
    report_->Note("gen_late_p99_ms", late_p99);
    report_->Note("contended_reply_share",
                  static_cast<double>(contended) / replies);
    report_->NoteText("ladder", trials);
    report_->Note("ladder_rung", best);
    report_->Check(best >= 0, "no ladder rung met the latency limit");
    // The achieved throughput of the highest passing rung (measured, so
    // it carries the rung's real completion time rather than its label).
    report_->Metric("ops_per_s", best_throughput, "1/s");
  }

  /// One binary search of the rate ladder over rungs [first, last), and
  /// below `first` only when `first` itself fails. Returns the highest
  /// passing rung (-1 if none) and its achieved throughput; appends every
  /// attempt to `log`.
  std::pair<int, double> LadderSearch(LoadClient* client, int first, int last,
                                      size_t n_rung, std::string* log) {
    const RateLadder ladder;
    double best_throughput = 0.0;
    auto attempt = [&](int rung) {
      if (ladder_attempts_++ >= kMaxLadderAttempts) return false;
      Phase p = MakePhase(n_rung, true);
      client->Run(refs_, ladder.Rate(rung), 0,
                  args_.seed * 131 + static_cast<uint64_t>(rung) * 7919 +
                      next_stamp_,
                  &p);
      CheckPhase(p, refs_, report_);
      const double p99 = Percentile(p.Latencies(), 0.99);
      const bool growing = BacklogGrowing(
          p.outstanding, ladder.Rate(rung) * kLatencyLimitMs / 1e3);
      const bool pace = p.GeneratorKeptPace();
      const bool pass =
          RungPasses(p99, kLatencyLimitMs, growing, p.transport_errors) &&
          pace;
      *log += StrFormat("%s%d:%.1f/s p99=%.2fms %s%s%s",
                        log->empty() ? "" : "; ", rung, ladder.Rate(rung), p99,
                        growing ? "growing " : "",
                        pace ? "" : "generator-behind ",
                        pass ? "pass" : "fail");
      // Passing rungs come in rising order in every search below, so the
      // last pass recorded is the highest.
      if (pass) best_throughput = p.Throughput();
      return pass;
    };
    // A failed rung is tried once more: a short burst of interference
    // fails one attempt, a rate beyond capacity fails both.
    auto trial = [&](int rung) { return attempt(rung) || attempt(rung); };
    int best = HighestPassingRung(first, last, trial);
    if (best < first) best = HighestPassingRung(0, first, trial);
    *log += " |";
    return {best, best_throughput};
  }

  void MeasureLayers(LoadClient* client) {
    // Generator health at the reference rate.
    Phase ref = MakePhase(static_cast<size_t>(30.0 * args_.seconds), true);
    client->Run(refs_, kReferenceRate, 0, args_.seed ^ 0x1234, &ref);
    const auto ref_verdicts = CheckPhase(ref, refs_, report_);
    report_->Metric("bench.gen_late_p99_ms", Percentile(ref.Lateness(), 0.99),
                    "ms");
    int contended = 0;
    std::vector<double> queue_wait, response;
    for (const ReplyVerdict& v : ref_verdicts) {
      contended += v.contended ? 1 : 0;
      queue_wait.push_back(v.queue_wait_ms);
      response.push_back(v.response_ms);
    }
    report_->Metric("server.contended_reply_share",
                    static_cast<double>(contended) / ref_verdicts.size(),
                    "share");
    report_->Metric("online.queue_wait_model_ms_p50", Median(queue_wait),
                    "ms");
    report_->Metric("online.response_model_ms_p50", Median(response), "ms");

    // Batches of one plan per join count. Per batch: an untraced and a
    // traced closed-loop TCP pass (alternating which goes first), then
    // in-process SchedService::Handle, then Handle's layers one by one —
    // parse, place (Submit + ResolveQuery), encode (TreeScheduleToJson),
    // reply envelope — all on the same requests and adjacent in time, so
    // the host's drifting speed cancels out of per-request differences.
    mrs::MetricsRegistry handle_metrics;
    mrs::SchedServiceOptions options;
    options.online.metrics = &handle_metrics;
    mrs::SchedService service(options);
    mrs::MetricsRegistry layer_metrics;
    mrs::OnlineSchedulerOptions online;
    online.metrics = &layer_metrics;
    mrs::OnlineScheduler scheduler(mrs::CostParams{}, machine_, online);
    auto request_of = [&](const Phase& p, size_t i) {
      return StrFormat("@arrival %.0f\n", p.stamp[i]) +
             refs_[static_cast<size_t>(p.plan[i])].query.text;
    };
    {
      // Warm the in-process caches as the warm-up pass warmed the server's.
      const Phase warm = MakePhase(refs_.size(), false);
      for (size_t i = 0; i < warm.plan.size(); ++i) {
        service.Handle(request_of(warm, i));
        const uint64_t id = scheduler.Submit(
            *refs_[static_cast<size_t>(warm.plan[i])].query.gen.plan,
            warm.stamp[i]);
        report_->Check(scheduler.ResolveQuery(id).ok(), "warm place");
      }
    }
    const size_t batch = kMaxJoins - kMinJoins + 1;
    std::vector<double> rtt_ms, traced_ms, handle_ms, layers_ms;
    double bytes = 0.0;
    for (size_t b = 0; b * batch < refs_.size(); ++b) {
      Phase plain, traced;
      for (size_t i = b * batch; i < std::min(refs_.size(), (b + 1) * batch);
           ++i) {
        plain.plan.push_back(static_cast<int>(i));
        traced.plan.push_back(static_cast<int>(i));
      }
      for (Phase* p : {&plain, &traced}) {
        for (size_t i = 0; i < p->plan.size(); ++i) {
          p->stamp.push_back(static_cast<double>(next_stamp_++) * kStampMs);
        }
      }
      for (int side = 0; side < 2; ++side) {
        if ((side + b) % 2 == 0) {
          client->Run(refs_, 0.0, 1, 0, &plain);
          CheckPhase(plain, refs_, report_);
        } else {
          client->Run(refs_, 0.0, 1, 0, &traced, &tracer_);
          CheckPhase(traced, refs_, report_);
        }
      }
      const std::vector<double> u = plain.Latencies();
      const std::vector<double> t = traced.Latencies();
      rtt_ms.insert(rtt_ms.end(), u.begin(), u.end());
      traced_ms.insert(traced_ms.end(), t.begin(), t.end());
      for (const std::string& r : plain.reply) bytes += r.size();

      for (size_t i = 0; i < plain.plan.size(); ++i) {
        const int64_t req = static_cast<int64_t>(handle_ms.size());
        const PlanRef& ref_plan = refs_[static_cast<size_t>(plain.plan[i])];
        const double stamp = plain.stamp[i];
        {
          Tracer::Scope span(&tracer_, "handle", req);
          const double t0 = NowMs();
          const std::string reply = service.Handle(request_of(plain, i));
          handle_ms.push_back(NowMs() - t0);
          report_->Check(CheckReply(reply, ref_plan, stamp).ok,
                         "in-process Handle reply");
        }
        Tracer::Scope request_span(&tracer_, "request", req);
        const int parent = request_span.id();
        const double t0 = NowMs();
        int span = tracer_.Begin("io.parse", req, parent);
        auto parsed = mrs::ParsePlanText(ref_plan.query.text);
        tracer_.End(span);
        report_->Check(parsed.ok() && parsed->plan != nullptr, "parse");
        if (!parsed.ok() || parsed->plan == nullptr) return;
        span = tracer_.Begin("online.place", req, parent);
        const uint64_t id = scheduler.Submit(*parsed->plan, stamp);
        const mrs::Status resolved = scheduler.ResolveQuery(id);
        tracer_.End(span);
        const mrs::OnlineQueryResult* result = scheduler.result(id);
        report_->Check(resolved.ok() && result != nullptr, "place");
        if (!resolved.ok() || result == nullptr) return;
        span = tracer_.Begin("io.encode", req, parent);
        const std::string schedule = mrs::TreeScheduleToJson(result->schedule);
        tracer_.End(span);
        span = tracer_.Begin("server.envelope", req, parent);
        const std::string reply = StrFormat(
            "{\"status\":\"ok\",\"id\":%llu,\"arrival_ms\":%.6f,"
            "\"admit_ms\":%.6f,\"queue_wait_ms\":%.6f,\"finish_ms\":%.6f,"
            "\"response_ms\":%.6f,\"schedule\":%s}",
            static_cast<unsigned long long>(result->id), result->arrival_ms,
            result->admit_ms, result->QueueWaitMs(),
            result->ProjectedFinishMs(), result->schedule.response_time,
            schedule.c_str());
        tracer_.End(span);
        layers_ms.push_back(NowMs() - t0);
        report_->Check(CheckReply(reply, ref_plan, stamp).ok,
                       "layer-by-layer reply");
      }
    }
    const size_t n = handle_ms.size();
    const double untraced = Median(rtt_ms);
    report_->Metric("bench.tracing_overhead_share",
                    (Median(traced_ms) - untraced) / untraced, "share");
    report_->Metric("server.response_bytes_mean", bytes / n, "bytes");
    const std::vector<double> parse = tracer_.Durations("io.parse");
    const std::vector<double> place = tracer_.Durations("online.place");
    const std::vector<double> encode = tracer_.Durations("io.encode");
    std::vector<double> frontend, unaccounted, encode_share;
    for (size_t i = 0; i < n && i < encode.size(); ++i) {
      frontend.push_back(rtt_ms[i] - handle_ms[i]);
      // Latency the layers leave unexplained: the round trip minus the
      // front-end remainder minus the in-process layer times.
      unaccounted.push_back((handle_ms[i] - layers_ms[i]) / rtt_ms[i]);
      encode_share.push_back(encode[i] / handle_ms[i]);
    }
    report_->Metric("server.frontend_ms_p50", Median(frontend), "ms");
    report_->Metric("server.unaccounted_share", Median(unaccounted), "share");
    report_->Metric("io.parse_ms_p50", Median(parse), "ms");
    report_->Metric("io.encode_ms_p50", Median(encode), "ms");
    report_->Metric("io.encode_share", Median(encode_share), "share");
    report_->Metric("online.place_ms_p50", Median(place), "ms");
    report_->Note("handle_ms_p50", Median(handle_ms));
    report_->Note("rtt_ms_p50", Median(rtt_ms));
    report_->Note("request_self_ms_p50", Median(tracer_.SelfTimes("request")));
    tracer_.Write(OutputDir() + "/serve_mixed.spans.jsonl");
  }

  Args args_;
  Report* report_;
  Tracer tracer_;
  const mrs::MachineConfig machine_{};
  const mrs::OverlapUsageModel usage_{0.5};
  std::vector<PlanRef> refs_;
  std::vector<double> cost_ms_;
  std::unique_ptr<ServerProcess> server_;
  uint64_t next_stamp_ = 1;
  int ladder_attempts_ = 0;
};

}  // namespace

int RunServeMixed(const Args& args, Report* report) {
  return ServeMixed(args, report).Run();
}

}  // namespace perfbench
