#include "server/sched_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "server/event_loop.h"
#include "server/framing.h"

namespace mrs {

namespace {

using Clock = std::chrono::steady_clock;

/// Accept backoff after EMFILE/ENFILE-style resource pressure.
constexpr double kAcceptBackoffMs = 50.0;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

}  // namespace

ServerMetrics::ServerMetrics(MetricsRegistry* registry) {
  MetricsRegistry* reg =
      registry != nullptr ? registry : &MetricsRegistry::Global();
  bytes_in = reg->GetCounter("server.bytes_in");
  bytes_out = reg->GetCounter("server.bytes_out");
  accept_errors = reg->GetCounter("server.accept_errors");
  protocol_errors = reg->GetCounter("server.protocol_errors");
  backlog_closed = reg->GetCounter("server.backlog_closed");
  epoll_errors = reg->GetCounter("server.epoll_errors");
  connections = reg->GetGauge("server.connections");
  write_backlog = reg->GetGauge("server.write_backlog_bytes");
  request_ms = reg->GetHistogram("server.request_ms");
}

/// The epoll engine. One thread runs the event loop; per-connection state
/// machines live entirely on that thread (no locks), and only
/// SchedService::Handle runs on the worker pool. Workers hand completed
/// responses back via EventLoop::Post, which is the single cross-thread
/// edge (the eventfd wakeup publishes the response string to the loop).
struct SchedServer::Reactor {
  /// Per-connection state machine. Owned by `conns` and by the handler
  /// closure registered with the loop; workers hold only a weak_ptr, so a
  /// connection that dies mid-request simply orphans the in-flight
  /// response.
  struct Conn {
    int fd = -1;
    FrameParser parser;
    /// Fully parsed requests not yet handed to a worker, with the parse
    /// timestamp that anchors server.request_ms (framing-to-flush).
    std::deque<std::pair<std::string, Clock::time_point>> requests;
    /// True while one request from this connection is inside the worker
    /// pool. One at a time keeps responses in request order — the wire
    /// contract ServeConnection also provides.
    bool busy = false;
    /// No more reads: peer EOF, protocol fault pending, or server drain.
    bool read_eof = false;
    bool closed = false;
    uint32_t events = 0;  ///< currently registered epoll interest

    /// One queued response: 4-byte length prefix + the payload written
    /// scatter/gather straight from the response string (zero-copy).
    struct Out {
      char header[kFrameHeaderBytes];
      std::string payload;
      size_t off = 0;  ///< bytes of header+payload already on the wire
      Clock::time_point t0;
    };
    std::deque<Out> out;
    size_t out_bytes = 0;
  };

  explicit Reactor(SchedServer* server_in)
      : server(server_in),
        workers(server_in->options_.worker_threads) {}

  SchedServer* server;
  EventLoop loop;
  // Declared after `loop` so it is destroyed first: a worker draining
  // during destruction may still Post into the (stopped) loop.
  ThreadPool workers;
  std::thread loop_thread;
  int listen_fd = -1;
  bool accept_armed = true;
  bool draining = false;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;  // loop thread only

  ServerMetrics& metrics() { return server->metrics_; }
  const SchedServerOptions& options() const { return server->options_; }

  Status Start(int listen_fd_in) {
    listen_fd = listen_fd_in;
    MRS_RETURN_IF_ERROR(loop.Init());
    MRS_RETURN_IF_ERROR(SetNonBlocking(listen_fd, true));
    MRS_RETURN_IF_ERROR(
        loop.Add(listen_fd, EPOLLIN, [this](uint32_t) { OnAccept(); }));
    loop_thread = std::thread([this] { loop.Run(); });
    return Status::OK();
  }

  /// Called from SchedServer::Shutdown (never the loop thread): starts
  /// the drain on the loop and waits for it to finish every response
  /// owed, close every connection, and stop.
  void DrainAndJoin() {
    loop.Post([this] { BeginDrain(); });
    if (loop_thread.joinable()) loop_thread.join();
  }

  // ---- loop-thread methods below ----

  void BeginDrain() {
    if (draining) return;
    draining = true;
    loop.Remove(listen_fd);
    // Stop reading everywhere. Bytes the kernel already buffered but the
    // loop has not parsed are dropped — exactly ServeConnection's
    // ShutdownRead semantics; requests fully *parsed* are still answered.
    std::vector<std::shared_ptr<Conn>> snapshot;
    snapshot.reserve(conns.size());
    for (auto& [fd, c] : conns) snapshot.push_back(c);
    for (auto& c : snapshot) {
      c->read_eof = true;
      UpdateEvents(c);
      MaybeFinish(c);
    }
    CheckDrainDone();
  }

  void CheckDrainDone() {
    if (draining && conns.empty()) loop.Stop();
  }

  void OnAccept() {
    while (true) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        NewConn(fd);
        continue;
      }
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;
      if (err == EINTR) continue;
      if (err == ECONNABORTED) {
        // The peer gave up while queued; purely per-connection.
        metrics().accept_errors->Increment();
        continue;
      }
      // EMFILE/ENFILE/ENOBUFS/ENOMEM — and anything unexpected — must
      // not kill the loop: count it, unarm accept, retry after a beat.
      // (Level-triggered epoll would otherwise spin on the pending
      // connection we cannot take.)
      metrics().accept_errors->Increment();
      PauseAccept();
      return;
    }
  }

  void PauseAccept() {
    if (!accept_armed || draining) return;
    accept_armed = false;
    loop.Modify(listen_fd, 0);
    loop.RunAfter(kAcceptBackoffMs, [this] {
      if (draining || accept_armed) return;
      accept_armed = true;
      loop.Modify(listen_fd, EPOLLIN);
      OnAccept();  // level-triggered, but don't wait a cycle
    });
  }

  void NewConn(int fd) {
    auto c = std::make_shared<Conn>();
    c->fd = fd;
    c->events = EPOLLIN;
    Status added = loop.Add(
        fd, EPOLLIN, [this, c](uint32_t events) { OnConnEvent(c, events); });
    if (!added.ok()) {
      ::close(fd);
      return;
    }
    conns.emplace(fd, std::move(c));
    metrics().connections->Add(1);
  }

  void OnConnEvent(const std::shared_ptr<Conn>& c, uint32_t events) {
    if (c->closed) return;
    if (events & EPOLLERR) {
      CloseConn(c);
      return;
    }
    if ((events & EPOLLIN) && !c->read_eof) HandleRead(c);
    if (c->closed) return;
    if (events & EPOLLOUT) FlushOut(c);
    if (c->closed) return;
    if (events & EPOLLHUP) {
      // TCP raises HUP only once the connection is truly dead (RST, or
      // both directions down) — nothing can be delivered anymore, and
      // level-triggered HUP would refire every iteration if we waited
      // for in-flight work. Salvage whatever the kernel still takes,
      // then drop the connection (an orphaned worker response is
      // discarded through its weak_ptr).
      if (!c->out.empty()) FlushOut(c);
      if (!c->closed) CloseConn(c);
    }
  }

  void HandleRead(const std::shared_ptr<Conn>& c) {
    // One bounded read per readiness event: level-triggered epoll re-
    // reports leftover bytes next iteration, so a firehose peer cannot
    // starve 100k quiet ones.
    char buf[64 * 1024];
    const ssize_t n = ::read(c->fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      CloseConn(c);
      return;
    }
    if (n == 0) {
      c->read_eof = true;
      if (c->parser.MidFrame()) {
        // Stream ended inside a frame: ServeConnection's ReadFrame
        // calls this corruption and drops the connection; so do we.
        metrics().protocol_errors->Increment();
        CloseConn(c);
        return;
      }
      UpdateEvents(c);
      MaybeFinish(c);
      return;
    }
    metrics().bytes_in->Increment(static_cast<uint64_t>(n));
    const Status appended = c->parser.Append(buf, static_cast<size_t>(n));
    if (!appended.ok()) {
      // Oversized frame length or sticky parser fault: protocol error.
      // Close this connection only — the loop and its other 100k sockets
      // don't care.
      metrics().protocol_errors->Increment();
      CloseConn(c);
      return;
    }
    const Clock::time_point now = Clock::now();
    std::string request;
    while (c->parser.Next(&request)) {
      c->requests.emplace_back(std::move(request), now);
    }
    Pump(c);
  }

  /// Hands the next parsed request to the worker pool (one in flight per
  /// connection). The worker runs SchedService::Handle — the potentially
  /// long scheduling computation — and posts the finished response back
  /// to the loop, which owns all connection state.
  void Pump(const std::shared_ptr<Conn>& c) {
    if (c->busy || c->closed || c->requests.empty()) return;
    c->busy = true;
    std::string request = std::move(c->requests.front().first);
    const Clock::time_point t0 = c->requests.front().second;
    c->requests.pop_front();
    workers.Submit([this, wc = std::weak_ptr<Conn>(c),
                    request = std::move(request), t0]() mutable {
      std::string response = server->service_->Handle(request);
      loop.Post([this, wc, response = std::move(response), t0]() mutable {
        std::shared_ptr<Conn> c = wc.lock();
        if (c == nullptr || c->closed) return;
        c->busy = false;
        Enqueue(c, std::move(response), t0);
        if (c->closed) return;
        Pump(c);
        MaybeFinish(c);
      });
    });
  }

  void Enqueue(const std::shared_ptr<Conn>& c, std::string response,
               Clock::time_point t0) {
    if (response.size() > kMaxFrameBytes) {
      // The sender refuses to emit what the parser would reject;
      // ServeConnection's SendFrame fails the same way and the
      // connection drops without a response.
      metrics().protocol_errors->Increment();
      CloseConn(c);
      return;
    }
    Conn::Out out;
    EncodeFrameHeader(static_cast<uint32_t>(response.size()), out.header);
    out.payload = std::move(response);
    out.t0 = t0;
    const size_t total = kFrameHeaderBytes + out.payload.size();
    c->out.push_back(std::move(out));
    c->out_bytes += total;
    metrics().write_backlog->Add(static_cast<double>(total));
    FlushOut(c);
    if (!c->closed && c->out_bytes > options().max_write_backlog_bytes) {
      // The peer is not draining what it asked for. Backpressure is by
      // disconnection (typed: server.backlog_closed), never by letting
      // one connection's backlog grow without bound or block the loop.
      metrics().backlog_closed->Increment();
      CloseConn(c);
    }
  }

  void FlushOut(const std::shared_ptr<Conn>& c) {
    while (!c->out.empty()) {
      // Gather up to 8 queued frames per writev: header + payload pairs,
      // the front pair trimmed by what a previous partial write covered.
      iovec iov[16];
      int iovcnt = 0;
      for (const Conn::Out& o : c->out) {
        if (iovcnt > 14) break;
        size_t skip = o.off;
        if (skip < kFrameHeaderBytes) {
          iov[iovcnt].iov_base =
              const_cast<char*>(o.header) + skip;
          iov[iovcnt].iov_len = kFrameHeaderBytes - skip;
          ++iovcnt;
          skip = 0;
        } else {
          skip -= kFrameHeaderBytes;
        }
        if (skip < o.payload.size()) {
          iov[iovcnt].iov_base = const_cast<char*>(o.payload.data()) + skip;
          iov[iovcnt].iov_len = o.payload.size() - skip;
          ++iovcnt;
        }
      }
      if (iovcnt == 0) {
        // Only empty-payload frames whose bytes are all written — the
        // advance loop below would have popped them; defensive.
        break;
      }
      // sendmsg instead of writev for MSG_NOSIGNAL: a peer that resets
      // while responses are queued must surface as EPIPE on this
      // connection, not a process-fatal SIGPIPE (ServeConnection's
      // send in transport.cc carries the same flag).
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<size_t>(iovcnt);
      const ssize_t n = ::sendmsg(c->fd, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        CloseConn(c);
        return;
      }
      metrics().bytes_out->Increment(static_cast<uint64_t>(n));
      metrics().write_backlog->Add(-static_cast<double>(n));
      c->out_bytes -= static_cast<size_t>(n);
      size_t written = static_cast<size_t>(n);
      while (written > 0) {
        Conn::Out& front = c->out.front();
        const size_t total = kFrameHeaderBytes + front.payload.size();
        const size_t advance = std::min(written, total - front.off);
        front.off += advance;
        written -= advance;
        if (front.off == total) {
          metrics().request_ms->Record(MsSince(front.t0));
          c->out.pop_front();
        }
      }
    }
    UpdateEvents(c);
    MaybeFinish(c);
  }

  void UpdateEvents(const std::shared_ptr<Conn>& c) {
    if (c->closed) return;
    const uint32_t desired = (c->read_eof ? 0u : uint32_t{EPOLLIN}) |
                             (c->out.empty() ? 0u : uint32_t{EPOLLOUT});
    if (desired == c->events) return;
    c->events = desired;
    const Status modified = loop.Modify(c->fd, desired);
    if (!modified.ok()) {
      // A connection stuck with a stale interest set would never see
      // EPOLLOUT for its queued output and could wedge the drain; better
      // to drop it than to hang it.
      metrics().epoll_errors->Increment();
      CloseConn(c);
    }
  }

  void MaybeFinish(const std::shared_ptr<Conn>& c) {
    if (c->closed || !c->read_eof) return;
    if (c->busy || !c->requests.empty() || !c->out.empty()) return;
    CloseConn(c);
  }

  void CloseConn(const std::shared_ptr<Conn>& c) {
    if (c->closed) return;
    c->closed = true;
    metrics().write_backlog->Add(-static_cast<double>(c->out_bytes));
    c->out_bytes = 0;
    c->out.clear();
    c->requests.clear();
    loop.Remove(c->fd);
    ::close(c->fd);
    conns.erase(c->fd);
    metrics().connections->Add(-1);
    CheckDrainDone();
  }
};

SchedServer::SchedServer(SchedService* service,
                         const SchedServerOptions& options)
    : service_(service), options_(options), metrics_(options.metrics) {}

SchedServer::~SchedServer() { Shutdown(); }

Status SchedServer::Start(const std::string& host, int port) {
  if (started_) return Status::FailedPrecondition("server already started");
  MRS_RETURN_IF_ERROR(listener_.Listen(host, port));
  started_ = true;
  reactor_ = std::make_unique<Reactor>(this);
  Status reactor_up = reactor_->Start(listener_.raw_fd());
  if (!reactor_up.ok()) {
    reactor_.reset();
    listener_.Close();
    started_ = false;
    return reactor_up;
  }
  return Status::OK();
}

int SchedServer::port() const { return listener_.port(); }

void SchedServer::Register(Connection* conn) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.push_back(conn);
  if (shutting_down()) conn->ShutdownRead();
}

void SchedServer::Unregister(Connection* conn) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase(std::remove(live_.begin(), live_.end(), conn), live_.end());
  idle_cv_.notify_all();
}

void SchedServer::ServeConnection(Connection* conn) {
  Register(conn);
  metrics_.connections->Add(1);
  while (true) {
    auto request = ReadFrame(conn);
    if (!request.ok()) break;  // peer done, shutdown, or protocol error
    const Clock::time_point t0 = Clock::now();
    metrics_.bytes_in->Increment(kFrameHeaderBytes + request->size());
    // A request fully received before shutdown is always answered —
    // that is the drain guarantee; only the read side was closed.
    const std::string response = service_->Handle(request.value());
    if (!SendFrame(conn, response).ok()) break;
    metrics_.bytes_out->Increment(kFrameHeaderBytes + response.size());
    metrics_.request_ms->Record(MsSince(t0));
  }
  metrics_.connections->Add(-1);
  Unregister(conn);
}

void SchedServer::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) {
    // Second caller: the first one is (or was) draining; the drain below
    // happens exactly once on the first caller, so return.
    return;
  }
  if (reactor_ != nullptr) {
    // Drain the reactor before closing the listener: the loop still owns
    // the listening fd (it deregisters it as the first drain step).
    reactor_->DrainAndJoin();
  }
  listener_.Close();

  std::unique_lock<std::mutex> lock(mu_);
  for (Connection* conn : live_) conn->ShutdownRead();
  idle_cv_.wait(lock, [this] { return live_.empty(); });
  lock.unlock();
  // Destroys the worker pool (drains any orphaned Handle calls) and then
  // the stopped loop. After this, no thread of ours exists.
  reactor_.reset();
}

}  // namespace mrs
