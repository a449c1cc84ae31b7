#ifndef MRS_SERVER_SCHED_SERVER_H_
#define MRS_SERVER_SCHED_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "server/framing.h"
#include "server/sched_service.h"
#include "server/transport.h"

namespace mrs {

struct SchedServerOptions {
  /// Worker threads running SchedService::Handle under the reactor. The
  /// service serializes scheduling on its own mutex, so this pool exists
  /// to keep a long Handle (a 50-join monster) from stalling I/O, not to
  /// parallelize scheduling; a handful is plenty.
  int worker_threads = 2;

  /// Per-connection cap on buffered unsent response bytes. A connection
  /// whose peer stops reading while responses keep queueing is closed
  /// with a typed error (server.backlog_closed) once its backlog tops
  /// this — backpressure by disconnection, never by blocking the loop.
  /// Must exceed kMaxFrameBytes + 4 or a single maximal response could
  /// trip it; the default gives 4 maximal frames of slack.
  size_t max_write_backlog_bytes = 4 * (kMaxFrameBytes + kFrameHeaderBytes);

  /// Registry for the server.* metrics; nullptr uses the global one.
  MetricsRegistry* metrics = nullptr;
};

/// Cached handles for the server.* metrics (creation takes the registry
/// lock; recording is lock-free, so handles are resolved once).
struct ServerMetrics {
  explicit ServerMetrics(MetricsRegistry* registry);

  Counter* bytes_in;          ///< payload+header bytes read off sockets
  Counter* bytes_out;         ///< payload+header bytes written to sockets
  Counter* accept_errors;     ///< transient accept failures survived
  Counter* protocol_errors;   ///< connections dropped for bad framing
  Counter* backlog_closed;    ///< connections dropped over the write cap
  Counter* epoll_errors;      ///< connections dropped: epoll re-arm failed
  Gauge* connections;         ///< currently open connections
  Gauge* write_backlog;       ///< total unsent response bytes buffered
  Histogram* request_ms;      ///< frame fully parsed -> response flushed
};

/// Front-end of the scheduling service: accepts connections (TCP via
/// Start, or any Connection via ServeConnection) and runs the one-frame-
/// request / one-frame-response loop against a SchedService.
///
/// Start() serves TCP through an epoll reactor: one loop thread drives
/// every connection's state machine and a small worker pool runs
/// SchedService::Handle, so the thread count is O(workers), not
/// O(connections). ServeConnection() runs the blocking loop on the
/// caller's thread (in-process pipes have no fd to poll).
///
/// Shutdown drains: it stops accepting, stops reading from every live
/// connection, waits for requests already parsed to finish and their
/// responses to be written, then tears the engine down. A request that
/// was fully received before Shutdown always gets its response.
class SchedServer {
 public:
  /// `service` is not owned and must outlive the server.
  explicit SchedServer(SchedService* service,
                       const SchedServerOptions& options = {});
  ~SchedServer();

  SchedServer(const SchedServer&) = delete;
  SchedServer& operator=(const SchedServer&) = delete;

  /// Binds a TCP listener (port 0 = ephemeral; see port()) and starts the
  /// reactor.
  Status Start(const std::string& host = "127.0.0.1", int port = 0);

  /// Bound TCP port; 0 when Start was not called.
  int port() const;

  /// Serves one connection on the caller's thread until the peer closes
  /// or the server shuts down. Used directly with an in-process pipe
  /// endpoint for deterministic tests and benches. Does not close `conn`
  /// (the caller owns it).
  void ServeConnection(Connection* conn);

  /// Drain-and-stop; idempotent, safe without Start.
  void Shutdown();

  bool shutting_down() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  const SchedServerOptions& options() const { return options_; }

 private:
  struct Reactor;  // epoll engine; defined in sched_server.cc

  void Register(Connection* conn);
  void Unregister(Connection* conn);

  SchedService* service_;
  SchedServerOptions options_;
  ServerMetrics metrics_;
  SocketListener listener_;
  bool started_ = false;
  std::atomic<bool> shutdown_{false};

  std::unique_ptr<Reactor> reactor_;

  // ServeConnection drain bookkeeping.
  std::mutex mu_;
  std::condition_variable idle_cv_;
  /// Connections currently inside ServeConnection (any thread).
  std::vector<Connection*> live_;
};

}  // namespace mrs

#endif  // MRS_SERVER_SCHED_SERVER_H_
