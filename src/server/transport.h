#ifndef MRS_SERVER_TRANSPORT_H_
#define MRS_SERVER_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "common/result.h"

namespace mrs {

/// A bidirectional, blocking byte stream between a client and the
/// scheduling server. Two implementations: a TCP socket and an in-process
/// pipe pair (deterministic tests, benchmarks). Thread model: one reader
/// and one writer may use a connection concurrently; ShutdownRead/Close
/// may be called from any thread to unblock a reader.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Blocking read of up to `n` bytes into `buf`. Returns the number of
  /// bytes read, 0 on clean end-of-stream, -1 on error.
  virtual int Read(char* buf, int n) = 0;

  /// Writes all `n` bytes; false on error. Writing to a peer that half-
  /// closed its read side is not an error (bytes are discarded, matching
  /// socket SHUT_RD semantics).
  virtual bool Write(const char* data, int n) = 0;

  /// Half-close of the receive direction: an in-progress or later Read
  /// returns end-of-stream, while writes (e.g. a response already being
  /// produced) still go through. This is the drain primitive — the server
  /// stops accepting new requests on the connection without cutting off
  /// the reply in flight.
  virtual void ShutdownRead() = 0;

  /// Full close; idempotent.
  virtual void Close() = 0;
};

/// A connected in-process pipe pair: bytes written to one endpoint are
/// read from the other. Both endpoints share buffers guarded by mutexes;
/// no file descriptors involved.
std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
CreateInProcessPipe();

/// Connects to a listening SchedServer over TCP.
Result<std::unique_ptr<Connection>> ConnectTcp(const std::string& host,
                                               int port);

/// Sets or clears O_NONBLOCK on `fd`.
Status SetNonBlocking(int fd, bool nonblocking);

/// A listening TCP socket. The reactor front-end accepts on raw_fd();
/// the listener owns binding and closing it.
class SocketListener {
 public:
  SocketListener() = default;
  ~SocketListener();
  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Binds and listens; `port` 0 picks an ephemeral port (read it back
  /// from port()).
  Status Listen(const std::string& host, int port);

  void Close();

  int port() const { return port_; }

  /// The raw listening fd (-1 after Close). The reactor switches it to
  /// nonblocking and registers it with its event loop.
  int raw_fd() const { return fd_.load(std::memory_order_acquire); }

 private:
  // Shutdown may Close() from a thread other than the one that Listened.
  std::atomic<int> fd_{-1};
  int port_ = 0;
};

}  // namespace mrs

#endif  // MRS_SERVER_TRANSPORT_H_
