#include "server/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include "common/str_util.h"

namespace mrs {

namespace {

/// One direction of the in-process pipe: a byte queue with writer-closed
/// and reader-shutdown flags.
struct PipeChannel {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<char> bytes;
  bool writer_closed = false;
  bool reader_shutdown = false;
};

struct PipeShared {
  // channel[0]: endpoint A writes, endpoint B reads; channel[1] reverse.
  PipeChannel channel[2];
};

class PipeEndpoint : public Connection {
 public:
  PipeEndpoint(std::shared_ptr<PipeShared> shared, int read_idx)
      : shared_(std::move(shared)), read_idx_(read_idx) {}

  ~PipeEndpoint() override { Close(); }

  int Read(char* buf, int n) override {
    if (n <= 0) return 0;
    PipeChannel& ch = shared_->channel[read_idx_];
    std::unique_lock<std::mutex> lock(ch.mu);
    ch.cv.wait(lock, [&ch] {
      return !ch.bytes.empty() || ch.writer_closed || ch.reader_shutdown;
    });
    if (ch.reader_shutdown) return 0;
    if (ch.bytes.empty()) return 0;  // writer closed, buffer drained
    int copied = 0;
    while (copied < n && !ch.bytes.empty()) {
      buf[copied++] = ch.bytes.front();
      ch.bytes.pop_front();
    }
    return copied;
  }

  bool Write(const char* data, int n) override {
    PipeChannel& ch = shared_->channel[1 - read_idx_];
    std::lock_guard<std::mutex> lock(ch.mu);
    if (ch.writer_closed) return false;  // we already closed our side
    if (ch.reader_shutdown) return true;  // peer discards, like SHUT_RD
    ch.bytes.insert(ch.bytes.end(), data, data + n);
    ch.cv.notify_all();
    return true;
  }

  void ShutdownRead() override {
    PipeChannel& ch = shared_->channel[read_idx_];
    std::lock_guard<std::mutex> lock(ch.mu);
    ch.reader_shutdown = true;
    ch.cv.notify_all();
  }

  void Close() override {
    {
      PipeChannel& out = shared_->channel[1 - read_idx_];
      std::lock_guard<std::mutex> lock(out.mu);
      out.writer_closed = true;
      out.cv.notify_all();
    }
    ShutdownRead();
  }

 private:
  std::shared_ptr<PipeShared> shared_;
  int read_idx_;
};

class SocketConnection : public Connection {
 public:
  explicit SocketConnection(int fd) : fd_(fd) {}

  ~SocketConnection() override { Close(); }

  int Read(char* buf, int n) override {
    while (true) {
      const int fd = fd_.load(std::memory_order_acquire);
      if (fd < 0) return 0;
      const ssize_t got = ::recv(fd, buf, static_cast<size_t>(n), 0);
      if (got >= 0) return static_cast<int>(got);
      if (errno == EINTR) continue;
      return -1;
    }
  }

  bool Write(const char* data, int n) override {
    int sent = 0;
    while (sent < n) {
      const int fd = fd_.load(std::memory_order_acquire);
      if (fd < 0) return false;
      const ssize_t put = ::send(fd, data + sent,
                                 static_cast<size_t>(n - sent), MSG_NOSIGNAL);
      if (put < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<int>(put);
    }
    return true;
  }

  void ShutdownRead() override {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RD);
  }

  void Close() override {
    const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
  }

 private:
  std::atomic<int> fd_;
};

}  // namespace

std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
CreateInProcessPipe() {
  auto shared = std::make_shared<PipeShared>();
  auto a = std::make_unique<PipeEndpoint>(shared, 1);  // reads channel 1
  auto b = std::make_unique<PipeEndpoint>(shared, 0);  // reads channel 0
  return {std::move(a), std::move(b)};
}

Result<std::unique_ptr<Connection>> ConnectTcp(const std::string& host,
                                               int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("not an IPv4 address: %s", host.c_str()));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(StrFormat("connect %s:%d failed: %s",
                                         host.c_str(), port,
                                         std::strerror(err)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(new SocketConnection(fd));
}

Status SetNonBlocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return Status::Internal(
        StrFormat("fcntl(F_GETFL) failed: %s", std::strerror(errno)));
  }
  const int wanted =
      nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) != 0) {
    return Status::Internal(
        StrFormat("fcntl(F_SETFL) failed: %s", std::strerror(errno)));
  }
  return Status::OK();
}

SocketListener::~SocketListener() { Close(); }

Status SocketListener::Listen(const std::string& host, int port) {
  if (fd_ >= 0) return Status::FailedPrecondition("already listening");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("not an IPv4 address: %s", host.c_str()));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(StrFormat("bind %s:%d failed: %s", host.c_str(),
                                         port, std::strerror(err)));
  }
  // A deep backlog matters for the connection-scaling bench: tens of
  // thousands of connects arrive faster than the reactor accepts them.
  // The kernel clamps this to net.core.somaxconn.
  if (::listen(fd, 4096) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(
        StrFormat("listen failed: %s", std::strerror(err)));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(
        StrFormat("getsockname failed: %s", std::strerror(err)));
  }
  fd_ = fd;
  port_ = static_cast<int>(ntohs(bound.sin_port));
  return Status::OK();
}

void SocketListener::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::close(fd);
  }
}

}  // namespace mrs
