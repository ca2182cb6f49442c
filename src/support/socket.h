// Unix-domain stream sockets for the verification daemon.
//
// `octopocs serve` (DESIGN.md §14) accepts verification requests over a
// unix-domain socket: one connection carries one line-framed request and
// receives one sentinel-framed response. This header is the transport
// primitive underneath — bind/listen/accept with an interrupt-aware
// poll, connect, and a buffered line/frame reader with a wall-clock
// deadline so a stalled peer can never wedge an acceptor or a worker.
//
// POSIX-only by nature (AF_UNIX); on non-POSIX builds every operation
// fails cleanly with an error string so callers degrade instead of
// failing to compile, mirroring support/subprocess.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace octopocs::support {

/// A bound, listening unix-domain socket. Unlinks a stale socket file at
/// Listen() and its own at destruction.
class UnixListener {
 public:
  UnixListener() = default;
  ~UnixListener();
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Binds and listens on `path` (an existing socket file is replaced).
  bool Listen(const std::string& path, std::string* error);

  bool listening() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Waits up to `poll_ms` for a connection. Returns the accepted fd,
  /// -1 on timeout (poll again), or -2 when `interrupt` is tripped or
  /// the listener is shut down or closed. The poll bound is what makes
  /// the accept loop drain promptly on SIGINT/SIGTERM.
  int Accept(std::uint64_t poll_ms, const std::atomic<int>* interrupt);

  /// Wakes an Accept() blocked in another thread and makes it, and
  /// every later call, return -2. Leaves the fd open: Close() it only
  /// once the accepting thread has stopped, so that thread can never
  /// poll or accept on an fd number the process has since reused.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  std::atomic<bool> shut_down_{false};
  std::string path_;
};

/// Connects to a listening unix socket. Returns the fd, or -1 with
/// `*error` set.
int ConnectUnix(const std::string& path, std::string* error);

/// Writes all of `data` to `fd`, retrying short writes. False on any
/// write error (EPIPE when the peer hung up).
bool WriteAll(int fd, std::string_view data);

void CloseFd(int fd);

/// Buffered reader over a stream fd with a per-call wall-clock deadline.
/// Bytes past the returned line/frame stay buffered for the next call,
/// so pipelined peers can never outrun the framing.
class FdReader {
 public:
  explicit FdReader(int fd) : fd_(fd) {}

  enum class Status : std::uint8_t {
    kOk,           // a complete line/frame was extracted
    kEof,          // peer closed the stream before completing one
    kTimeout,      // deadline passed first
    kInterrupted,  // `interrupt` tripped mid-read
    kError,        // read error
    kOverflow,     // peer sent more than `max_bytes` without completing
  };

  /// Reads one '\n'-terminated line (newline stripped). `max_bytes`
  /// bounds the buffered amount — a peer streaming garbage without a
  /// newline is cut off instead of growing the buffer unboundedly.
  Status ReadLine(std::uint64_t deadline_ms, const std::atomic<int>* interrupt,
                  std::string* line, std::size_t max_bytes = 1 << 22);

  /// Reads until a line equal to `sentinel` arrives; `*frame` holds
  /// everything up to and including that line.
  Status ReadFrame(std::string_view sentinel, std::uint64_t deadline_ms,
                   const std::atomic<int>* interrupt, std::string* frame,
                   std::size_t max_bytes = 1 << 22);

 private:
  int fd_;
  std::string buffer_;
};

}  // namespace octopocs::support
