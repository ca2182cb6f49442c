#include "support/socket.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace octopocs::support {

#ifndef _WIN32

namespace {

using Clock = std::chrono::steady_clock;

bool Tripped(const std::atomic<int>* interrupt) {
  return interrupt != nullptr &&
         interrupt->load(std::memory_order_relaxed) != 0;
}

/// Fills a sockaddr_un; unix socket paths are length-capped by the ABI.
bool FillAddr(const std::string& path, sockaddr_un* addr, std::string* error) {
  if (path.size() >= sizeof addr->sun_path) {
    if (error != nullptr) {
      *error = "socket path too long (" + std::to_string(path.size()) +
               " bytes): " + path;
    }
    return false;
  }
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

UnixListener::~UnixListener() { Close(); }

bool UnixListener::Listen(const std::string& path, std::string* error) {
  Close();
  sockaddr_un addr;
  if (!FillAddr(path, &addr, error)) return false;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return false;
  }
  ::unlink(path.c_str());  // a stale socket file from a dead daemon
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (error != nullptr) {
      *error = "bind " + path + ": " + std::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  if (::listen(fd, 64) != 0) {
    if (error != nullptr) {
      *error = "listen " + path + ": " + std::strerror(errno);
    }
    ::close(fd);
    ::unlink(path.c_str());
    return false;
  }
  fd_ = fd;
  shut_down_.store(false, std::memory_order_release);
  path_ = path;
  return true;
}

int UnixListener::Accept(std::uint64_t poll_ms,
                         const std::atomic<int>* interrupt) {
  const auto stopped = [&] {
    return shut_down_.load(std::memory_order_acquire) || Tripped(interrupt);
  };
  if (fd_ < 0 || stopped()) return -2;
  pollfd pfd{fd_, POLLIN, 0};
  const int rv = ::poll(&pfd, 1, static_cast<int>(poll_ms));
  if (stopped()) return -2;
  if (rv <= 0) return -1;  // timeout or EINTR — poll again
  const int conn = ::accept(fd_, nullptr, nullptr);
  return conn >= 0 ? conn : -1;
}

void UnixListener::Shutdown() {
  shut_down_.store(true, std::memory_order_release);
  // A listening socket that is shut down for reading reports readable,
  // so a poll() blocked on it returns at once.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void UnixListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

int ConnectUnix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillAddr(path, &addr, error)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (error != nullptr) {
      *error = "connect " + path + ": " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
// A peer that hung up raises SIGPIPE on write by default; ask for the
// EPIPE errno instead so the daemon survives a vanished client.
#ifdef MSG_NOSIGNAL
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
#else
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
#endif
    if (n <= 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

namespace {

/// Shared pump for ReadLine/ReadFrame: appends from the fd into `buffer`
/// until `done(buffer)` extracts a result or a stop condition fires.
template <typename TryExtract>
FdReader::Status Pump(int fd, std::string& buffer, std::uint64_t deadline_ms,
                      const std::atomic<int>* interrupt,
                      std::size_t max_bytes, TryExtract&& try_extract) {
  const bool bounded = deadline_ms > 0;
  const Clock::time_point until =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  for (;;) {
    if (try_extract(buffer)) return FdReader::Status::kOk;
    if (buffer.size() > max_bytes) return FdReader::Status::kOverflow;
    if (Tripped(interrupt)) return FdReader::Status::kInterrupted;

    int wait_ms = 100;  // interrupt poll bound
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            until - Clock::now())
                            .count();
      if (left <= 0) return FdReader::Status::kTimeout;
      if (left < wait_ms) wait_ms = static_cast<int>(left);
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rv = ::poll(&pfd, 1, wait_ms);
    if (rv < 0) {
      if (errno == EINTR) continue;
      return FdReader::Status::kError;
    }
    if (rv == 0) continue;  // re-check deadline/interrupt

    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n == 0) {
      // EOF: one last extraction attempt (the result may already be
      // fully buffered), then report the closed stream.
      return try_extract(buffer) ? FdReader::Status::kOk
                                 : FdReader::Status::kEof;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return FdReader::Status::kError;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

FdReader::Status FdReader::ReadLine(std::uint64_t deadline_ms,
                                    const std::atomic<int>* interrupt,
                                    std::string* line,
                                    std::size_t max_bytes) {
  return Pump(fd_, buffer_, deadline_ms, interrupt, max_bytes,
              [line](std::string& buffer) {
                const std::size_t nl = buffer.find('\n');
                if (nl == std::string::npos) return false;
                line->assign(buffer, 0, nl);
                buffer.erase(0, nl + 1);
                return true;
              });
}

FdReader::Status FdReader::ReadFrame(std::string_view sentinel,
                                     std::uint64_t deadline_ms,
                                     const std::atomic<int>* interrupt,
                                     std::string* frame,
                                     std::size_t max_bytes) {
  const std::string needle = std::string(sentinel) + "\n";
  return Pump(fd_, buffer_, deadline_ms, interrupt, max_bytes,
              [frame, &needle](std::string& buffer) {
                // The sentinel must sit at a line start: offset 0 or
                // right after a newline.
                std::size_t at = 0;
                for (;;) {
                  at = buffer.find(needle, at);
                  if (at == std::string::npos) return false;
                  if (at == 0 || buffer[at - 1] == '\n') break;
                  ++at;
                }
                const std::size_t end = at + needle.size();
                frame->assign(buffer, 0, end);
                buffer.erase(0, end);
                return true;
              });
}

#else  // _WIN32

UnixListener::~UnixListener() = default;
bool UnixListener::Listen(const std::string&, std::string* error) {
  if (error != nullptr) *error = "unix sockets require a POSIX host";
  return false;
}
int UnixListener::Accept(std::uint64_t, const std::atomic<int>*) { return -2; }
void UnixListener::Shutdown() {}
void UnixListener::Close() {}

int ConnectUnix(const std::string&, std::string* error) {
  if (error != nullptr) *error = "unix sockets require a POSIX host";
  return -1;
}
bool WriteAll(int, std::string_view) { return false; }
void CloseFd(int) {}

FdReader::Status FdReader::ReadLine(std::uint64_t, const std::atomic<int>*,
                                    std::string*, std::size_t) {
  return Status::kError;
}
FdReader::Status FdReader::ReadFrame(std::string_view, std::uint64_t,
                                     const std::atomic<int>*, std::string*,
                                     std::size_t) {
  return Status::kError;
}

#endif

}  // namespace octopocs::support
