#include "support/subprocess.h"

#include <chrono>
#include <cstring>

#ifndef _WIN32
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "support/socket.h"

namespace octopocs::support {

#ifndef _WIN32

namespace {

void ApplyLimit(int resource, std::uint64_t value) {
  struct rlimit lim;
  lim.rlim_cur = value;
  lim.rlim_max = value;
  // Failure to tighten a limit is not fatal for the child: the
  // supervisor's per-read deadline still bounds it.
  setrlimit(resource, &lim);
}

}  // namespace

PersistentProcess::~PersistentProcess() {
  if (alive()) Kill();
}

bool PersistentProcess::Spawn(const std::vector<std::string>& argv,
                              const SubprocessLimits& limits,
                              std::string* error) {
  if (alive()) Kill();
  buffer_.clear();
  if (argv.empty()) {
    if (error != nullptr) *error = "empty argv";
    return false;
  }
  // A worker dying between frames must surface as an EPIPE write
  // failure the supervisor classifies, not a fatal SIGPIPE in the
  // supervisor itself.
  signal(SIGPIPE, SIG_IGN);

  // Both pipes are close-on-exec from birth: a worker spawned
  // concurrently by another thread must never inherit this worker's
  // pipe ends, or this worker's death would not read as EOF.
  int in_pipe[2];   // parent -> child stdin
  int out_pipe[2];  // child stdout -> parent
  if (pipe2(in_pipe, O_CLOEXEC) != 0) {
    if (error != nullptr) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    if (error != nullptr) *error = std::string("pipe: ") + std::strerror(errno);
    close(in_pipe[0]);
    close(in_pipe[1]);
    return false;
  }

  const pid_t pid = fork();
  if (pid < 0) {
    if (error != nullptr) *error = std::string("fork: ") + std::strerror(errno);
    close(in_pipe[0]);
    close(in_pipe[1]);
    close(out_pipe[0]);
    close(out_pipe[1]);
    return false;
  }

  if (pid == 0) {
    // Child: stdin/stdout to the pipes, stderr inherited so worker
    // diagnostics land in the supervisor's log. dup2 clears
    // close-on-exec on fds 0 and 1; exec closes the four originals.
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    // Crashing workers are an expected, supervised event — never dump
    // core for them.
    ApplyLimit(RLIMIT_CORE, 0);
    if (limits.rlimit_mb > 0) {
      ApplyLimit(RLIMIT_AS, limits.rlimit_mb * (1ULL << 20));
    }
    if (limits.cpu_seconds > 0) {
      // Soft = cap (SIGXCPU), hard = cap + 2 (SIGKILL backstop).
      struct rlimit lim;
      lim.rlim_cur = limits.cpu_seconds;
      lim.rlim_max = limits.cpu_seconds + 2;
      setrlimit(RLIMIT_CPU, &lim);
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    execvp(cargv[0], cargv.data());
    _exit(127);  // exec failed; 127 is the shell's convention
  }

  close(in_pipe[0]);
  close(out_pipe[1]);
  pid_ = pid;
  in_fd_ = in_pipe[1];
  out_fd_ = out_pipe[0];
  return true;
}

bool PersistentProcess::WriteLine(const std::string& line) {
  if (!alive()) return false;
  std::string data = line;
  data += '\n';
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(in_fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE: the child is gone
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

PersistentProcess::ReadStatus PersistentProcess::ReadFrame(
    std::string_view sentinel, std::uint64_t deadline_ms,
    const std::atomic<int>* interrupt, std::string* frame) {
  if (!alive()) return ReadStatus::kEof;
  using Clock = std::chrono::steady_clock;
  const bool bounded = deadline_ms > 0;
  const Clock::time_point give_up =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  char buf[4096];
  bool exited = false;
  for (;;) {
    // A complete response wins over a simultaneous deadline/interrupt.
    if (ExtractFrame(buffer_, sentinel, frame)) return ReadStatus::kOk;
    if (interrupt != nullptr &&
        interrupt->load(std::memory_order_relaxed) != 0) {
      return ReadStatus::kInterrupted;
    }
    if (bounded && Clock::now() >= give_up) return ReadStatus::kTimeout;
    struct pollfd pfd;
    pfd.fd = out_fd_;
    pfd.events = POLLIN;
    const int rc = poll(&pfd, 1, /*timeout_ms=*/exited ? 0 : 20);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kError;
    }
    if (rc == 0) {
      // The child's death is EOF even while some other process (a
      // grandchild, say) still holds the pipe's write end: once it has
      // exited and its last bytes are drained, nothing more will come.
      if (exited) return ReadStatus::kEof;
      exited = ChildExited();
      continue;  // re-check frame/deadline/interrupt
    }
    const ssize_t n = read(out_fd_, buf, sizeof buf);
    if (n > 0) {
      buffer_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ReadStatus::kEof;
  }
}

bool PersistentProcess::ChildExited() const {
  // WNOWAIT leaves the child a zombie, so Reap()/Kill() still get its
  // real wait status.
  siginfo_t info;
  info.si_pid = 0;
  int rc;
  do {
    rc = waitid(P_PID, static_cast<id_t>(pid_), &info,
                WEXITED | WNOHANG | WNOWAIT);
  } while (rc < 0 && errno == EINTR);
  return rc == 0 && info.si_pid == static_cast<pid_t>(pid_);
}

SubprocessResult PersistentProcess::Kill() { return Finish(true); }

SubprocessResult PersistentProcess::Reap() { return Finish(false); }

SubprocessResult PersistentProcess::Finish(bool force_kill) {
  SubprocessResult result;
  result.output = buffer_;
  buffer_.clear();
  if (!alive()) {
    result.error = "no child to reap";
    return result;
  }
  const pid_t pid = static_cast<pid_t>(pid_);
  // Signaling an already-exited (zombie) child is a harmless no-op and
  // preserves its real wait status.
  if (force_kill) kill(pid, SIGKILL);
  close(in_fd_);
  close(out_fd_);
  in_fd_ = out_fd_ = -1;
  pid_ = -1;
  int status = 0;
  pid_t reaped;
  do {
    reaped = waitpid(pid, &status, 0);
  } while (reaped < 0 && errno == EINTR);
  if (reaped == pid && WIFEXITED(status)) {
    result.status = SubprocessStatus::kExited;
    result.exit_code = WEXITSTATUS(status);
  } else if (reaped == pid && WIFSIGNALED(status)) {
    result.status = SubprocessStatus::kSignaled;
    result.term_signal = WTERMSIG(status);
  } else {
    result.status = SubprocessStatus::kSpawnError;
    result.error = "waitpid lost the child";
  }
  return result;
}

#else  // _WIN32

PersistentProcess::~PersistentProcess() = default;

bool PersistentProcess::Spawn(const std::vector<std::string>&,
                              const SubprocessLimits&, std::string* error) {
  if (error != nullptr) *error = "process isolation requires a POSIX host";
  return false;
}

bool PersistentProcess::WriteLine(const std::string&) { return false; }

PersistentProcess::ReadStatus PersistentProcess::ReadFrame(
    std::string_view, std::uint64_t, const std::atomic<int>*, std::string*) {
  return ReadStatus::kError;
}

bool PersistentProcess::ChildExited() const { return true; }

SubprocessResult PersistentProcess::Kill() { return SubprocessResult{}; }

SubprocessResult PersistentProcess::Reap() { return SubprocessResult{}; }

SubprocessResult PersistentProcess::Finish(bool) {
  return SubprocessResult{};
}

#endif

}  // namespace octopocs::support
