// Sandboxed, long-lived child processes with resource caps.
//
// The isolation layer (DESIGN.md §12) runs corpus pairs in forked
// worker processes so that a misbehaving subject — an OOMing symbolic
// state, a wild store in the VM, an injected tooling abort — takes down
// one process instead of the whole corpus run. This header is the
// primitive underneath the worker pool: fork/exec an argv, cap the
// child with RLIMIT_AS / RLIMIT_CPU (and always RLIMIT_CORE=0 so
// crashing workers never litter core files), and talk to it over its
// stdin/stdout pipes with per-read deadlines and an external interrupt
// flag.
//
// POSIX-only by nature (fork/exec/waitpid); on non-POSIX builds Spawn
// fails cleanly so callers degrade instead of failing to compile.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace octopocs::support {

struct SubprocessLimits {
  /// RLIMIT_AS cap in MiB (0 = unlimited). Allocations past the cap
  /// fail inside the child (malloc returns NULL / bad_alloc), which is
  /// exactly the memory-pressure failure mode the pipeline's
  /// containment layer is built for.
  std::uint64_t rlimit_mb = 0;
  /// RLIMIT_CPU soft cap in seconds (0 = unlimited). The kernel sends
  /// SIGXCPU at the soft limit and SIGKILL at soft+2s.
  std::uint64_t cpu_seconds = 0;
};

enum class SubprocessStatus : std::uint8_t {
  kExited,      // child called exit(); exit_code is valid
  kSignaled,    // child died from a signal; term_signal is valid
  kSpawnError,  // no child to reap (never spawned, or lost); error is set
};

struct SubprocessResult {
  SubprocessStatus status = SubprocessStatus::kSpawnError;
  int exit_code = -1;   // valid for kExited
  int term_signal = 0;  // valid for kSignaled
  /// Everything the child wrote to stdout before exiting (possibly a
  /// truncated prefix when the child died mid-write).
  std::string output;
  std::string error;  // human-readable failure, kSpawnError only
};

/// A long-lived worker child with both its stdin and stdout piped to
/// the parent (the AFL forkserver idea): spawn once, then exchange
/// line-framed requests and sentinel-framed responses for many work
/// items, amortizing fork/exec and per-process warmup over a whole run
/// instead of paying it per item.
///
/// The parent is always the active side: it writes one request line,
/// then reads until the response sentinel (or EOF / deadline /
/// interrupt). Response bytes past the sentinel stay buffered for the
/// next ReadFrame, so a fast worker can never outrun its supervisor's
/// framing. A dead child is reported as a SubprocessResult through
/// Reap()/Kill(), which the supervisor classifies (core::ClassifyChild).
class PersistentProcess {
 public:
  PersistentProcess() = default;
  ~PersistentProcess();
  PersistentProcess(const PersistentProcess&) = delete;
  PersistentProcess& operator=(const PersistentProcess&) = delete;

  enum class ReadStatus : std::uint8_t {
    kOk,           // a complete frame was extracted
    kEof,          // child closed stdout (died); Reap() for the status
    kTimeout,      // deadline passed without a complete frame
    kInterrupted,  // `interrupt` tripped mid-read
    kError,        // pipe read error
  };

  /// Forks and execs `argv` (argv[0] resolved via PATH) under `limits`.
  /// Any previous child is killed first. Returns false with `*error`
  /// set when no child was produced; an exec failure is not detected
  /// here — the child exits 127 (the shell's convention) instead.
  bool Spawn(const std::vector<std::string>& argv,
             const SubprocessLimits& limits, std::string* error);

  bool alive() const { return pid_ > 0; }

  /// Writes `line` plus a newline to the child's stdin. False when the
  /// child is gone (EPIPE) — the caller should Kill() and classify.
  bool WriteLine(const std::string& line);

  /// Reads the child's stdout until a line equal to `sentinel` arrives;
  /// `*frame` then holds everything up to and including that line. A
  /// frame already buffered from a previous read is returned without
  /// touching the pipe. `deadline_ms` bounds the wait (0 = unbounded);
  /// `interrupt`, when non-null and nonzero, aborts it. kEof comes back
  /// once the child has exited and its output is drained, even if
  /// another process still holds the pipe's write end.
  ReadStatus ReadFrame(std::string_view sentinel, std::uint64_t deadline_ms,
                       const std::atomic<int>* interrupt, std::string* frame);

  /// SIGKILLs the child (harmless if already dead) and reaps it. The
  /// result's `output` holds the un-framed bytes buffered since the
  /// last complete frame.
  SubprocessResult Kill();

  /// Reaps a child that already exited (after kEof) without signaling.
  SubprocessResult Reap();

 private:
  SubprocessResult Finish(bool force_kill);
  /// True once the child has exited; leaves it unreaped.
  bool ChildExited() const;

  long pid_ = -1;  // pid_t, widened so the header stays platform-clean
  int in_fd_ = -1;   // parent's write end of the child's stdin
  int out_fd_ = -1;  // parent's read end of the child's stdout
  std::string buffer_;  // stdout bytes past the last returned frame
};

}  // namespace octopocs::support
