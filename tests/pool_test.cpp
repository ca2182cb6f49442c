// Persistent worker pool (DESIGN.md §13): the PersistentProcess pipe
// primitive and the WorkerPool retry/respawn/quarantine loop, driven by
// /bin/sh shim workers so every outcome is reachable without a
// cooperating octopocs binary. The pooled-vs-in-process verdict
// identity on the real corpus is covered by the CI isolated-corpus step.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#endif

#include "core/report_io.h"
#include "core/supervisor.h"
#include "corpus/pairs.h"
#include "report_fixtures.h"
#include "support/subprocess.h"

namespace octopocs::core {
namespace {

#ifndef _WIN32

using support::PersistentProcess;
using support::SubprocessLimits;
using support::SubprocessResult;
using support::SubprocessStatus;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "octopocs_pool_" + name;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << text;
}

/// Writes an executable shim. The pool invokes it as
/// `script pool-worker <flags...>`; the scripts ignore their argv.
std::string WriteWorkerScript(const std::string& name,
                              const std::string& body) {
  const std::string path = TempPath(name + ".sh");
  WriteText(path, "#!/bin/sh\n" + body);
  ::chmod(path.c_str(), 0755);
  return path;
}

// -- PersistentProcess: the framed-pipe primitive ------------------------------

/// An echo server: replies to every request line with a two-line frame,
/// exits cleanly on "QUIT".
std::string EchoServer() {
  return WriteWorkerScript("echo",
                           "while read line; do\n"
                           "  if [ \"$line\" = QUIT ]; then exit 0; fi\n"
                           "  echo \"got $line\"\n"
                           "  echo FRAME-END\n"
                           "done\n");
}

TEST(PersistentProcessTest, RequestResponseAcrossManyRoundTrips) {
  PersistentProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn({EchoServer(), "pool-worker"}, {}, &error)) << error;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(proc.WriteLine("req-" + std::to_string(i)));
    std::string frame;
    ASSERT_EQ(proc.ReadFrame("FRAME-END", 5'000, nullptr, &frame),
              PersistentProcess::ReadStatus::kOk)
        << "round " << i;
    EXPECT_EQ(frame, "got req-" + std::to_string(i) + "\nFRAME-END\n");
  }
  ASSERT_TRUE(proc.WriteLine("QUIT"));
  const SubprocessResult r = proc.Reap();
  EXPECT_EQ(r.status, SubprocessStatus::kExited);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_FALSE(proc.alive());
}

TEST(PersistentProcessTest, BytesPastTheSentinelStayBufferedForTheNextFrame) {
  // One request triggers two complete frames in a single burst; the
  // second must be returned by the *next* ReadFrame, not lost.
  const std::string script = WriteWorkerScript(
      "burst",
      "read line\n"
      "printf 'alpha\\nFRAME-END\\nbeta\\nFRAME-END\\n'\n"
      "read line2\n");
  PersistentProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn({script, "pool-worker"}, {}, &error)) << error;
  ASSERT_TRUE(proc.WriteLine("go"));
  std::string frame;
  ASSERT_EQ(proc.ReadFrame("FRAME-END", 5'000, nullptr, &frame),
            PersistentProcess::ReadStatus::kOk);
  EXPECT_EQ(frame, "alpha\nFRAME-END\n");
  ASSERT_EQ(proc.ReadFrame("FRAME-END", 5'000, nullptr, &frame),
            PersistentProcess::ReadStatus::kOk);
  EXPECT_EQ(frame, "beta\nFRAME-END\n");
}

TEST(PersistentProcessTest, SentinelInsideALineDoesNotEndTheFrame) {
  // The sentinel must match a whole line: a report whose payload
  // *contains* the sentinel text mid-line keeps the frame open.
  const std::string script = WriteWorkerScript(
      "tricky",
      "read line\n"
      "printf 'prefix FRAME-END suffix\\nFRAME-END\\n'\n"
      "read line2\n");
  PersistentProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn({script, "pool-worker"}, {}, &error)) << error;
  ASSERT_TRUE(proc.WriteLine("go"));
  std::string frame;
  ASSERT_EQ(proc.ReadFrame("FRAME-END", 5'000, nullptr, &frame),
            PersistentProcess::ReadStatus::kOk);
  EXPECT_EQ(frame, "prefix FRAME-END suffix\nFRAME-END\n");
}

TEST(PersistentProcessTest, SilentWorkerTimesOut) {
  const std::string script =
      WriteWorkerScript("silent", "read line\nsleep 30\n");
  PersistentProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn({script, "pool-worker"}, {}, &error)) << error;
  ASSERT_TRUE(proc.WriteLine("go"));
  std::string frame;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(proc.ReadFrame("FRAME-END", 100, nullptr, &frame),
            PersistentProcess::ReadStatus::kTimeout);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            10.0);
  const SubprocessResult r = proc.Kill();
  EXPECT_EQ(r.status, SubprocessStatus::kSignaled);
  EXPECT_FALSE(proc.alive());
}

TEST(PersistentProcessTest, DyingWorkerYieldsEofThenItsRealWaitStatus) {
  const std::string script =
      WriteWorkerScript("dier", "read line\nkill -SEGV $$\n");
  PersistentProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn({script, "pool-worker"}, {}, &error)) << error;
  ASSERT_TRUE(proc.WriteLine("go"));
  std::string frame;
  EXPECT_EQ(proc.ReadFrame("FRAME-END", 5'000, nullptr, &frame),
            PersistentProcess::ReadStatus::kEof);
  const SubprocessResult r = proc.Reap();
  EXPECT_EQ(r.status, SubprocessStatus::kSignaled);
  EXPECT_EQ(r.term_signal, SIGSEGV);
}

TEST(PersistentProcessTest, InterruptFlagUnblocksTheRead) {
  const std::string script =
      WriteWorkerScript("hang", "read line\nsleep 30\n");
  PersistentProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn({script, "pool-worker"}, {}, &error)) << error;
  ASSERT_TRUE(proc.WriteLine("go"));
  std::atomic<int> interrupt{0};
  std::thread trip([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    interrupt.store(1);
  });
  std::string frame;
  EXPECT_EQ(proc.ReadFrame("FRAME-END", 30'000, &interrupt, &frame),
            PersistentProcess::ReadStatus::kInterrupted);
  trip.join();
  proc.Kill();
}

TEST(SubprocessTest, CapturesOutputAndExitCode) {
  // A child that never frames its output: the bytes and the exit code
  // both surface through Reap(), which is what the supervisor
  // classifies a dead worker by.
  PersistentProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn({"/bin/sh", "-c", "echo hello-from-child; exit 7"},
                         {}, &error))
      << error;
  std::string frame;
  EXPECT_EQ(proc.ReadFrame("FRAME-END", 5'000, nullptr, &frame),
            PersistentProcess::ReadStatus::kEof);
  const SubprocessResult r = proc.Reap();
  EXPECT_EQ(r.status, SubprocessStatus::kExited);
  EXPECT_EQ(r.exit_code, 7);
  EXPECT_NE(r.output.find("hello-from-child"), std::string::npos);
}

TEST(SubprocessTest, LargeOutputDoesNotDeadlock) {
  // A 400 KiB frame, well past any pipe buffer: the parent must drain
  // while the child writes.
  PersistentProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn({"/bin/sh", "-c",
                          "i=0; while [ $i -lt 400 ]; do "
                          "printf '%01024d' 0; i=$((i+1)); done; "
                          "printf '\\nFRAME-END\\n'"},
                         {}, &error))
      << error;
  std::string frame;
  ASSERT_EQ(proc.ReadFrame("FRAME-END", 30'000, nullptr, &frame),
            PersistentProcess::ReadStatus::kOk);
  EXPECT_EQ(frame.size(), 400u * 1024u + std::string("\nFRAME-END\n").size());
  const SubprocessResult r = proc.Reap();
  EXPECT_EQ(r.status, SubprocessStatus::kExited);
  EXPECT_EQ(r.exit_code, 0);
}

TEST(SubprocessTest, ReportsTerminationSignal) {
  // Killed before it ever read a request: the signal still surfaces.
  PersistentProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn({"/bin/sh", "-c", "kill -SEGV $$"}, {}, &error))
      << error;
  const SubprocessResult r = proc.Reap();
  EXPECT_EQ(r.status, SubprocessStatus::kSignaled);
  EXPECT_EQ(r.term_signal, SIGSEGV);
}

TEST(SubprocessTest, EmptyArgvIsASpawnError) {
  PersistentProcess proc;
  std::string error;
  EXPECT_FALSE(proc.Spawn({}, {}, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(proc.alive());
}

TEST(SubprocessTest, ExecFailureExitsWithShellConvention) {
  PersistentProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn({"/definitely/not/a/real/binary"}, {}, &error))
      << error;
  const SubprocessResult r = proc.Reap();
  EXPECT_EQ(r.status, SubprocessStatus::kExited);
  EXPECT_EQ(r.exit_code, 127);
}

TEST(PersistentProcessTest, SpawnedChildRunsUnderTheResourceCaps) {
  SubprocessLimits limits;
  limits.rlimit_mb = 512;
  limits.cpu_seconds = 7;
  PersistentProcess proc;
  std::string error;
  // dash and bash both print RLIMIT_AS in KiB and the soft CPU cap.
  ASSERT_TRUE(proc.Spawn({"/bin/sh", "-c",
                          "ulimit -v; ulimit -t; ulimit -c; echo FRAME-END"},
                         limits, &error))
      << error;
  std::string frame;
  ASSERT_EQ(proc.ReadFrame("FRAME-END", 5'000, nullptr, &frame),
            PersistentProcess::ReadStatus::kOk);
  EXPECT_EQ(frame, "524288\n7\n0\nFRAME-END\n");
  proc.Reap();
}

/// The fds this process would pass to an exec'd child: every open fd
/// without close-on-exec.
std::set<int> InheritableFds() {
  std::set<int> fds;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return fds;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const int fd = std::atoi(entry->d_name);
    if (fd == dirfd(dir)) continue;
    const int flags = fcntl(fd, F_GETFD);
    if (flags >= 0 && (flags & FD_CLOEXEC) == 0) fds.insert(fd);
  }
  closedir(dir);
  return fds;
}

TEST(PersistentProcessTest, LaterWorkersDoNotInheritEarlierWorkersPipes) {
  // A worker holding another worker's stdout write end would keep that
  // worker's death from ever reading as EOF. Worker B lists its own
  // fds: beyond its stdio and what the test process itself leaves
  // inheritable, only the one `ls` opens for the directory may appear.
  struct stat proc_fd;
  if (stat("/proc/self/fd", &proc_fd) != 0) GTEST_SKIP() << "no /proc";
  const std::set<int> before = InheritableFds();
  PersistentProcess a;
  std::string error;
  ASSERT_TRUE(a.Spawn({EchoServer(), "pool-worker"}, {}, &error)) << error;
  PersistentProcess b;
  ASSERT_TRUE(b.Spawn({"ls", "/proc/self/fd"}, {}, &error)) << error;
  std::string frame;
  ASSERT_EQ(b.ReadFrame("FRAME-END", 5'000, nullptr, &frame),
            PersistentProcess::ReadStatus::kEof);
  const SubprocessResult listing = b.Reap();
  ASSERT_EQ(listing.status, SubprocessStatus::kExited);
  ASSERT_EQ(listing.exit_code, 0) << listing.output;
  std::set<int> extra;
  std::istringstream in(listing.output);
  for (int fd; in >> fd;) {
    if (fd > 2 && before.count(fd) == 0) extra.insert(fd);
  }
  EXPECT_EQ(extra.size(), 1u) << "worker B's fds:\n" << listing.output;
  ASSERT_TRUE(a.WriteLine("QUIT"));
  EXPECT_EQ(a.Reap().exit_code, 0);
}

TEST(PersistentProcessTest, ExitedWorkerIsEofWhileAGrandchildHoldsItsStdout) {
  // The worker exits but leaves a background child holding its stdout
  // open: the read must still end at the worker's death, not at the
  // deadline, and Reap() must still see the real exit status.
  PersistentProcess proc;
  std::string error;
  ASSERT_TRUE(proc.Spawn({"/bin/sh", "-c", "sleep 30 & echo $!; exit 3"}, {},
                         &error))
      << error;
  std::string frame;
  const PersistentProcess::ReadStatus status =
      proc.ReadFrame("FRAME-END", 5'000, nullptr, &frame);
  const SubprocessResult r = proc.Reap();
  const long grandchild = std::atol(r.output.c_str());
  if (grandchild > 0) kill(static_cast<pid_t>(grandchild), SIGKILL);
  EXPECT_EQ(status, PersistentProcess::ReadStatus::kEof);
  EXPECT_EQ(r.status, SubprocessStatus::kExited);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_GT(grandchild, 0) << r.output;
}

// -- WorkerPool: pooled pair verification --------------------------------------

corpus::Pair TinyPair() { return corpus::BuildPair(1); }

/// A well-behaved pool worker: serves the canned report for every
/// OCTO-PAIR request, exits on OCTO-EXIT.
std::string ServingScript(const std::string& report_path) {
  return "while read line; do\n"
         "  if [ \"$line\" = OCTO-EXIT ]; then exit 0; fi\n"
         "  cat " +
         report_path +
         "\n"
         "done\n";
}

TEST(WorkerPoolTest, OneSpawnServesManyPairs) {
  const std::string report_path = TempPath("serve_report.txt");
  WriteText(report_path, MarshalWorkerReport(FullReport()));
  IsolationOptions iso;
  iso.worker_binary =
      WriteWorkerScript("serve", ServingScript(report_path));
  WorkerPool pool(iso, /*size=*/1);
  for (int i = 0; i < 5; ++i) {
    const SupervisedResult r = pool.RunPair(TinyPair(), nullptr);
    EXPECT_EQ(r.last_outcome, ChildOutcome::kCleanReport) << "pair " << i;
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_FALSE(r.quarantined);
    ExpectReportsEqual(FullReport(), r.report);
  }
  const WorkerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.spawns, 1u) << "the worker must be reused, not respawned";
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_EQ(stats.dispatches, 5u);
}

TEST(WorkerPoolTest, CrashedWorkerIsRespawnedAndThePairRetried) {
  const std::string report_path = TempPath("respawn_report.txt");
  const std::string stamp = TempPath("respawn_stamp");
  std::remove(stamp.c_str());
  WriteText(report_path, MarshalWorkerReport(FullReport()));
  // First incarnation crashes on its first request; the respawned one
  // serves cleanly.
  IsolationOptions iso;
  iso.worker_binary = WriteWorkerScript(
      "flaky",
      "while read line; do\n"
      "  if [ \"$line\" = OCTO-EXIT ]; then exit 0; fi\n"
      "  if [ ! -e " + stamp + " ]; then : > " + stamp +
          "; kill -SEGV $$; fi\n"
      "  cat " + report_path + "\n"
      "done\n");
  iso.max_retries = 2;
  WorkerPool pool(iso, /*size=*/1);
  const SupervisedResult r = pool.RunPair(TinyPair(), nullptr);
  EXPECT_EQ(r.last_outcome, ChildOutcome::kCleanReport);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_FALSE(r.quarantined);
  ExpectReportsEqual(FullReport(), r.report);
  const WorkerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.spawns, 2u);
  EXPECT_EQ(stats.respawns, 1u);
  EXPECT_EQ(stats.dispatches, 2u);
}

TEST(WorkerPoolTest, PersistentCrasherIsQuarantined) {
  IsolationOptions iso;
  iso.worker_binary = WriteWorkerScript(
      "crasher", "read line\nkill -SEGV $$\n");
  iso.max_retries = 1;
  WorkerPool pool(iso, /*size=*/1);
  const SupervisedResult r = pool.RunPair(TinyPair(), nullptr);
  EXPECT_TRUE(r.quarantined);
  EXPECT_EQ(r.attempts, 2u);  // original + one retry
  EXPECT_EQ(r.last_outcome, ChildOutcome::kCrashSignal);
  EXPECT_EQ(r.report.verdict, Verdict::kFailure);
  EXPECT_TRUE(r.report.exception_contained);
  EXPECT_NE(r.report.detail.find("quarantined"), std::string::npos);
  EXPECT_EQ(pool.stats().respawns, 1u);
}

TEST(WorkerPoolTest, WorkerThatDiedBetweenPairsIsClassifiedByItsWaitStatus) {
  // The worker serves one frame and exits 5. The next request either
  // hits EPIPE (the worker is already gone) or is written just before
  // it exits and reads EOF; both sides of that race must classify the
  // real wait status, not invent a crash.
  const std::string report_path = TempPath("exit5_report.txt");
  WriteText(report_path, MarshalWorkerReport(FullReport()));
  IsolationOptions iso;
  iso.worker_binary = WriteWorkerScript(
      "exit5", "read line\ncat " + report_path + "\nexit 5\n");
  iso.max_retries = 0;
  WorkerPool pool(iso, /*size=*/1);
  ASSERT_EQ(pool.RunPair(TinyPair(), nullptr).last_outcome,
            ChildOutcome::kCleanReport);
  // Usually lets the worker exit first, so the EPIPE side runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const SupervisedResult r = pool.RunPair(TinyPair(), nullptr);
  EXPECT_EQ(r.last_outcome, ChildOutcome::kNonzeroExit);
  EXPECT_TRUE(r.quarantined);
  EXPECT_EQ(r.report.detail,
            "quarantined after 1 worker attempt(s): nonzero-exit 5");
}

TEST(WorkerPoolTest, MissingBinaryIsQuarantinedNamingExit127) {
  IsolationOptions iso;
  iso.worker_binary = "/definitely/not/a/real/binary";
  iso.max_retries = 1;
  WorkerPool pool(iso, /*size=*/1);
  const SupervisedResult r = pool.RunPair(TinyPair(), nullptr);
  EXPECT_TRUE(r.quarantined);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.last_outcome, ChildOutcome::kNonzeroExit);
  EXPECT_EQ(r.report.verdict, Verdict::kFailure);
  EXPECT_EQ(r.report.detail,
            "quarantined after 2 worker attempt(s): nonzero-exit 127");
}

TEST(WorkerPoolTest, WedgedWorkerIsKilledAtTheDeadlineWithoutRetry) {
  IsolationOptions iso;
  iso.worker_binary =
      WriteWorkerScript("wedged", "read line\nsleep 30\n");
  iso.max_retries = 3;
  iso.deadline_ms = 100;
  WorkerPool pool(iso, /*size=*/1);
  const auto start = std::chrono::steady_clock::now();
  const SupervisedResult r = pool.RunPair(TinyPair(), nullptr);
  EXPECT_EQ(r.last_outcome, ChildOutcome::kTimeout);
  EXPECT_EQ(r.attempts, 1u);  // the cap is deterministic: never retried
  EXPECT_TRUE(r.report.deadline_expired);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            10.0);
}

TEST(WorkerPoolTest, InterruptDrainsWithoutDispatching) {
  IsolationOptions iso;
  iso.worker_binary = WriteWorkerScript("never", "exit 0\n");
  WorkerPool pool(iso, /*size=*/1);
  const std::atomic<int> interrupt{1};
  const SupervisedResult r = pool.RunPair(TinyPair(), &interrupt);
  EXPECT_TRUE(r.interrupted);
  EXPECT_EQ(r.attempts, 0u);
  EXPECT_EQ(pool.stats().dispatches, 0u);
  EXPECT_EQ(pool.stats().spawns, 0u) << "workers spawn lazily";
}

TEST(WorkerPoolTest, ConcurrentCallersShareTheFixedWorkerFleet) {
  const std::string report_path = TempPath("mt_report.txt");
  WriteText(report_path, MarshalWorkerReport(FullReport()));
  IsolationOptions iso;
  iso.worker_binary = WriteWorkerScript("mt", ServingScript(report_path));
  WorkerPool pool(iso, /*size=*/2);
  std::atomic<int> clean{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        const SupervisedResult r = pool.RunPair(TinyPair(), nullptr);
        if (r.last_outcome == ChildOutcome::kCleanReport) ++clean;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(clean.load(), 12);
  const WorkerPool::Stats stats = pool.stats();
  EXPECT_LE(stats.spawns, 2u) << "never more workers than the pool size";
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_EQ(stats.dispatches, 12u);
}

#endif  // !_WIN32

}  // namespace
}  // namespace octopocs::core
