// Process isolation, supervision, and crash journaling (DESIGN.md §12).
//
// Two layers under test (the process primitive and the pool loop
// itself are in pool_test.cpp):
//   - core/supervisor.h: the pure child-outcome classification
//     (ClassifyChild on every exit path), the deterministic backoff,
//     and isolated corpus runs end to end through VerifyCorpus via
//     shell-script shim workers (a worker that crashes once and then
//     reports cleanly must be retried to success; a pair whose worker
//     always crashes must be quarantined into a contained kFailure
//     report while the other pairs still get their verdicts);
//   - core/journal.h + core/report_io.h: report serialization must
//     round-trip every verdict-bearing field, and the journal loader
//     must replay finished pairs, tolerate a torn trailing record at
//     *any* byte truncation point (the torn-write property test), and
//     refuse corruption anywhere else.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/stat.h>
#endif

#include "core/journal.h"
#include "core/octopocs.h"
#include "core/parallel_verify.h"
#include "core/report_io.h"
#include "core/supervisor.h"
#include "corpus/pairs.h"
#include "report_fixtures.h"
#include "support/subprocess.h"

namespace octopocs::core {
namespace {

using support::SubprocessResult;
using support::SubprocessStatus;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "octopocs_isolation_" + name;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << text;
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

// -- Report (de)serialization -------------------------------------------------

TEST(ReportIoTest, RoundTripsEveryField) {
  const VerificationReport original = FullReport();
  VerificationReport parsed;
  std::string error;
  ASSERT_TRUE(ParseReport(SerializeReport(original), &parsed, &error))
      << error;
  ExpectReportsEqual(original, parsed);
}

TEST(ReportIoTest, RoundTripsARealPipelineReport) {
  const VerificationReport original = VerifyPair(corpus::BuildPair(1));
  VerificationReport parsed;
  std::string error;
  ASSERT_TRUE(ParseReport(SerializeReport(original), &parsed, &error))
      << error;
  ExpectReportsEqual(original, parsed);
}

TEST(ReportIoTest, WorkerFramingRoundTrips) {
  const VerificationReport original = FullReport();
  // Supervisors tolerate worker chatter before the framed report.
  const std::string wire =
      "some stray diagnostic line\n" + MarshalWorkerReport(original);
  VerificationReport parsed;
  std::string error;
  ASSERT_TRUE(UnmarshalWorkerReport(wire, &parsed, &error)) << error;
  ExpectReportsEqual(original, parsed);
}

TEST(ReportIoTest, TornFramingIsRejected) {
  const std::string wire = MarshalWorkerReport(FullReport());
  VerificationReport parsed;
  // Cut anywhere inside the report line or before the DONE sentinel
  // lands: a worker that died mid-write must never yield a report.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, wire.size() / 2, wire.size() - 2}) {
    std::string error;
    EXPECT_FALSE(
        UnmarshalWorkerReport(wire.substr(0, keep), &parsed, &error))
        << "accepted a torn wire at " << keep;
  }
}

TEST(MiniJsonTest, RejectsTrailingGarbageAndTruncation) {
  minijson::Value value;
  std::string error;
  EXPECT_TRUE(minijson::Parse(R"({"a":[1,2.5,"x"],"b":true})", &value,
                              &error));
  EXPECT_FALSE(minijson::Parse(R"({"a":1} trailing)", &value, &error));
  EXPECT_FALSE(minijson::Parse(R"({"a":)", &value, &error));
  EXPECT_FALSE(minijson::Parse(R"({"a")", &value, &error));
  EXPECT_FALSE(minijson::Parse("", &value, &error));
}

TEST(MiniJsonTest, EscapeRoundTripsControlBytes) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  minijson::Value value;
  std::string error;
  ASSERT_TRUE(minijson::Parse("\"" + minijson::Escape(nasty) + "\"", &value,
                              &error))
      << error;
  EXPECT_EQ(value.text, nasty);
}

// -- Child-outcome classification (pure, no processes) ------------------------

TEST(SupervisorTest, ClassifiesEveryExitPath) {
  VerificationReport report;
  SubprocessResult r;

  r.status = SubprocessStatus::kExited;
  r.exit_code = 0;
  r.output = MarshalWorkerReport(FullReport());
  EXPECT_EQ(ClassifyChild(r, &report), ChildOutcome::kCleanReport);
  EXPECT_EQ(report.verdict, Verdict::kTriggered);

  r.output = "garbage with no framing";
  EXPECT_EQ(ClassifyChild(r, &report), ChildOutcome::kMalformedReport);

  const std::string wire = MarshalWorkerReport(FullReport());
  r.output = wire.substr(0, wire.size() / 2);  // torn mid-write
  EXPECT_EQ(ClassifyChild(r, &report), ChildOutcome::kMalformedReport);

  r.exit_code = 3;
  EXPECT_EQ(ClassifyChild(r, &report), ChildOutcome::kNonzeroExit);

  r = SubprocessResult{};
  r.status = SubprocessStatus::kSignaled;
  for (const int crash : {11 /*SEGV*/, 6 /*ABRT*/, 7 /*BUS*/, 4 /*ILL*/}) {
    r.term_signal = crash;
    EXPECT_EQ(ClassifyChild(r, &report), ChildOutcome::kCrashSignal)
        << "signal " << crash;
  }
  for (const int cap : {24 /*XCPU*/, 9 /*KILL*/}) {
    r.term_signal = cap;
    EXPECT_EQ(ClassifyChild(r, &report), ChildOutcome::kResourceKill)
        << "signal " << cap;
  }

  r.status = SubprocessStatus::kSpawnError;
  EXPECT_EQ(ClassifyChild(r, &report), ChildOutcome::kSpawnError);
}

TEST(SupervisorTest, RetryabilityPolicy) {
  EXPECT_TRUE(IsRetryableOutcome(ChildOutcome::kMalformedReport));
  EXPECT_TRUE(IsRetryableOutcome(ChildOutcome::kNonzeroExit));
  EXPECT_TRUE(IsRetryableOutcome(ChildOutcome::kCrashSignal));
  EXPECT_TRUE(IsRetryableOutcome(ChildOutcome::kSpawnError));
  EXPECT_FALSE(IsRetryableOutcome(ChildOutcome::kCleanReport));
  EXPECT_FALSE(IsRetryableOutcome(ChildOutcome::kResourceKill));
  EXPECT_FALSE(IsRetryableOutcome(ChildOutcome::kTimeout));
  EXPECT_FALSE(IsRetryableOutcome(ChildOutcome::kInterrupted));
}

TEST(SupervisorTest, BackoffIsDeterministicBoundedAndJittered) {
  bool saw_distinct = false;
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    const std::uint64_t base =
        std::min<std::uint64_t>(20ull << std::min(attempt, 8u), 250);
    for (int pair = 1; pair <= 15; ++pair) {
      const std::uint64_t ms = RetryBackoffMs(pair, attempt);
      EXPECT_EQ(ms, RetryBackoffMs(pair, attempt)) << "nondeterministic";
      EXPECT_GE(ms, base / 2);
      EXPECT_LE(ms, base + base / 2);
      if (ms != RetryBackoffMs((pair % 15) + 1, attempt)) saw_distinct = true;
    }
  }
  EXPECT_TRUE(saw_distinct) << "jitter never varied across pairs";
}

// -- Isolated corpus runs end to end (shell-script shims) ---------------------

#ifndef _WIN32

/// Writes an executable worker shim. The pool invokes it as
/// `script pool-worker ...`; the scripts ignore their argv.
std::string WriteWorkerScript(const std::string& name,
                              const std::string& body) {
  const std::string path = TempPath(name + ".sh");
  WriteText(path, "#!/bin/sh\n" + body);
  ::chmod(path.c_str(), 0755);
  return path;
}

/// A pool worker that runs `before` on each request line ($line), then
/// answers it with FullReport()'s frame; exits on OCTO-EXIT.
std::string ServingWorker(const std::string& name,
                          const std::string& before = "") {
  const std::string report_path = TempPath(name + "_report.txt");
  WriteText(report_path, MarshalWorkerReport(FullReport()));
  return WriteWorkerScript(name,
                           "while read line; do\n"
                           "  if [ \"$line\" = OCTO-EXIT ]; then exit 0; fi\n" +
                               before + "  cat " + report_path + "\ndone\n");
}

/// VerifyCorpus with `iso` and no caller-owned pool: the run builds its
/// own, exactly like `corpus --isolate`.
std::vector<VerificationReport> RunIsolated(
    const IsolationOptions& iso, const std::vector<corpus::Pair>& pairs,
    const std::atomic<int>* cancel_flag = nullptr) {
  CorpusRunConfig config;
  config.jobs = 2;
  config.isolation = &iso;
  PipelineOptions options;
  options.cancel_flag = cancel_flag;
  return VerifyCorpus(pairs, options, config);
}

TEST(SupervisorTest, CleanWorkerReportIsReturnedVerbatim) {
  IsolationOptions iso;
  iso.worker_binary = ServingWorker("clean");
  iso.max_retries = 0;
  const auto reports = RunIsolated(iso, {corpus::BuildPair(1)});
  ASSERT_EQ(reports.size(), 1u);
  ExpectReportsEqual(FullReport(), reports[0]);
}

TEST(SupervisorTest, CrashingWorkerIsRetriedToSuccess) {
  const std::string stamp = TempPath("retry_stamp");
  std::remove(stamp.c_str());
  IsolationOptions iso;
  iso.worker_binary = ServingWorker(
      "flaky", "  if [ ! -e " + stamp + " ]; then : > " + stamp +
                   "; kill -SEGV $$; fi\n");
  iso.max_retries = 2;
  const auto reports = RunIsolated(iso, {corpus::BuildPair(1)});
  ASSERT_EQ(reports.size(), 1u);
  ExpectReportsEqual(FullReport(), reports[0]);
}

TEST(SupervisorTest, PersistentCrasherIsQuarantined) {
  // Pair 1 crashes every worker that takes it; pair 4 is served. The
  // poisoned pair is quarantined and every other pair still gets its
  // verdict.
  IsolationOptions iso;
  iso.worker_binary = ServingWorker(
      "crasher",
      "  if [ \"$line\" = \"OCTO-PAIR 1\" ]; then kill -SEGV $$; fi\n");
  iso.max_retries = 1;
  const auto reports =
      RunIsolated(iso, {corpus::BuildPair(1), corpus::BuildPair(4)});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].verdict, Verdict::kFailure);
  EXPECT_TRUE(reports[0].exception_contained);
  EXPECT_EQ(reports[0].failed_phase, "worker");
  EXPECT_NE(reports[0].detail.find(
                "quarantined after 2 worker attempt(s): crash-signal 11"),
            std::string::npos)
      << reports[0].detail;
  ExpectReportsEqual(FullReport(), reports[1]);
}

TEST(SupervisorTest, HungWorkerTimesOutWithoutRetry) {
  const std::string tally = TempPath("hang_tally");
  std::remove(tally.c_str());
  IsolationOptions iso;
  iso.worker_binary = WriteWorkerScript(
      "hang", "read line\necho x >> " + tally + "\nsleep 30\n");
  iso.max_retries = 3;
  iso.deadline_ms = 100;
  const auto reports = RunIsolated(iso, {corpus::BuildPair(1)});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].verdict, Verdict::kFailure);
  EXPECT_TRUE(reports[0].deadline_expired);
  EXPECT_NE(reports[0].detail.find("100ms wall-clock cap"), std::string::npos)
      << reports[0].detail;
  // The cap is deterministic: the pair was dispatched once, never retried.
  EXPECT_EQ(ReadText(tally), "x\n");
}

TEST(SupervisorTest, InterruptDrainsWithoutSpawning) {
  const std::string stamp = TempPath("never_stamp");
  std::remove(stamp.c_str());
  IsolationOptions iso;
  iso.worker_binary = WriteWorkerScript("never", ": > " + stamp + "\n");
  const std::atomic<int> interrupt{1};
  const auto reports =
      RunIsolated(iso, {corpus::BuildPair(1), corpus::BuildPair(4)},
                  &interrupt);
  ASSERT_EQ(reports.size(), 2u);
  for (const VerificationReport& r : reports) {
    EXPECT_EQ(r.verdict, Verdict::kFailure);
    EXPECT_TRUE(r.deadline_expired);
  }
  EXPECT_FALSE(std::ifstream(stamp).good()) << "a worker was spawned";
}

#endif  // !_WIN32

// -- Crash journal ------------------------------------------------------------

TEST(JournalTest, FingerprintCoversVerdictBearingKnobs) {
  const PipelineOptions base;
  const std::string fp = CorpusOptionsFingerprint(base, false, 15, false, 0);
  EXPECT_EQ(fp, CorpusOptionsFingerprint(base, false, 15, false, 0));
  EXPECT_NE(fp, CorpusOptionsFingerprint(base, true, 15, false, 0));
  EXPECT_NE(fp, CorpusOptionsFingerprint(base, false, 6, false, 0));
  EXPECT_NE(fp, CorpusOptionsFingerprint(base, false, 15, true, 0));
  EXPECT_NE(fp, CorpusOptionsFingerprint(base, false, 15, true, 256));
  // `corpus --pair-deadline-ms 500` is the pipeline deadline.
  PipelineOptions deadline = base;
  deadline.deadline_ms = 500;
  EXPECT_NE(fp, CorpusOptionsFingerprint(deadline, false, 15, false, 0));
  PipelineOptions tweaked = base;
  tweaked.adaptive_theta = true;
  EXPECT_NE(fp, CorpusOptionsFingerprint(tweaked, false, 15, false, 0));
}

#ifndef _WIN32

TEST(JournalTest, WritesAndReloadsStartedAndFinished) {
  const std::string path = TempPath("basic.jsonl");
  std::string error;
  auto journal = Journal::Create(path, "cafe0123", 15, &error);
  ASSERT_NE(journal, nullptr) << error;
  journal->Started(1, 1);
  journal->Finished(1, FullReport());
  journal->Started(2, 1);
  journal.reset();  // close + final fsync

  const auto state = LoadJournal(path, &error);
  ASSERT_TRUE(state.has_value()) << error;
  EXPECT_EQ(state->options_hash, "cafe0123");
  EXPECT_EQ(state->pair_count, 15u);
  EXPECT_FALSE(state->torn_tail);
  ASSERT_EQ(state->finished.size(), 1u);
  ExpectReportsEqual(FullReport(), state->finished.at(1));
  ASSERT_EQ(state->started_unfinished.size(), 1u);
  EXPECT_EQ(state->started_unfinished.count(2), 1u);
}

TEST(JournalTest, RefusesCorruptionAwayFromTheTail) {
  const std::string path = TempPath("corrupt.jsonl");
  std::string error;

  WriteText(path, "not json\n{\"type\":\"started\",\"pair\":1}\n");
  EXPECT_FALSE(LoadJournal(path, &error).has_value());

  WriteText(path,
            "{\"type\":\"header\",\"version\":1,\"options_hash\":\"x\","
            "\"pair_count\":2}\n"
            "garbage record\n"
            "{\"type\":\"started\",\"pair\":1,\"attempt\":1}\n");
  EXPECT_FALSE(LoadJournal(path, &error).has_value());
  EXPECT_NE(error.find("malformed"), std::string::npos);

  // Wrong version, duplicate finished, unknown type: all hard errors.
  WriteText(path,
            "{\"type\":\"header\",\"version\":99,\"options_hash\":\"x\","
            "\"pair_count\":2}\n");
  EXPECT_FALSE(LoadJournal(path, &error).has_value());
  WriteText(path,
            "{\"type\":\"header\",\"version\":1,\"options_hash\":\"x\","
            "\"pair_count\":2}\n"
            "{\"type\":\"mystery\"}\n"
            "{\"type\":\"started\",\"pair\":1,\"attempt\":1}\n");
  EXPECT_FALSE(LoadJournal(path, &error).has_value());
}

TEST(JournalTest, EveryTruncationOfTheTailRecordResumesCleanly) {
  // Build a reference journal, then replay every possible torn write of
  // its final record: load must succeed, report the torn tail, and
  // Resume must heal it so an appended record lands on a clean line.
  const std::string path = TempPath("torn.jsonl");
  std::string error;
  {
    auto journal = Journal::Create(path, "feedbeef", 15, &error);
    ASSERT_NE(journal, nullptr) << error;
    journal->Started(1, 1);
    journal->Finished(1, FullReport());
    journal->Started(2, 1);
    journal->Finished(2, FullReport());
  }
  const std::string full = ReadText(path);
  ASSERT_FALSE(full.empty());
  // Offset where the last record begins (after the 4th newline).
  std::size_t tail_start = full.size() - 1;
  while (tail_start > 0 && full[tail_start - 1] != '\n') --tail_start;

  for (std::size_t keep = tail_start; keep < full.size(); ++keep) {
    WriteText(path, full.substr(0, keep));
    auto state = LoadJournal(path, &error);
    ASSERT_TRUE(state.has_value())
        << "truncation at " << keep << ": " << error;
    EXPECT_EQ(state->torn_tail, keep != tail_start) << keep;
    EXPECT_EQ(state->valid_bytes, tail_start) << keep;
    ASSERT_EQ(state->finished.size(), 1u) << keep;
    EXPECT_EQ(state->started_unfinished.count(2), 1u) << keep;

    auto journal = Journal::Resume(path, *state, &error);
    ASSERT_NE(journal, nullptr) << error;
    journal->Finished(2, FullReport());
    journal.reset();
    auto healed = LoadJournal(path, &error);
    ASSERT_TRUE(healed.has_value()) << error;
    EXPECT_FALSE(healed->torn_tail);
    EXPECT_EQ(healed->finished.size(), 2u);
  }
}

TEST(JournalTest, CorpusRunJournalsAndResumeReplaysWithoutRerunning) {
  const std::string path = TempPath("corpus.jsonl");
  const std::vector<corpus::Pair> pairs = {corpus::BuildPair(1),
                                           corpus::BuildPair(4)};
  const PipelineOptions options;
  std::string error;

  std::vector<VerificationReport> first;
  {
    auto journal = Journal::Create(path, "deadf00d", pairs.size(), &error);
    ASSERT_NE(journal, nullptr) << error;
    CorpusRunConfig config;
    config.journal = journal.get();
    first = VerifyCorpus(pairs, options, config);
  }

  auto state = LoadJournal(path, &error);
  ASSERT_TRUE(state.has_value()) << error;
  ASSERT_EQ(state->finished.size(), pairs.size());
  EXPECT_TRUE(state->started_unfinished.empty());

  // Resume with every pair finished and a 1ms pair deadline: only a
  // replay (no re-execution) can reproduce the original reports — a
  // re-run would come back deadline_expired.
  PipelineOptions tight = options;
  tight.deadline_ms = 1;
  CorpusRunConfig resume;
  resume.resume_finished = &state->finished;
  const auto replayed = VerifyCorpus(pairs, tight, resume);
  ASSERT_EQ(replayed.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ExpectReportsEqual(first[i], replayed[i]);
  }
}

#endif  // !_WIN32

}  // namespace
}  // namespace octopocs::core
