// The verification daemon (core/server.h): request round-trips,
// request validation, FIFO admission control and shedding, deadline
// composition, per-site fault containment, drain semantics,
// and the cold-vs-warm byte-identity the persistent tier guarantees.
//
// Every test runs the Server in-process on a unix socket under
// TempDir, talking to it through the same SendRequest helper the CLI
// client uses.
#include "core/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/report_io.h"
#include "corpus/pairs.h"
#include "support/fault.h"
#include "support/socket.h"

#ifndef _WIN32

namespace octopocs::core {
namespace {

std::string TempSocket(const std::string& name) {
  return testing::TempDir() + "octopocs_srv_" + name + ".sock";
}

std::string TempCache(const std::string& name) {
  const std::string dir = testing::TempDir() + "octopocs_srvcache_" + name;
  std::remove((dir + "/segments.dat").c_str());
  std::remove((dir + "/index.dat").c_str());
  return dir;
}

ServeOptions BaseOptions(const std::string& socket_path) {
  ServeOptions options;
  options.socket_path = socket_path;
  options.workers = 2;
  options.queue_depth = 8;
  return options;
}

TEST(ServeRequestWire, RoundTripsEveryField) {
  ServeRequest request;
  request.pair = 8;
  request.id = "req \"42\"";
  request.deadline_ms = 1500;
  request.fuzz_fallback = true;
  request.fuzz_seed = 7;
  request.fuzz_execs = 900;
  request.poc_override = {0x00, 0x41, 0xff};
  request.gen_seed = 6000;

  ServeRequest parsed;
  std::string error;
  ASSERT_TRUE(
      ParseServeRequest(SerializeServeRequest(request), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.pair, request.pair);
  EXPECT_EQ(parsed.id, request.id);
  EXPECT_EQ(parsed.deadline_ms, request.deadline_ms);
  EXPECT_EQ(parsed.fuzz_fallback, request.fuzz_fallback);
  EXPECT_EQ(parsed.fuzz_seed, request.fuzz_seed);
  EXPECT_EQ(parsed.fuzz_execs, request.fuzz_execs);
  EXPECT_EQ(parsed.poc_override, request.poc_override);
  EXPECT_EQ(parsed.gen_seed, request.gen_seed);

  EXPECT_FALSE(ParseServeRequest("{\"pair\":0}", &parsed, &error));
  EXPECT_FALSE(ParseServeRequest("not json", &parsed, &error));
  EXPECT_FALSE(ParseServeRequest("{\"pair\":1,\"poc\":\"zz\"}", &parsed,
                                 &error));

  ServeError err{"RETRY_AFTER", 250, "queue full"};
  ServeError parsed_err;
  ASSERT_TRUE(
      ParseServeError(SerializeServeError(err), &parsed_err, &error));
  EXPECT_EQ(parsed_err.code, "RETRY_AFTER");
  EXPECT_EQ(parsed_err.retry_after_ms, 250u);
  EXPECT_EQ(parsed_err.detail, "queue full");
}

TEST(ServeRequestWire, RejectsMalformedNumbers) {
  ServeRequest parsed;
  std::string error;
  // Each of these used to be truncated or wrapped into a servable
  // request (pair 8, or a deadline already in the past).
  for (const char* bad : {
           "{\"pair\":4294967304}",      // 2^32 + 8
           "{\"pair\":8.9}",
           "{\"pair\":2147483648}",      // INT_MAX + 1
           "{\"pair\":-8}",
           "{\"pair\":\"8\"}",
           "{\"pair\":8,\"deadline_ms\":-1}",
           "{\"pair\":8,\"deadline_ms\":4294967296}",  // 2^32
           "{\"pair\":8,\"deadline_ms\":1.5}",
           "{\"pair\":8,\"fuzz_seed\":-1}",
           "{\"pair\":8,\"fuzz_execs\":-1}",
           "{\"pair\":8,\"fuzz_execs\":1e3}",
           "{\"pair\":8,\"gen_seed\":-1}",
       }) {
    EXPECT_FALSE(ParseServeRequest(bad, &parsed, &error)) << bad;
  }
  // The edges of each range still parse.
  ASSERT_TRUE(ParseServeRequest(
      "{\"pair\":2147483647,\"deadline_ms\":4294967295,\"fuzz_seed\":0,"
      "\"fuzz_execs\":0,\"gen_seed\":0}",
      &parsed, &error))
      << error;
  EXPECT_EQ(parsed.pair, 2147483647);
  EXPECT_EQ(parsed.deadline_ms, 4294967295u);
  // Keys of retired request policies are ignored like any unknown key.
  ASSERT_TRUE(ParseServeRequest(
      "{\"pair\":8,\"priority\":5,\"cfg_fallback\":true,"
      "\"solver_retry\":true}",
      &parsed, &error))
      << error;
  EXPECT_EQ(SerializeServeRequest(parsed), "{\"pair\":8}");
}

TEST(ServerTest, RoundTripMatchesInProcessVerdict) {
  const std::string socket_path = TempSocket("roundtrip");
  Server server(BaseOptions(socket_path));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ServeRequest request;
  request.pair = 1;
  const ClientResult result = SendRequest(socket_path, request);
  ASSERT_TRUE(result.ok) << result.transport_error;

  const VerificationReport direct = VerifyPair(corpus::BuildPair(1), {});
  EXPECT_EQ(result.report.verdict, direct.verdict);
  EXPECT_EQ(result.report.type, direct.type);
  EXPECT_EQ(result.report.detail, direct.detail);
  EXPECT_EQ(result.report.reformed_poc, direct.reformed_poc);
  server.Drain();
  EXPECT_EQ(server.stats().served, 1u);
}

TEST(ServerTest, MalformedAndUnknownRequestsAreRejectedCleanly) {
  const std::string socket_path = TempSocket("badreq");
  Server server(BaseOptions(socket_path));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A raw line without the OCTO-REQ prefix.
  {
    int fd = support::ConnectUnix(socket_path, &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(support::WriteAll(fd, "HELLO server\n"));
    support::FdReader reader(fd);
    std::string frame;
    ASSERT_EQ(reader.ReadFrame(kWorkerDoneSentinel, 5000, nullptr, &frame),
              support::FdReader::Status::kOk);
    EXPECT_EQ(frame.rfind(kServeErrPrefix, 0), 0u) << frame;
    EXPECT_NE(frame.find("BAD_REQUEST"), std::string::npos) << frame;
    support::CloseFd(fd);
  }
  // A pair index that would wrap to pair 8 if it were truncated.
  {
    int fd = support::ConnectUnix(socket_path, &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(support::WriteAll(
        fd, std::string(kServeRequestPrefix) + "{\"pair\":4294967304}\n"));
    support::FdReader reader(fd);
    std::string frame;
    ASSERT_EQ(reader.ReadFrame(kWorkerDoneSentinel, 5000, nullptr, &frame),
              support::FdReader::Status::kOk);
    EXPECT_NE(frame.find("BAD_REQUEST"), std::string::npos) << frame;
    EXPECT_NE(frame.find("invalid pair"), std::string::npos) << frame;
    support::CloseFd(fd);
  }
  // A pair index the corpus does not contain.
  {
    ServeRequest request;
    request.pair = 99;
    const ClientResult result = SendRequest(socket_path, request);
    ASSERT_FALSE(result.ok);
    EXPECT_TRUE(result.transport_error.empty()) << result.transport_error;
    EXPECT_EQ(result.error.code, "BAD_REQUEST");
  }
  // The daemon is unharmed: the next honest request is served.
  {
    ServeRequest request;
    request.pair = 1;
    EXPECT_TRUE(SendRequest(socket_path, request).ok);
  }
  server.Drain();
  EXPECT_EQ(server.stats().rejected, 3u);
  EXPECT_EQ(server.stats().served, 1u);
}

TEST(ServerTest, OverloadShedsWithStructuredRetryAfter) {
  // One worker, queue depth one, a burst of concurrent requests: the
  // surplus must be answered RETRY_AFTER with a positive backoff hint,
  // never hung or dropped, and everything admitted must be served.
  const std::string socket_path = TempSocket("overload");
  ServeOptions options = BaseOptions(socket_path);
  options.workers = 1;
  options.queue_depth = 1;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kBurst = 8;
  std::vector<ClientResult> results(kBurst);
  {
    std::vector<std::thread> clients;
    clients.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) {
      clients.emplace_back([&, i] {
        ServeRequest request;
        request.pair = 8;
        results[i] = SendRequest(socket_path, request);
      });
    }
    for (auto& t : clients) t.join();
  }
  server.Drain();

  int served = 0;
  int shed = 0;
  for (const ClientResult& r : results) {
    if (r.ok) {
      ++served;
      continue;
    }
    ASSERT_TRUE(r.transport_error.empty()) << r.transport_error;
    EXPECT_EQ(r.error.code, "RETRY_AFTER");
    EXPECT_GE(r.error.retry_after_ms, 50u);
    ++shed;
  }
  EXPECT_EQ(served + shed, kBurst);
  EXPECT_GE(served, 1);
  EXPECT_GE(shed, 1);
  const ServeStats st = server.stats();
  EXPECT_EQ(st.served, static_cast<std::uint64_t>(served));
  EXPECT_EQ(st.shed, static_cast<std::uint64_t>(shed));
}

TEST(ServeDeadline, ComposesSoonerWinsWithZeroAsUnbounded) {
  EXPECT_EQ(ComposeDeadlineMs(0, 0), 0u);      // neither side bounds
  EXPECT_EQ(ComposeDeadlineMs(0, 250), 250u);  // client budget alone
  EXPECT_EQ(ComposeDeadlineMs(500, 0), 500u);  // server cap alone
  EXPECT_EQ(ComposeDeadlineMs(500, 250), 250u);  // client is sooner
  EXPECT_EQ(ComposeDeadlineMs(250, 500), 250u);  // server cap is sooner
}

TEST(ServerTest, ExpiredDeadlineIsServedNotPersisted) {
  // Warm corpus pairs run far below any millisecond budget, so a real
  // wall-clock expiry cannot be staged reliably; a raised kill switch
  // reaps the run at its first poll and reports it through the
  // same deadline_expired path (see PipelineDeadlineTest).
  const std::string socket_path = TempSocket("deadline");
  ServeOptions options = BaseOptions(socket_path);
  options.workers = 1;
  options.request_deadline_ms = 60'000;
  options.cache_dir = TempCache("deadline");
  std::atomic<int> kill{1};
  options.pipeline.cancel_flag = &kill;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // The expired report is still served to the client...
  ServeRequest request;
  request.pair = 8;
  request.deadline_ms = 1;
  const ClientResult result = SendRequest(socket_path, request);
  ASSERT_TRUE(result.ok) << result.transport_error;
  EXPECT_TRUE(result.report.deadline_expired);
  EXPECT_EQ(result.report.verdict, Verdict::kFailure);
  server.Drain();
  EXPECT_EQ(server.stats().served, 1u);
  // A budget verdict is about this run, not the pair: nothing reached
  // the persistent tier.
  EXPECT_EQ(server.stats().disk_stores, 0u);
  EXPECT_EQ(server.disk_store()->stats().stores, 0u);
}

TEST(ServerTest, ContainedFaultIsRetriedToACleanVerdict) {
  // A tooling fault on the first attempt (the angr-crash analogue) is
  // contained by the pipeline; the server must notice and retry once —
  // the one-shot fault is spent, so the retry produces the clean
  // verdict and the client never sees the hiccup.
  const std::string socket_path = TempSocket("contained");
  ServeOptions options = BaseOptions(socket_path);
  options.workers = 1;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const VerificationReport direct = VerifyPair(corpus::BuildPair(1), {});
  support::fault::Arm(support::FaultSite::kCfgBuild);
  ServeRequest request;
  request.pair = 1;
  const ClientResult result = SendRequest(socket_path, request);
  support::fault::Disarm();
  ASSERT_TRUE(result.ok) << result.transport_error;
  EXPECT_FALSE(result.report.exception_contained);
  EXPECT_EQ(result.report.verdict, direct.verdict);
  EXPECT_EQ(result.report.detail, direct.detail);
  server.Drain();
  EXPECT_EQ(server.stats().contained_retries, 1u);
}

TEST(ServerTest, EachServerFaultSiteIsAbsorbedPerRequest) {
  const std::string socket_path = TempSocket("faults");
  ServeOptions options = BaseOptions(socket_path);
  options.workers = 1;
  options.cache_dir = TempCache("faults");
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ServeRequest request;
  request.pair = 1;

  // kAdmission: the poisoned request sheds with RETRY_AFTER...
  support::fault::Arm(support::FaultSite::kAdmission);
  {
    const ClientResult result = SendRequest(socket_path, request);
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.code, "RETRY_AFTER");
  }
  // ...and the very next request is untouched.
  EXPECT_TRUE(SendRequest(socket_path, request).ok);

  // kDiskStoreWrite: the request is still served; only the persist
  // step degrades (cache-less), visible in the disk stats.
  request.pair = 4;  // a fresh key, so the Put actually runs
  support::fault::Arm(support::FaultSite::kDiskStoreWrite);
  EXPECT_TRUE(SendRequest(socket_path, request).ok);
  EXPECT_EQ(server.disk_store()->stats().store_errors, 1u);
  EXPECT_TRUE(SendRequest(socket_path, request).ok);

  // kResponseWrite: the affected client sees a torn transport, the
  // daemon records the drop and keeps serving.
  support::fault::Arm(support::FaultSite::kResponseWrite);
  {
    const ClientResult result = SendRequest(socket_path, request);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.transport_error.empty());
  }
  support::fault::Disarm();
  EXPECT_TRUE(SendRequest(socket_path, request).ok);
  server.Drain();
  const ServeStats st = server.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.response_drops, 1u);
}

TEST(ServerTest, DrainAnswersInFlightRequestsThenStopsAccepting) {
  const std::string socket_path = TempSocket("drain");
  std::atomic<int> interrupt{0};
  ServeOptions options = BaseOptions(socket_path);
  options.workers = 1;
  options.interrupt = &interrupt;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ClientResult in_flight;
  std::thread client([&] {
    ServeRequest request;
    request.pair = 8;
    in_flight = SendRequest(socket_path, request);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  interrupt.store(SIGTERM);
  server.Wait();  // observes the interrupt and drains
  client.join();

  ASSERT_TRUE(in_flight.ok) << in_flight.transport_error;
  // The socket is gone: new connections fail at the transport.
  const ClientResult late = SendRequest(socket_path, {});
  EXPECT_FALSE(late.ok);
  EXPECT_FALSE(late.transport_error.empty());
}

TEST(UnixListenerTest, ShutdownWakesABlockedAcceptAndLeavesTheFdOpen) {
  const std::string socket_path = TempSocket("listener_shutdown");
  support::UnixListener listener;
  std::string error;
  ASSERT_TRUE(listener.Listen(socket_path, &error)) << error;

  // A one-minute poll: only the shutdown itself can end the wait in time.
  std::atomic<int> accepted{0};
  const auto start = std::chrono::steady_clock::now();
  std::thread acceptor(
      [&] { accepted.store(listener.Accept(60'000, nullptr)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.Shutdown();
  acceptor.join();
  EXPECT_EQ(accepted.load(), -2);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30));
  EXPECT_EQ(listener.Accept(0, nullptr), -2) << "shutdown is sticky";
  EXPECT_TRUE(listener.listening()) << "the fd stays open until Close()";
  listener.Close();
  EXPECT_FALSE(listener.listening());
}

TEST(ServerTest, WarmRestartServesByteIdenticalReportsFromDisk) {
  const std::string socket_path = TempSocket("warm");
  const std::string cache_dir = TempCache("warm");
  ServeRequest request;
  request.pair = 1;

  std::string cold_json;
  {
    ServeOptions options = BaseOptions(socket_path);
    options.cache_dir = cache_dir;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    const ClientResult cold = SendRequest(socket_path, request);
    ASSERT_TRUE(cold.ok) << cold.transport_error;
    cold_json = SerializeReport(cold.report);
    server.Drain();
    EXPECT_EQ(server.stats().disk_stores, 1u);
  }
  // A new process-lifetime (new Server, same cache dir): the report
  // must come from the persistent tier, byte-identical to the cold run.
  {
    ServeOptions options = BaseOptions(socket_path);
    options.cache_dir = cache_dir;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    EXPECT_EQ(server.disk_store()->stats().loaded_records, 1u);
    const ClientResult warm = SendRequest(socket_path, request);
    ASSERT_TRUE(warm.ok) << warm.transport_error;
    EXPECT_EQ(SerializeReport(warm.report), cold_json);
    server.Drain();
    EXPECT_EQ(server.stats().disk_hits, 1u);
  }
}

}  // namespace
}  // namespace octopocs::core

#endif  // !_WIN32
