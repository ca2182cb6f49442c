// Structured tracer (support/trace.h): span nesting, counter events,
// cross-thread merging and the JSONL wire format.
#include "support/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace octopocs::support {
namespace {

TEST(TracerTest, SpanEventsComeOutNestedAndInOrder) {
  Tracer tracer;
  tracer.Begin("outer", 7);
  tracer.Begin("inner");
  tracer.End("inner");
  tracer.End("outer");

  const std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kBegin);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].value, 7);
  EXPECT_EQ(events[1].kind, TraceEventKind::kBegin);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[2].kind, TraceEventKind::kEnd);
  EXPECT_STREQ(events[2].name, "inner");
  EXPECT_EQ(events[3].kind, TraceEventKind::kEnd);
  EXPECT_STREQ(events[3].name, "outer");
  // Sequence numbers are strictly increasing and timestamps monotone.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
}

TEST(TracerTest, TraceSpanIsRaiiAndNullTolerant) {
  Tracer tracer;
  {
    TraceSpan outer(&tracer, "phase", 1);
    TraceSpan inner(&tracer, "attempt");
  }
  EXPECT_EQ(tracer.event_count(), 4u);
  {
    // A null tracer must be a no-op, not a crash — call sites stay
    // branch-free.
    TraceSpan none(nullptr, "ghost");
  }
  EXPECT_EQ(tracer.event_count(), 4u);
}

TEST(TracerTest, CountersCarryValues) {
  Tracer tracer;
  tracer.Counter("widgets", 41);
  tracer.Counter("widgets", -3);
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kCounter);
  EXPECT_EQ(events[0].value, 41);
  EXPECT_EQ(events[1].value, -3);
}

TEST(TracerTest, ManyEventsCrossChunkBoundaries) {
  // Chunks hold 1024 events; 5000 forces several allocations on one
  // thread and the snapshot must still see every event in order.
  Tracer tracer;
  constexpr int kEvents = 5000;
  for (int i = 0; i < kEvents; ++i) tracer.Counter("n", i);
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) EXPECT_EQ(events[i].value, i);
}

TEST(TracerTest, ThreadsMergeWithDistinctTidsAndGlobalOrder) {
  Tracer tracer;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 600;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) tracer.Counter("t", i);
    });
  }
  for (auto& th : threads) th.join();

  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<bool> tid_seen(kThreads, false);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
    ASSERT_LT(events[i].tid, static_cast<std::uint32_t>(kThreads));
    tid_seen[events[i].tid] = true;
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(tid_seen[t]);
}

TEST(TracerTest, JsonlSchemaHasOneWellFormedObjectPerLine) {
  Tracer tracer;
  tracer.Begin("phase", 2);
  tracer.Counter("hits", 9);
  tracer.End("phase");

  std::ostringstream os;
  tracer.WriteJsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);

  // Every line is a single JSON object with the fixed key set.
  for (const std::string& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
    EXPECT_NE(l.find("\"type\":\""), std::string::npos);
    EXPECT_NE(l.find("\"name\":\""), std::string::npos);
    EXPECT_NE(l.find("\"tid\":"), std::string::npos);
    EXPECT_NE(l.find("\"seq\":"), std::string::npos);
    EXPECT_NE(l.find("\"ts_ns\":"), std::string::npos);
  }
  // Spans carry "arg", counters carry "value".
  EXPECT_NE(lines[0].find("\"type\":\"begin\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"arg\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"value\":9"), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"end\""), std::string::npos);
}

TEST(TracerTest, WriteJsonlFileRoundTrips) {
  Tracer tracer;
  tracer.Counter("x", 1);
  const std::string path =
      testing::TempDir() + "octopocs_tracing_test.jsonl";
  ASSERT_TRUE(tracer.WriteJsonlFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"name\":\"x\""), std::string::npos);
  in.close();
  std::remove(path.c_str());
}

TEST(TracerTest, WriteJsonlFileReportsUnwritablePath) {
  Tracer tracer;
  tracer.Counter("x", 1);
  EXPECT_FALSE(tracer.WriteJsonlFile("/nonexistent-dir/trace.jsonl"));
}

}  // namespace
}  // namespace octopocs::support
