// Persistent artifact tier (core/artifact_disk.h): durability and heal
// rules, with a torn-write property test over every byte truncation of
// the index. A store that survived a SIGKILL must reopen with at worst its
// torn trailing index record dropped; a corrupt payload must read as a
// miss, never as data; and a warm reopen must return the exact bytes
// the cold store was given.
#include "core/artifact_disk.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/report_io.h"
#include "support/fault.h"

namespace octopocs::core {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "octopocs_disk_" + name;
  // Start fresh: stale files from a previous run would change the
  // truncation offsets the matrix below depends on.
  std::remove((dir + "/segments.dat").c_str());
  std::remove((dir + "/index.dat").c_str());
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Bytes Payload(const std::string& text) {
  return Bytes(text.begin(), text.end());
}

ArtifactKey Key(std::uint64_t n) { return ArtifactKey{n, n * 31 + 7}; }

TEST(DiskArtifactStore, PutGetRoundTripAndIdempotence) {
  const std::string dir = TempDir("roundtrip");
  std::string error;
  auto store = DiskArtifactStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;

  const Bytes payload = Payload("artifact body \x01\xff bytes");
  EXPECT_FALSE(store->Contains(Key(1)));
  EXPECT_TRUE(store->Put(Key(1), ByteView(payload)));
  EXPECT_TRUE(store->Contains(Key(1)));
  // Idempotent: a second Put of the same key is a no-op, not a second
  // segment append.
  EXPECT_TRUE(store->Put(Key(1), ByteView(payload)));
  EXPECT_EQ(store->stats().stores, 1u);

  const auto got = store->Get(Key(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_FALSE(store->Get(Key(2)).has_value());
  EXPECT_EQ(store->stats().hits, 1u);
  EXPECT_EQ(store->stats().misses, 1u);
}

TEST(DiskArtifactStore, EveryTruncationOfTheIndexHealsOnReopen) {
  // Build a reference store with three artifacts, then replay every
  // possible torn write of the index file — from an empty file through
  // a partial header through every byte of the last record. Reopen must
  // always succeed, keep exactly the entries whose records survived
  // whole, and read each survivor back intact.
  const std::string dir = TempDir("torn");
  std::string error;
  const Bytes payloads[3] = {Payload("alpha"), Payload("beta-beta"),
                             Payload("gamma payload")};
  {
    auto store = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << error;
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(store->Put(Key(i), ByteView(payloads[i])));
    }
  }
  const std::string index_path = dir + "/index.dat";
  const std::string full = ReadFileBytes(index_path);
  constexpr std::size_t kHeaderBytes = 12;
  constexpr std::size_t kRecordBytes = 40;
  ASSERT_EQ(full.size(), kHeaderBytes + 3 * kRecordBytes);

  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    WriteFileBytes(index_path, full.substr(0, keep));
    auto store = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << "truncation at " << keep << ": " << error;
    const std::size_t whole_records =
        keep < kHeaderBytes ? 0 : (keep - kHeaderBytes) / kRecordBytes;
    EXPECT_EQ(store->size(), whole_records) << keep;
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto got = store->Get(Key(i));
      if (i < whole_records) {
        ASSERT_TRUE(got.has_value()) << keep << " key " << i;
        EXPECT_EQ(*got, payloads[i]) << keep << " key " << i;
      } else {
        EXPECT_FALSE(got.has_value()) << keep << " key " << i;
      }
    }
    // keep == 0 reopens as a brand-new store (nothing to heal); any
    // other non-boundary length is a torn header or record.
    const bool torn =
        keep != 0 && keep != kHeaderBytes + whole_records * kRecordBytes;
    EXPECT_EQ(store->stats().healed_records != 0, torn) << keep;
    // Re-adding the dropped artifacts must land on a clean tail: a
    // fresh reopen then sees all three whole.
    for (std::uint64_t i = whole_records; i < 3; ++i) {
      ASSERT_TRUE(store->Put(Key(i), ByteView(payloads[i]))) << keep;
    }
    store.reset();
    auto healed = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(healed, nullptr) << keep << ": " << error;
    EXPECT_EQ(healed->size(), 3u) << keep;
    EXPECT_EQ(healed->stats().healed_records, 0u) << keep;
    healed.reset();
    // Restore the reference files for the next truncation point.
    WriteFileBytes(index_path, full);
  }
}

TEST(DiskArtifactStore, MidFileCorruptionIsRefusedNotHealed) {
  // Garbage in the middle of the index is not a torn tail — it means
  // the file was damaged in place, and silently dropping the suffix
  // would serve an artifact set that never existed. Refuse.
  const std::string dir = TempDir("midfile");
  std::string error;
  {
    auto store = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << error;
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(store->Put(Key(i), ByteView(Payload("x"))));
    }
  }
  const std::string index_path = dir + "/index.dat";
  std::string bytes = ReadFileBytes(index_path);
  bytes[12 + 40] ^= 0x5a;  // record 1's magic — records 1 and 2 exist after it
  WriteFileBytes(index_path, bytes);
  EXPECT_EQ(DiskArtifactStore::Open(dir, &error), nullptr);
  EXPECT_NE(error.find("malformed"), std::string::npos) << error;
}

TEST(DiskArtifactStore, CorruptPayloadIsAMissNeverServed) {
  const std::string dir = TempDir("bitrot");
  std::string error;
  {
    auto store = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Put(Key(1), ByteView(Payload("precious bytes"))));
  }
  const std::string seg_path = dir + "/segments.dat";
  std::string seg = ReadFileBytes(seg_path);
  seg[3] ^= 0x01;
  WriteFileBytes(seg_path, seg);

  auto store = DiskArtifactStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_FALSE(store->Get(Key(1)).has_value());
  EXPECT_EQ(store->stats().corrupt_drops, 1u);
  // The entry was forgotten: the next lookup is a plain cheap miss.
  EXPECT_FALSE(store->Get(Key(1)).has_value());
  EXPECT_EQ(store->stats().corrupt_drops, 1u);
}

TEST(DiskArtifactStore, IndexRecordPastSegmentEndIsDropped) {
  // The index record fsync'd but the segment bytes did not survive the
  // crash (or the segment was truncated by hand): the dangling record
  // and everything after it must be dropped at Open.
  const std::string dir = TempDir("dangling");
  std::string error;
  {
    auto store = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Put(Key(1), ByteView(Payload("first"))));
    ASSERT_TRUE(store->Put(Key(2), ByteView(Payload("second"))));
  }
  const std::string seg_path = dir + "/segments.dat";
  const std::string seg = ReadFileBytes(seg_path);
  WriteFileBytes(seg_path, seg.substr(0, seg.size() - 3));

  auto store = DiskArtifactStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->size(), 1u);
  const auto got = store->Get(Key(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, Payload("first"));
  EXPECT_FALSE(store->Get(Key(2)).has_value());
}

TEST(DiskArtifactStore, ColdAndWarmReadsAreByteIdentical) {
  // The serve-layer contract in miniature: what a cold store was given
  // is exactly what a warm reopen returns, byte for byte — including a
  // serialized verification report, the daemon's actual payload.
  const std::string dir = TempDir("coldwarm");
  std::string error;
  VerificationReport report;
  report.verdict = Verdict::kTriggered;
  report.type = ResultType::kTypeII;
  report.detail = "bytes with \"escapes\"\n";
  report.reformed_poc = {0x00, 0xff, 0x41};
  report.timings.total_seconds = 0.125;
  const std::string json = SerializeReport(report);
  {
    auto store = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Put(
        Key(9), ByteView(reinterpret_cast<const std::uint8_t*>(json.data()),
                         json.size())));
  }
  auto store = DiskArtifactStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->stats().loaded_records, 1u);
  const auto got = store->Get(Key(9));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(std::string(got->begin(), got->end()), json);
  VerificationReport warm;
  ASSERT_TRUE(ParseReport(std::string(got->begin(), got->end()), &warm,
                          &error));
  EXPECT_EQ(SerializeReport(warm), json);
}

TEST(DiskArtifactStore, InjectedWriteFaultDegradesToCacheless) {
  const std::string dir = TempDir("fault");
  std::string error;
  auto store = DiskArtifactStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;

  support::fault::Arm(support::FaultSite::kDiskStoreWrite);
  EXPECT_FALSE(store->Put(Key(1), ByteView(Payload("doomed"))));
  support::fault::Disarm();
  EXPECT_EQ(store->stats().store_errors, 1u);
  EXPECT_FALSE(store->Contains(Key(1)));
  // One failed write poisons nothing: the next Put succeeds.
  EXPECT_TRUE(store->Put(Key(1), ByteView(Payload("fine now"))));
  const auto got = store->Get(Key(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, Payload("fine now"));
}

}  // namespace
}  // namespace octopocs::core
