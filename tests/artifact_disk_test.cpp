// Persistent artifact tier (core/artifact_disk.h): durability and heal
// rules, with a torn-write property test over every byte truncation of
// the log. A store that survived a SIGKILL must reopen with at worst its
// torn trailing record dropped; a failed write must leave every later
// record readable; a corrupt payload must read as a miss, never as
// data; and a warm reopen must return the exact bytes the cold store
// was given.
#include "core/artifact_disk.h"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>

#include <sys/resource.h>

#include "core/report_io.h"
#include "support/fault.h"

namespace octopocs::core {
namespace {

// Each record is a 32-byte header followed by its payload.
constexpr std::size_t kHeaderBytes = 32;

std::string TempDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "octopocs_disk_" + name;
  // Start fresh: stale records from a previous run would change the
  // truncation offsets the matrix below depends on.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

std::string LogPath(const std::string& dir) { return dir + "/artifacts.log"; }

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

TEST(DiskArtifactStore, EveryTruncationOfTheLogHealsOnReopen) {
  // Build a reference store with three artifacts, then replay every
  // possible torn write of the log — from an empty file through every
  // byte of every header and payload. Reopen must always succeed, keep
  // exactly the records that survived whole, and read each survivor
  // back intact.
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
  const std::string log_path = LogPath(dir);
  const std::string full = ReadFileBytes(log_path);
  std::size_t record_end[3];
  std::size_t end = 0;
  for (int i = 0; i < 3; ++i) {
    end += kHeaderBytes + payloads[i].size();
    record_end[i] = end;
  }
  ASSERT_EQ(full.size(), end);

  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    WriteFileBytes(log_path, full.substr(0, keep));
    auto store = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << "truncation at " << keep << ": " << error;
    std::size_t whole_records = 0;
    while (whole_records < 3 && record_end[whole_records] <= keep) {
      ++whole_records;
    }
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
    // A cut on a record boundary (or an empty file) is a whole log;
    // any other length is a torn header or payload.
    const bool torn =
        keep != (whole_records == 0 ? 0 : record_end[whole_records - 1]);
    EXPECT_EQ(store->stats().healed_records, torn ? 1u : 0u) << keep;
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
    // Restore the reference log for the next truncation point.
    WriteFileBytes(log_path, full);
  }
}

TEST(DiskArtifactStore, MidFileCorruptionHealsTheSuffix) {
  // A wrong magic mid-log cannot be told from a torn tail, so Open
  // truncates there: the records before it are served, the ones after
  // it are gone (recomputed by the caller), and none is served wrong.
  const std::string dir = TempDir("midfile");
  std::string error;
  {
    auto store = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << error;
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(store->Put(Key(i), ByteView(Payload("x"))));
    }
  }
  const std::string log_path = LogPath(dir);
  std::string bytes = ReadFileBytes(log_path);
  bytes[kHeaderBytes + 1] ^= 0x5a;  // record 1's magic; record 2 follows
  WriteFileBytes(log_path, bytes);

  auto store = DiskArtifactStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->stats().healed_records, 1u);
  EXPECT_EQ(store->size(), 1u);
  const auto got = store->Get(Key(0));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, Payload("x"));
  EXPECT_FALSE(store->Get(Key(1)).has_value());
  EXPECT_FALSE(store->Get(Key(2)).has_value());
  EXPECT_EQ(ReadFileBytes(log_path).size(), kHeaderBytes + 1);
}

TEST(DiskArtifactStore, CorruptFinalRecordHealsOnReopen) {
  // A final record whose payload fails its checksum is what a crash
  // leaves when the header reached the disk and the payload did not:
  // Open cuts it off, and the records before it are served.
  const std::string dir = TempDir("finalrot");
  std::string error;
  {
    auto store = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Put(Key(1), ByteView(Payload("first"))));
    ASSERT_TRUE(store->Put(Key(2), ByteView(Payload("second"))));
  }
  const std::string log_path = LogPath(dir);
  std::string bytes = ReadFileBytes(log_path);
  ASSERT_FALSE(bytes.empty());
  bytes.back() ^= 0x01;
  WriteFileBytes(log_path, bytes);

  auto store = DiskArtifactStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->stats().healed_records, 1u);
  EXPECT_EQ(store->size(), 1u);
  const auto got = store->Get(Key(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, Payload("first"));
  EXPECT_FALSE(store->Get(Key(2)).has_value());
  EXPECT_EQ(store->stats().corrupt_drops, 0u);
}

TEST(DiskArtifactStore, CorruptPayloadIsAMissNeverServed) {
  // Bit rot in a middle record: Open loads it (only the final record is
  // checksummed there), and Get refuses to serve it.
  const std::string dir = TempDir("bitrot");
  std::string error;
  {
    auto store = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Put(Key(1), ByteView(Payload("precious bytes"))));
    ASSERT_TRUE(store->Put(Key(2), ByteView(Payload("later bytes"))));
  }
  const std::string log_path = LogPath(dir);
  std::string bytes = ReadFileBytes(log_path);
  bytes[kHeaderBytes + 3] ^= 0x01;  // inside record 1's payload
  WriteFileBytes(log_path, bytes);

  auto store = DiskArtifactStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->stats().healed_records, 0u);
  EXPECT_FALSE(store->Get(Key(1)).has_value());
  EXPECT_EQ(store->stats().corrupt_drops, 1u);
  // The entry was forgotten: the next lookup is a plain cheap miss.
  EXPECT_FALSE(store->Get(Key(1)).has_value());
  EXPECT_EQ(store->stats().corrupt_drops, 1u);
  // The record after it is untouched.
  const auto got = store->Get(Key(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, Payload("later bytes"));
}

TEST(DiskArtifactStore, PayloadPastEndOfLogIsDropped) {
  // The header survived the crash but the tail of its payload did not
  // (or the log was truncated by hand): the record must be dropped at
  // Open.
  const std::string dir = TempDir("dangling");
  std::string error;
  {
    auto store = DiskArtifactStore::Open(dir, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Put(Key(1), ByteView(Payload("first"))));
    ASSERT_TRUE(store->Put(Key(2), ByteView(Payload("second"))));
  }
  const std::string log_path = LogPath(dir);
  const std::string bytes = ReadFileBytes(log_path);
  WriteFileBytes(log_path, bytes.substr(0, bytes.size() - 3));

  auto store = DiskArtifactStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->size(), 1u);
  EXPECT_EQ(store->stats().healed_records, 1u);
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

TEST(DiskArtifactStore, FailedWriteLeavesLaterRecordsReadable) {
  // A write that fails part-way (here: the process's file-size limit)
  // must not leave torn bytes in front of the next record. The limit
  // lands inside the second record's bytes.
  const std::string dir = TempDir("fsize");
  std::string error;
  auto store = DiskArtifactStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  const Bytes first(100, 0x11);
  const Bytes doomed(200, 0x22);
  const Bytes later(40, 0x33);
  ASSERT_TRUE(store->Put(Key(1), ByteView(first)));

  struct rlimit saved;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit capped = saved;
  capped.rlim_cur = 150;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  const bool doomed_stored = store->Put(Key(2), ByteView(doomed));
  setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_FALSE(doomed_stored);
  EXPECT_EQ(store->stats().store_errors, 1u);
  EXPECT_FALSE(store->Contains(Key(2)));
  ASSERT_TRUE(store->Put(Key(3), ByteView(later)));
  const auto got = store->Get(Key(3));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, later);
  EXPECT_EQ(store->stats().corrupt_drops, 0u);

  // The log holds exactly two whole records, and reopens with no heal.
  store.reset();
  auto reopened = DiskArtifactStore::Open(dir, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->stats().healed_records, 0u);
  EXPECT_EQ(reopened->size(), 2u);
  EXPECT_TRUE(reopened->Get(Key(1)).has_value());
  EXPECT_TRUE(reopened->Get(Key(3)).has_value());
}

}  // namespace
}  // namespace octopocs::core
