// Persistent on-disk tier for verification reports (DESIGN.md §14.4).
//
// The in-memory ArtifactStore dies with the process. This tier keeps
// artifacts in one append-only log under a cache directory, so a
// restarted (or crashed and restarted) daemon comes back warm:
//
//   <dir>/artifacts.log   records back to back, each a 32-byte header
//                         ("OCXR" | length u32 | key.hi u64 | key.lo u64
//                         | FNV-1a u64 of the payload), then the payload
//
// Crash safety: every stored record is one write of a whole record,
// then an fsync (Put does both; Append writes, and a later Flush syncs
// every record appended before it, so serve can answer before the
// fsync), and a failed write is cut off again, so the log is whole
// records followed at worst by one torn record. Open() replays the
// records from offset zero and truncates the log at the first break:
// fewer than 32 bytes left, a wrong magic, a payload past the end of
// the file, or a final record whose payload fails its checksum. Every
// record before the break loads. Get() re-verifies the payload
// checksum on every read, so a corrupt artifact is reported as a miss,
// never served.
//
// The store is single-owner (one process per cache dir) and thread-safe
// within that owner. Values are opaque byte blobs. Verification reports
// go through the helpers at the bottom of this header, which hold the
// one key scheme and the one store rule that `corpus --cache-dir` and
// `serve --cache-dir` share (DESIGN.md §12.3).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/artifact_store.h"
#include "core/octopocs.h"
#include "support/bytes.h"

namespace octopocs::core {

class DiskArtifactStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t store_errors = 0;    // I/O failure / injected fault
    std::uint64_t corrupt_drops = 0;   // checksum mismatch at Get
    std::uint64_t healed_records = 0;  // 1 when Open cut off a torn tail
    std::uint64_t loaded_records = 0;  // entries recovered at Open
  };

  /// Opens (creating if needed) the store under `dir`, replaying the
  /// log and healing a torn tail. Returns nullptr with `*error` set
  /// when the directory or the log cannot be created or healed.
  static std::unique_ptr<DiskArtifactStore> Open(const std::string& dir,
                                                 std::string* error);

  ~DiskArtifactStore();
  DiskArtifactStore(const DiskArtifactStore&) = delete;
  DiskArtifactStore& operator=(const DiskArtifactStore&) = delete;

  /// Durably stores `payload` under `key`: Append, then Flush.
  /// Idempotent: a key already present is left untouched (values for
  /// one key are byte-identical by construction). Returns false on an
  /// I/O failure — the caller degrades to cache-less operation, never
  /// crashes.
  bool Put(const ArtifactKey& key, ByteView payload);

  /// Put without the fsync: the record is written and Get serves it at
  /// once, and it is durable after the next Flush. A process kill in
  /// between loses nothing (the kernel holds the write); a power cut may
  /// tear it, and the next Open heals that tail.
  bool Append(const ArtifactKey& key, ByteView payload);

  /// Returns the stored bytes, checksum-verified, or nullopt on miss
  /// (including a payload that no longer verifies).
  std::optional<Bytes> Get(const ArtifactKey& key);

  bool Contains(const ArtifactKey& key) const;

  /// fsyncs the log. It does not take the store's lock, so a Get or an
  /// Append on another thread never waits for the disk.
  void Flush();

  Stats stats() const;
  std::size_t size() const;

 private:
  struct Entry {
    std::uint64_t offset = 0;  // of the payload in the log
    std::uint32_t length = 0;
    std::uint64_t checksum = 0;
  };

  DiskArtifactStore() = default;

  int fd_ = -1;
  std::uint64_t log_bytes_ = 0;  // end of the last whole record
  mutable std::mutex mu_;
  std::map<ArtifactKey, Entry> entries_;
  Stats stats_;
};

// -- Verification reports on the disk tier ------------------------------------

/// The key of `pair`'s report under `options`: ArtifactHasher over S, T,
/// the shared-function wiring, the poc and the verdict-bearing option
/// knobs. Deadlines, jobs, tracing, the in-memory artifact cache and
/// the process model stay out: only clean completions are stored, and
/// a clean completion is byte-identical under any budget and in any
/// process (CI diffs `corpus` against `corpus --isolate`).
ArtifactKey ReportKey(const corpus::Pair& pair, const PipelineOptions& options);

/// The stored report under `key`, or nullopt on a miss (a payload that
/// fails its checksum or does not parse is a miss too).
std::optional<VerificationReport> GetReport(DiskArtifactStore& store,
                                            const ArtifactKey& key);

/// The store rule: persists `report` only when it is a clean completion
/// (neither deadline_expired nor exception_contained), since a budget
/// or fault verdict is a statement about one run, not about the pair.
/// Every supervisor infrastructure failure and every drained pair sets
/// one of the two flags, so none is ever stored. True when the report
/// is now in the store. With `sync` false it is stored by Append, and
/// the caller fsyncs it later with Flush.
bool PutReport(DiskArtifactStore& store, const ArtifactKey& key,
               const VerificationReport& report, bool sync = true);

}  // namespace octopocs::core
