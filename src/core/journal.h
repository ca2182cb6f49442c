// Write-ahead crash journal for resumable corpus runs.
//
// A corpus run at deployment scale must survive the death of the host
// process itself (OOM killer, SIGKILL, power loss): the journal is a
// JSONL file recording, per pair, a `started` record before the pair
// runs and a `finished` record — carrying the full serialized
// VerificationReport — after it completes. Every record is written with
// one write(2) call and fsync'd before the pair proceeds, so after a
// crash the journal tail is at worst one torn record, never a
// reordered or interleaved one.
//
// Resume contract (`corpus --resume JOURNAL`):
//   - the header's options fingerprint must match the resuming
//     invocation's, otherwise resuming is refused — a journal written
//     under different pipeline options would splice incomparable
//     verdicts into one result set;
//   - pairs with a `finished` record are not re-run; their reports are
//     replayed from the journal byte-identically;
//   - pairs with only a `started` record were in flight when the host
//     died and are re-run from scratch;
//   - a torn trailing record (torn write) is detected, ignored, and
//     truncated away before appending, so the healed journal stays
//     well-formed JSONL.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/octopocs.h"

namespace octopocs::core {

/// Canonical fingerprint of everything that affects corpus verdicts:
/// the verdict-bearing PipelineOptions knobs (the pipeline deadline,
/// which is the per-pair deadline, among them), the pair set (extended
/// or paper corpus, pair count), and the isolation memory cap.
/// Deliberately excludes jobs / tracing / the artifact cache / the
/// backend knobs — all proven byte-identical elsewhere.
std::string CorpusOptionsFingerprint(const PipelineOptions& options,
                                     bool extended, std::size_t pair_count,
                                     bool isolate, std::uint64_t rlimit_mb);

/// Parsed journal contents, as far as the first torn record.
struct JournalState {
  std::string options_hash;
  std::size_t pair_count = 0;
  /// pair.idx -> replayed report for every `finished` pair.
  std::map<int, VerificationReport> finished;
  /// Pairs with a `started` but no `finished` record (in flight at the
  /// crash); informational — resume re-runs them like never-started
  /// pairs.
  std::map<int, unsigned> started_unfinished;
  /// Byte offset of the end of the last complete record; appending must
  /// truncate the file here first when `torn_tail` is set.
  std::uint64_t valid_bytes = 0;
  bool torn_tail = false;
};

/// Reads and validates `path`. A torn *trailing* record is tolerated
/// (see JournalState::torn_tail); a malformed record anywhere else, a
/// missing or malformed header, or an unreadable file is an error.
std::optional<JournalState> LoadJournal(const std::string& path,
                                        std::string* error);

/// Append-only, fsync-per-record journal writer. Thread-safe: corpus
/// workers finish pairs concurrently.
class Journal {
 public:
  /// Creates/truncates `path` and writes the header record.
  static std::unique_ptr<Journal> Create(const std::string& path,
                                         const std::string& options_hash,
                                         std::size_t pair_count,
                                         std::string* error);

  /// Opens `path` for appending after a LoadJournal pass, truncating a
  /// torn tail back to `state.valid_bytes` so the journal stays
  /// well-formed.
  static std::unique_ptr<Journal> Resume(const std::string& path,
                                         const JournalState& state,
                                         std::string* error);

  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Write-ahead record: `pair_idx` is about to run (attempt is 1-based
  /// across resumes).
  void Started(int pair_idx, unsigned attempt);

  /// Completion record carrying the serialized report.
  void Finished(int pair_idx, const VerificationReport& report);

 private:
  explicit Journal(int fd) : fd_(fd) {}
  void WriteRecord(const std::string& line);

  int fd_ = -1;
  std::mutex mu_;
};

}  // namespace octopocs::core
