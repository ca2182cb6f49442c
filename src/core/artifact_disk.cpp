#include "core/artifact_disk.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "core/report_io.h"
#include "support/fault.h"

namespace octopocs::core {

namespace {

// Log record: a 32-byte header, then the payload.
//   "OCXR" | length u32 | key.hi u64 | key.lo u64 | FNV-1a u64 of payload
constexpr char kRecordMagic[4] = {'O', 'C', 'X', 'R'};
constexpr std::size_t kHeaderBytes = 32;

std::uint64_t Fnv1a(ByteView data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

void PutU32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void PutU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

#ifndef _WIN32

namespace {

bool WriteAllAt(int fd, const std::uint8_t* data, std::size_t size,
                std::uint64_t at) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::pwrite(fd, data + off, size - off,
                               static_cast<off_t>(at + off));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadAllAt(int fd, std::uint8_t* data, std::size_t size,
               std::uint64_t at) {
  return ::pread(fd, data, size, static_cast<off_t>(at)) ==
         static_cast<ssize_t>(size);
}

std::uint64_t FileSize(int fd) {
  struct stat st;
  return ::fstat(fd, &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

// Makes a heal durable: the truncation reaches stable storage, and so
// does the containing directory entry. Best effort — failure here
// degrades durability, never correctness, so heals proceed anyway.
void FsyncFileAndDir(int fd, const std::string& dir) {
  ::fsync(fd);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

}  // namespace

std::unique_ptr<DiskArtifactStore> DiskArtifactStore::Open(
    const std::string& dir, std::string* error) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    if (error != nullptr) {
      *error = "cannot create cache dir " + dir + ": " + std::strerror(errno);
    }
    return nullptr;
  }
  const std::string path = dir + "/artifacts.log";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open " + path + ": " + std::strerror(errno);
    }
    return nullptr;
  }
  std::unique_ptr<DiskArtifactStore> store(new DiskArtifactStore());
  store->fd_ = fd;

  // Replay whole records up to the first break. Only the final record's
  // checksum is checked here: a torn write can leave a header whose
  // payload never reached the disk, while an earlier record was whole
  // once and Get re-verifies it anyway.
  const std::uint64_t file_bytes = FileSize(fd);
  std::uint64_t at = 0;
  std::uint8_t header[kHeaderBytes];
  while (file_bytes - at >= kHeaderBytes &&
         ReadAllAt(fd, header, kHeaderBytes, at) &&
         std::memcmp(header, kRecordMagic, sizeof kRecordMagic) == 0) {
    Entry entry;
    entry.offset = at + kHeaderBytes;
    entry.length = GetU32(header + 4);
    entry.checksum = GetU64(header + 24);
    const std::uint64_t end = entry.offset + entry.length;
    if (end > file_bytes) break;
    if (end == file_bytes) {
      Bytes payload(entry.length);
      if (!ReadAllAt(fd, payload.data(), payload.size(), entry.offset) ||
          Fnv1a(payload) != entry.checksum) {
        break;
      }
    }
    store->entries_[ArtifactKey{GetU64(header + 8), GetU64(header + 16)}] =
        entry;
    at = end;
  }

  if (at != file_bytes) {
    if (::ftruncate(fd, static_cast<off_t>(at)) != 0) {
      if (error != nullptr) {
        *error = "cannot heal torn tail of " + path + ": " +
                 std::strerror(errno);
      }
      return nullptr;
    }
    // Without this, a power cut after the heal could resurrect the torn
    // bytes underneath records appended since.
    FsyncFileAndDir(fd, dir);
    store->stats_.healed_records = 1;
  }
  store->log_bytes_ = at;
  store->stats_.loaded_records = store->entries_.size();
  return store;
}

DiskArtifactStore::~DiskArtifactStore() {
  Flush();
  if (fd_ >= 0) ::close(fd_);
}

bool DiskArtifactStore::Put(const ArtifactKey& key, ByteView payload) {
  if (!Append(key, payload)) return false;
  Flush();
  return true;
}

bool DiskArtifactStore::Append(const ArtifactKey& key, ByteView payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(key) != 0) return true;  // idempotent
  if (support::fault::Poll(support::FaultSite::kDiskStoreWrite) ||
      payload.size() > UINT32_MAX) {
    ++stats_.store_errors;
    return false;
  }
  Entry entry;
  entry.offset = log_bytes_ + kHeaderBytes;
  entry.length = static_cast<std::uint32_t>(payload.size());
  entry.checksum = Fnv1a(payload);
  Bytes record(kHeaderBytes + payload.size());
  std::memcpy(record.data(), kRecordMagic, sizeof kRecordMagic);
  PutU32(record.data() + 4, entry.length);
  PutU64(record.data() + 8, key.hi);
  PutU64(record.data() + 16, key.lo);
  PutU64(record.data() + 24, entry.checksum);
  std::copy(payload.begin(), payload.end(), record.begin() + kHeaderBytes);
  if (!WriteAllAt(fd_, record.data(), record.size(), log_bytes_)) {
    // Cut the partial record off: no later record may sit behind torn
    // bytes. (Should the cut fail, the next record overwrites them.)
    (void)::ftruncate(fd_, static_cast<off_t>(log_bytes_));
    ++stats_.store_errors;
    return false;
  }
  log_bytes_ += record.size();
  entries_[key] = entry;
  ++stats_.stores;
  return true;
}

std::optional<Bytes> DiskArtifactStore::Get(const ArtifactKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  Bytes payload(it->second.length);
  if (!ReadAllAt(fd_, payload.data(), payload.size(), it->second.offset) ||
      Fnv1a(payload) != it->second.checksum) {
    // Bit rot / a hand-truncated log: never serve it, and forget the
    // entry so later lookups miss cheaply.
    entries_.erase(it);
    ++stats_.corrupt_drops;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return payload;
}

bool DiskArtifactStore::Contains(const ArtifactKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) != 0;
}

void DiskArtifactStore::Flush() {
  // Not under mu_: fd_ is fixed from Open to the destructor, and a Get
  // or Append on another thread need not wait for the disk.
  if (fd_ >= 0) ::fsync(fd_);
}

#else  // _WIN32

std::unique_ptr<DiskArtifactStore> DiskArtifactStore::Open(
    const std::string&, std::string* error) {
  if (error != nullptr) *error = "the disk artifact store requires POSIX";
  return nullptr;
}
DiskArtifactStore::~DiskArtifactStore() = default;
bool DiskArtifactStore::Put(const ArtifactKey&, ByteView) { return false; }
bool DiskArtifactStore::Append(const ArtifactKey&, ByteView) { return false; }
std::optional<Bytes> DiskArtifactStore::Get(const ArtifactKey&) {
  return std::nullopt;
}
bool DiskArtifactStore::Contains(const ArtifactKey&) const { return false; }
void DiskArtifactStore::Flush() {}

#endif

DiskArtifactStore::Stats DiskArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t DiskArtifactStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

ArtifactKey ReportKey(const corpus::Pair& pair, const PipelineOptions& o) {
  // v7: the key serve and corpus share. The corpus selection, pair
  // count and process-model terms are gone (the pair's content covers
  // the first two, and isolation is answer-invisible), and so is the
  // deadline: only clean completions are stored. ep-argument matching
  // always runs, so it has no term either.
  std::ostringstream options;
  options << "v7"
          << "|ctx=" << o.taint.context_aware << "|theta=" << o.symex.theta
          << "|adaptive=" << o.adaptive_theta << ':' << o.adaptive_theta_max
          << "|live=" << o.symex.max_live_states
          << "|mem=" << o.symex.max_memory_bytes
          << "|instr=" << o.symex.max_instructions << ':'
          << o.symex.max_state_instructions
          << "|depth=" << o.symex.max_call_depth
          << "|input=" << o.symex.max_input_size
          << "|steps=" << o.symex.solver.max_steps
          << "|dyncfg=" << o.cfg.use_dynamic
          << "|fixangr=" << o.cfg.resolve_obfuscated_icalls
          << "|seed=" << o.poc_as_cfg_seed << "|fuzz=" << o.fuzz_fallback
          << ':' << o.fuzz_seed << ':' << o.fuzz_execs;
  ArtifactHasher hasher;
  hasher.Program(pair.s).Program(pair.t);
  for (const auto& name : pair.shared_functions) hasher.Str(name);
  for (const auto& [s_name, t_name] : pair.t_names) {
    hasher.Str(s_name).Str(t_name);
  }
  hasher.Bytes(pair.poc.data(), pair.poc.size());
  hasher.Str(options.str());
  return hasher.Finish("report");
}

std::optional<VerificationReport> GetReport(DiskArtifactStore& store,
                                            const ArtifactKey& key) {
  const std::optional<Bytes> payload = store.Get(key);
  if (!payload) return std::nullopt;
  VerificationReport report;
  const std::string_view json(reinterpret_cast<const char*>(payload->data()),
                              payload->size());
  if (!ParseReport(json, &report, nullptr)) return std::nullopt;
  return report;
}

bool PutReport(DiskArtifactStore& store, const ArtifactKey& key,
               const VerificationReport& report, bool sync) {
  if (report.deadline_expired || report.exception_contained) return false;
  const std::string json = SerializeReport(report);
  const ByteView payload(reinterpret_cast<const std::uint8_t*>(json.data()),
                         json.size());
  return sync ? store.Put(key, payload) : store.Append(key, payload);
}

}  // namespace octopocs::core
