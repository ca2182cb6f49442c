#include "core/journal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "core/report_io.h"

namespace octopocs::core {

namespace {

constexpr int kJournalVersion = 1;

/// FNV-1a over the canonical option string; 16 hex digits.
std::string Fingerprint64(const std::string& canonical) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

std::string CorpusOptionsFingerprint(const PipelineOptions& o, bool extended,
                                     std::size_t pair_count, bool isolate,
                                     std::uint64_t rlimit_mb) {
  std::ostringstream ss;
  // v2: the fuzz-fallback rung entered the verdict-bearing option set.
  // Unlike the answer-identical test seams (cycle skip, solver core),
  // the rung and its seed/budget can change a pair's verdict, so they
  // fingerprint — a journal written under a different fuzz
  // configuration must not be resumed.
  // v3: the per-phase budgets and the separate per-pair deadline are
  // gone; `corpus --pair-deadline-ms` is now `dl`, the pipeline
  // deadline. The tag changes so a pre-v3 journal is refused by name.
  // v4: the static-CFG and solver-budget retry rungs are gone, and
  // their cfgfb= / solretry= terms with them.
  // v5: the fuzz rung's separate wall-clock budget is gone, and the
  // fourth field of its fuzz= term with it.
  ss << "v5"
     << "|extended=" << extended << "|pairs=" << pair_count
     << "|ctx=" << o.taint.context_aware << "|theta=" << o.symex.theta
     << "|adaptive=" << o.adaptive_theta << ':' << o.adaptive_theta_max
     << "|live=" << o.symex.max_live_states
     << "|mem=" << o.symex.max_memory_bytes
     << "|instr=" << o.symex.max_instructions << ':'
     << o.symex.max_state_instructions
     << "|depth=" << o.symex.max_call_depth
     << "|input=" << o.symex.max_input_size
     << "|epargs=" << o.symex.check_ep_args
     << "|steps=" << o.symex.solver.max_steps
     << "|dyncfg=" << o.cfg.use_dynamic
     << "|fixangr=" << o.cfg.resolve_obfuscated_icalls
     << "|seed=" << o.poc_as_cfg_seed << "|dl=" << o.deadline_ms
     << "|fuzz=" << o.fuzz_fallback << ':' << o.fuzz_seed << ':'
     << o.fuzz_execs << "|iso=" << isolate
     << "|rlimit=" << rlimit_mb;
  return Fingerprint64(ss.str());
}

std::optional<JournalState> LoadJournal(const std::string& path,
                                        std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open journal " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string data = ss.str();

  JournalState state;
  bool saw_header = false;
  std::size_t line_start = 0;
  std::size_t lineno = 0;
  while (line_start < data.size()) {
    const std::size_t nl = data.find('\n', line_start);
    if (nl == std::string::npos) {
      // No terminating newline: the process died mid-write. Tolerated
      // only as the very last record.
      state.torn_tail = true;
      break;
    }
    const std::string_view line(data.data() + line_start, nl - line_start);
    ++lineno;

    minijson::Value record;
    std::string parse_error;
    if (!minijson::Parse(line, &record, &parse_error) ||
        record.kind != minijson::Value::Kind::kObject) {
      // A complete-but-malformed line is only acceptable at the tail:
      // an fsync'd earlier record can't be garbage unless the file was
      // hand-edited or corrupted — refuse those outright.
      if (nl + 1 >= data.size()) {
        state.torn_tail = true;
        break;
      }
      if (error != nullptr) {
        *error = "malformed journal record at line " +
                 std::to_string(lineno) + ": " + parse_error;
      }
      return std::nullopt;
    }

    const minijson::Value* type = record.Find("type");
    if (type == nullptr || type->kind != minijson::Value::Kind::kString) {
      if (error != nullptr) {
        *error = "journal record without a type at line " +
                 std::to_string(lineno);
      }
      return std::nullopt;
    }

    if (type->text == "header") {
      if (saw_header) {
        if (error != nullptr) *error = "duplicate journal header";
        return std::nullopt;
      }
      const minijson::Value* version = record.Find("version");
      const minijson::Value* hash = record.Find("options_hash");
      const minijson::Value* pairs = record.Find("pair_count");
      if (version == nullptr || version->AsInt() != kJournalVersion ||
          hash == nullptr || hash->kind != minijson::Value::Kind::kString ||
          pairs == nullptr) {
        if (error != nullptr) *error = "malformed journal header";
        return std::nullopt;
      }
      state.options_hash = hash->text;
      state.pair_count = static_cast<std::size_t>(pairs->AsInt());
      saw_header = true;
    } else if (type->text == "started") {
      if (!saw_header) {
        if (error != nullptr) *error = "journal record before the header";
        return std::nullopt;
      }
      const minijson::Value* pair = record.Find("pair");
      if (pair == nullptr) {
        if (error != nullptr) *error = "started record without a pair";
        return std::nullopt;
      }
      const int idx = static_cast<int>(pair->AsInt());
      const minijson::Value* attempt = record.Find("attempt");
      state.started_unfinished[idx] =
          attempt != nullptr ? static_cast<unsigned>(attempt->AsInt()) : 1;
    } else if (type->text == "finished") {
      if (!saw_header) {
        if (error != nullptr) *error = "journal record before the header";
        return std::nullopt;
      }
      const minijson::Value* pair = record.Find("pair");
      const minijson::Value* report = record.Find("report");
      if (pair == nullptr || report == nullptr) {
        if (error != nullptr) *error = "malformed finished record";
        return std::nullopt;
      }
      const int idx = static_cast<int>(pair->AsInt());
      VerificationReport parsed;
      std::string report_error;
      if (!ParseReport(*report, &parsed, &report_error)) {
        if (error != nullptr) {
          *error = "unparseable report for pair " + std::to_string(idx) +
                   ": " + report_error;
        }
        return std::nullopt;
      }
      if (state.finished.count(idx) != 0) {
        if (error != nullptr) {
          *error = "pair " + std::to_string(idx) + " finished twice";
        }
        return std::nullopt;
      }
      state.finished.emplace(idx, std::move(parsed));
      state.started_unfinished.erase(idx);
    } else {
      if (error != nullptr) {
        *error = "unknown journal record type '" + type->text + "'";
      }
      return std::nullopt;
    }

    line_start = nl + 1;
    state.valid_bytes = line_start;
  }

  if (!saw_header) {
    if (error != nullptr) *error = "journal has no header record";
    return std::nullopt;
  }
  return state;
}

#ifndef _WIN32

namespace {

// Durability for a heal: the truncation itself must reach the platter,
// and so must the directory entry in case the journal was freshly
// renamed/created. Best effort — a failed fsync here cannot make the
// heal less correct, only less durable, so it never fails the resume.
void FsyncFileAndParentDir(int fd, const std::string& path) {
  ::fsync(fd);
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

}  // namespace

std::unique_ptr<Journal> Journal::Create(const std::string& path,
                                         const std::string& options_hash,
                                         std::size_t pair_count,
                                         std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot create journal " + path + ": " + std::strerror(errno);
    }
    return nullptr;
  }
  std::unique_ptr<Journal> journal(new Journal(fd));
  journal->WriteRecord(
      "{\"type\":\"header\",\"version\":1,\"options_hash\":\"" +
      minijson::Escape(options_hash) +
      "\",\"pair_count\":" + std::to_string(pair_count) + "}");
  return journal;
}

std::unique_ptr<Journal> Journal::Resume(const std::string& path,
                                         const JournalState& state,
                                         std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot reopen journal " + path + ": " + std::strerror(errno);
    }
    return nullptr;
  }
  // Heal a torn tail: drop the partial record so the resumed journal
  // stays one well-formed record per line. The heal itself must be
  // durable — without the fsyncs a power cut after resume could bring
  // the torn bytes back underneath records appended since.
  if (::ftruncate(fd, static_cast<off_t>(state.valid_bytes)) != 0) {
    if (error != nullptr) {
      *error = "cannot truncate torn journal tail: " +
               std::string(std::strerror(errno));
    }
    ::close(fd);
    return nullptr;
  }
  FsyncFileAndParentDir(fd, path);
  if (::lseek(fd, 0, SEEK_END) < 0) {
    if (error != nullptr) *error = "cannot seek journal";
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<Journal>(new Journal(fd));
}

Journal::~Journal() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

void Journal::WriteRecord(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string buf = line;
  buf += '\n';
  // One write(2) per record keeps records contiguous even with
  // concurrent finishers; fsync makes the record durable before the
  // run proceeds past it (the write-ahead property resume relies on).
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
    if (n <= 0) {
      if (errno == EINTR) continue;
      return;  // journal I/O failure must never take down the corpus run
    }
    off += static_cast<std::size_t>(n);
  }
  ::fsync(fd_);
}

#else  // _WIN32

std::unique_ptr<Journal> Journal::Create(const std::string&,
                                         const std::string&, std::size_t,
                                         std::string* error) {
  if (error != nullptr) *error = "journaling requires a POSIX host";
  return nullptr;
}

std::unique_ptr<Journal> Journal::Resume(const std::string&,
                                         const JournalState&,
                                         std::string* error) {
  if (error != nullptr) *error = "journaling requires a POSIX host";
  return nullptr;
}

Journal::~Journal() = default;
void Journal::WriteRecord(const std::string&) {}

#endif

void Journal::Started(int pair_idx, unsigned attempt) {
  WriteRecord("{\"type\":\"started\",\"pair\":" + std::to_string(pair_idx) +
              ",\"attempt\":" + std::to_string(attempt) + "}");
}

void Journal::Finished(int pair_idx, const VerificationReport& report) {
  WriteRecord("{\"type\":\"finished\",\"pair\":" + std::to_string(pair_idx) +
              ",\"report\":" + SerializeReport(report) + "}");
}

}  // namespace octopocs::core
