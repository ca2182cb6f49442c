// VerificationReport marshaling for process isolation and journaling.
//
// An isolated worker (CLI `pool-worker` mode) runs pairs and must hand
// each VerificationReport back to the supervisor over a pipe; the
// crash journal must persist finished reports so `corpus --resume` can
// reprint them without re-running the pair. Both speak the same format:
// one JSON object per report, covering every verdict-bearing field
// (verdict, type, detail, ep, P1/P2/P3/P4 outcomes, the degradation
// record, timings). Executor cache counters (SymexStats) are
// deliberately not marshaled — they are per-process observability, and
// the corpus-level outputs the isolation layer must reproduce
// byte-identically never include them.
//
// The JSON emitted here is strict (validate_trace.py re-parses it with
// Python's json module); the parser accepts exactly the subset the
// writers produce: objects, arrays, strings with \-escapes, integers,
// doubles, and booleans.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/octopocs.h"

namespace octopocs::core {

// -- Minimal JSON subset ------------------------------------------------------

namespace minijson {

struct Value {
  enum class Kind : std::uint8_t {
    kNull, kBool, kInt, kDouble, kString, kArray, kObject
  };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::int64_t integer = 0;
  double number = 0;
  std::string text;
  std::vector<Value> items;                            // kArray
  std::vector<std::pair<std::string, Value>> fields;   // kObject

  const Value* Find(std::string_view key) const;
  /// Integer value of either numeric kind (doubles truncate).
  std::int64_t AsInt() const;
  double AsDouble() const;
};

/// Hostile-input bounds (the parser is network-facing via `octopocs
/// serve`): a document larger than kMaxDocumentBytes, or nested deeper
/// than kMaxNestingDepth, is rejected with a clean parse error before
/// any proportional allocation or unbounded recursion can happen.
inline constexpr std::size_t kMaxDocumentBytes = 8u << 20;
inline constexpr std::size_t kMaxNestingDepth = 64;

/// Parses one complete JSON document; trailing whitespace is allowed,
/// trailing garbage is an error.
bool Parse(std::string_view text, Value* out, std::string* error);

/// JSON string escaping (quotes not included).
std::string Escape(std::string_view raw);

}  // namespace minijson

// -- Report (de)serialization -------------------------------------------------

/// Largest reformed PoC ParseReport accepts (hex length is twice this).
/// Real reformed PoCs are tens of bytes; the cap exists so a hostile
/// frame cannot turn one field into a giant allocation.
inline constexpr std::size_t kMaxReformedPocBytes = 1u << 20;

/// One-line JSON object holding every verdict-bearing report field.
std::string SerializeReport(const VerificationReport& report);

/// Inverse of SerializeReport. Unknown keys are ignored (forward
/// compatibility); missing keys keep their default-constructed value.
bool ParseReport(const minijson::Value& json, VerificationReport* out,
                 std::string* error);
bool ParseReport(std::string_view json, VerificationReport* out,
                 std::string* error);

// -- Worker wire framing ------------------------------------------------------

/// A worker answers each request on stdout with:
///   OCTO-REPORT {...}\n
///   OCTO-DONE\n
/// The trailing sentinel distinguishes a complete report from a pipe
/// torn mid-write by a dying worker.
inline constexpr std::string_view kWorkerReportPrefix = "OCTO-REPORT ";
inline constexpr std::string_view kWorkerDoneSentinel = "OCTO-DONE";

/// Pool-worker request framing (supervisor -> worker, one line per
/// request): `OCTO-PAIR <idx>` verifies one pair, `OCTO-EXIT` (or
/// stdin EOF) shuts the worker down cleanly.
inline constexpr std::string_view kPoolPairPrefix = "OCTO-PAIR ";
inline constexpr std::string_view kPoolExitLine = "OCTO-EXIT";

/// `octopocs serve` request/response framing (one request per
/// connection). The client sends `OCTO-REQ {json}\n`; the server
/// answers either with the worker framing above (OCTO-REPORT +
/// OCTO-DONE, so clients reuse UnmarshalWorkerReport verbatim) or with
/// `OCTO-ERR {json}\nOCTO-DONE\n` carrying a structured rejection
/// (code RETRY_AFTER / BAD_REQUEST / INTERNAL, plus retry_after_ms).
inline constexpr std::string_view kServeRequestPrefix = "OCTO-REQ ";
inline constexpr std::string_view kServeErrPrefix = "OCTO-ERR ";

std::string MarshalWorkerReport(const VerificationReport& report);

/// Extracts and parses the report from a worker's captured stdout.
/// Fails when the prefix or the DONE sentinel is missing (worker died
/// before finishing its write) or the JSON is malformed.
bool UnmarshalWorkerReport(std::string_view worker_stdout,
                           VerificationReport* out, std::string* error);

}  // namespace octopocs::core
