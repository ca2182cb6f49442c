#include "core/report_io.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "support/hex.h"

namespace octopocs::core {

namespace minijson {

const Value* Value::Find(std::string_view key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::int64_t Value::AsInt() const {
  if (kind == Kind::kInt) return integer;
  if (kind == Kind::kDouble) return static_cast<std::int64_t>(number);
  return 0;
}

double Value::AsDouble() const {
  if (kind == Kind::kDouble) return number;
  if (kind == Kind::kInt) return static_cast<double>(integer);
  return 0;
}

std::string Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x",
                        static_cast<unsigned char>(c));
          out += hex;
        } else {
          out += c;  // non-ASCII bytes pass through as UTF-8
        }
    }
  }
  return out;
}

namespace {

struct Parser {
  explicit Parser(std::string_view input) : text(input) {}

  std::string_view text;
  std::size_t pos = 0;
  std::size_t depth = 0;
  std::string error;

  bool Fail(const std::string& msg) {
    if (error.empty()) {
      error = msg + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void SkipSpace() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  bool ParseString(std::string* out) {
    SkipSpace();
    if (pos >= text.size() || text[pos] != '"') return Fail("expected '\"'");
    ++pos;
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) return Fail("dangling escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos + 4 > text.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // The writers only escape control bytes; decode the BMP ASCII
          // range and reject anything wider.
          if (code > 0x7F) return Fail("unsupported \\u code point");
          out->push_back(static_cast<char>(code));
          break;
        }
        default: return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(Value* out) {
    SkipSpace();
    if (pos >= text.size()) return Fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      if (++depth > kMaxNestingDepth) return Fail("nesting too deep");
      ++pos;
      out->kind = Value::Kind::kObject;
      SkipSpace();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        --depth;
        return true;
      }
      for (;;) {
        std::string key;
        if (!ParseString(&key)) return false;
        if (!Consume(':')) return false;
        Value value;
        if (!ParseValue(&value)) return false;
        out->fields.emplace_back(std::move(key), std::move(value));
        SkipSpace();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        if (!Consume('}')) return false;
        --depth;
        return true;
      }
    }
    if (c == '[') {
      if (++depth > kMaxNestingDepth) return Fail("nesting too deep");
      ++pos;
      out->kind = Value::Kind::kArray;
      SkipSpace();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        --depth;
        return true;
      }
      for (;;) {
        Value item;
        if (!ParseValue(&item)) return false;
        out->items.push_back(std::move(item));
        SkipSpace();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        if (!Consume(']')) return false;
        --depth;
        return true;
      }
    }
    if (c == '"') {
      out->kind = Value::Kind::kString;
      return ParseString(&out->text);
    }
    if (text.compare(pos, 4, "true") == 0) {
      out->kind = Value::Kind::kBool;
      out->boolean = true;
      pos += 4;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      out->kind = Value::Kind::kBool;
      out->boolean = false;
      pos += 5;
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      out->kind = Value::Kind::kNull;
      pos += 4;
      return true;
    }
    // Number.
    const std::size_t begin = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    bool is_double = false;
    while (pos < text.size()) {
      const char d = text[pos];
      if (std::isdigit(static_cast<unsigned char>(d))) {
        ++pos;
      } else if (d == '.' || d == 'e' || d == 'E' || d == '-' || d == '+') {
        is_double = true;
        ++pos;
      } else {
        break;
      }
    }
    if (pos == begin) return Fail("expected a value");
    const std::string token(text.substr(begin, pos - begin));
    if (is_double) {
      out->kind = Value::Kind::kDouble;
      out->number = std::strtod(token.c_str(), nullptr);
    } else {
      out->kind = Value::Kind::kInt;
      out->integer = std::strtoll(token.c_str(), nullptr, 10);
    }
    return true;
  }
};

}  // namespace

bool Parse(std::string_view text, Value* out, std::string* error) {
  if (text.size() > kMaxDocumentBytes) {
    if (error != nullptr) {
      *error = "document too large (" + std::to_string(text.size()) +
               " bytes, cap " + std::to_string(kMaxDocumentBytes) + ")";
    }
    return false;
  }
  Parser p{text};
  *out = Value{};
  if (!p.ParseValue(out)) {
    if (error != nullptr) *error = p.error;
    return false;
  }
  p.SkipSpace();
  if (p.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing garbage at offset " + std::to_string(p.pos);
    }
    return false;
  }
  return true;
}

}  // namespace minijson

namespace {

void AppendField(std::string* out, const char* key, std::int64_t value) {
  *out += '"';
  *out += key;
  *out += "\":";
  *out += std::to_string(value);
  *out += ',';
}

void AppendField(std::string* out, const char* key, bool value) {
  *out += '"';
  *out += key;
  *out += "\":";
  *out += value ? "true" : "false";
  *out += ',';
}

void AppendField(std::string* out, const char* key, std::string_view value) {
  *out += '"';
  *out += key;
  *out += "\":\"";
  *out += minijson::Escape(value);
  *out += "\",";
}

void AppendField(std::string* out, const char* key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  *out += '"';
  *out += key;
  *out += "\":";
  // %.17g may print "1e+09" — valid JSON — or an integer-looking token;
  // both round-trip through the parser above.
  *out += buf;
  *out += ',';
}

}  // namespace

std::string SerializeReport(const VerificationReport& r) {
  std::string out = "{";
  AppendField(&out, "verdict", static_cast<std::int64_t>(r.verdict));
  AppendField(&out, "type", static_cast<std::int64_t>(r.type));
  AppendField(&out, "detail", r.detail);
  AppendField(&out, "ep_name", r.ep_name);
  AppendField(&out, "ep_in_s", static_cast<std::int64_t>(r.ep_in_s));
  AppendField(&out, "ep_in_t", static_cast<std::int64_t>(r.ep_in_t));
  AppendField(&out, "ep_encounters_in_s",
              static_cast<std::int64_t>(r.ep_encounters_in_s));
  AppendField(&out, "bunch_count", static_cast<std::int64_t>(r.bunch_count));
  AppendField(&out, "crash_primitive_bytes",
              static_cast<std::int64_t>(r.crash_primitive_bytes));
  AppendField(&out, "symex_status",
              static_cast<std::int64_t>(r.symex_status));
  AppendField(&out, "poc_generated", r.poc_generated);
  AppendField(&out, "reformed_poc",
              std::string_view(ToHex(r.reformed_poc)));
  out += "\"bunch_offsets\":[";
  for (std::size_t i = 0; i < r.bunch_offsets.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(r.bunch_offsets[i]);
  }
  out += "],";
  AppendField(&out, "observed_trap",
              static_cast<std::int64_t>(r.observed_trap));
  AppendField(&out, "failed_phase", r.failed_phase);
  AppendField(&out, "deadline_expired", r.deadline_expired);
  AppendField(&out, "exception_contained", r.exception_contained);
  // The fuzz-fallback record is sparse: a report from a run without the
  // rung serializes byte-identically to one from a pipeline that never
  // had the rung at all. When any fuzz key is present, all of them are
  // (the parser enforces the same all-or-nothing shape).
  if (r.fuzz_attempted) {
    AppendField(&out, "fuzz_attempted", r.fuzz_attempted);
    AppendField(&out, "fuzz_execs", static_cast<std::int64_t>(r.fuzz_execs));
    AppendField(&out, "fuzz_execs_to_crash",
                static_cast<std::int64_t>(r.fuzz_execs_to_crash));
    AppendField(&out, "fuzz_best_distance", r.fuzz_best_distance);
    AppendField(&out, "fuzz_seed", static_cast<std::int64_t>(r.fuzz_seed));
  }
  AppendField(&out, "preprocess_seconds", r.timings.preprocess_seconds);
  AppendField(&out, "p1_seconds", r.timings.p1_seconds);
  AppendField(&out, "p23_seconds", r.timings.p23_seconds);
  AppendField(&out, "p4_seconds", r.timings.p4_seconds);
  AppendField(&out, "total_seconds", r.timings.total_seconds);
  out.back() = '}';  // replace the trailing comma
  return out;
}

bool ParseReport(const minijson::Value& json, VerificationReport* out,
                 std::string* error) {
  if (json.kind != minijson::Value::Kind::kObject) {
    if (error != nullptr) *error = "report is not a JSON object";
    return false;
  }
  *out = VerificationReport{};
  const auto get = [&](const char* key) { return json.Find(key); };
  // Enum-carrying integers are range-checked before the cast: a frame
  // from a newer (or corrupted) peer must be rejected, never misparsed
  // into an aliased enumerator.
  if (const auto* v = get("verdict")) {
    const std::int64_t raw = v->AsInt();
    if (raw < 0 ||
        raw > static_cast<std::int64_t>(Verdict::kTriggeredByFuzzing)) {
      if (error != nullptr) *error = "unknown verdict";
      return false;
    }
    out->verdict = static_cast<Verdict>(raw);
  }
  if (const auto* v = get("type")) {
    const std::int64_t raw = v->AsInt();
    if (raw < 0 || raw > static_cast<std::int64_t>(ResultType::kFuzzed)) {
      if (error != nullptr) *error = "unknown result type";
      return false;
    }
    out->type = static_cast<ResultType>(raw);
  }
  if (const auto* v = get("detail")) out->detail = v->text;
  if (const auto* v = get("ep_name")) out->ep_name = v->text;
  if (const auto* v = get("ep_in_s")) {
    out->ep_in_s = static_cast<vm::FuncId>(v->AsInt());
  }
  if (const auto* v = get("ep_in_t")) {
    out->ep_in_t = static_cast<vm::FuncId>(v->AsInt());
  }
  if (const auto* v = get("ep_encounters_in_s")) {
    out->ep_encounters_in_s = static_cast<std::uint32_t>(v->AsInt());
  }
  if (const auto* v = get("bunch_count")) {
    out->bunch_count = static_cast<std::size_t>(v->AsInt());
  }
  if (const auto* v = get("crash_primitive_bytes")) {
    out->crash_primitive_bytes = static_cast<std::size_t>(v->AsInt());
  }
  if (const auto* v = get("symex_status")) {
    const std::int64_t raw = v->AsInt();
    if (raw < 0 ||
        raw > static_cast<std::int64_t>(symex::SymexStatus::kDeadline)) {
      if (error != nullptr) *error = "unknown symex status";
      return false;
    }
    out->symex_status = static_cast<symex::SymexStatus>(raw);
  }
  if (const auto* v = get("poc_generated")) out->poc_generated = v->boolean;
  if (const auto* v = get("reformed_poc")) {
    if (v->text.size() > 2 * kMaxReformedPocBytes) {
      if (error != nullptr) *error = "reformed_poc exceeds size cap";
      return false;
    }
    try {
      out->reformed_poc = FromHex(v->text);
    } catch (const std::exception&) {
      if (error != nullptr) *error = "malformed reformed_poc hex";
      return false;
    }
  }
  if (const auto* v = get("bunch_offsets")) {
    for (const auto& item : v->items) {
      out->bunch_offsets.push_back(static_cast<std::uint32_t>(item.AsInt()));
    }
  }
  if (const auto* v = get("observed_trap")) {
    const std::int64_t raw = v->AsInt();
    if (raw < 0 || raw > static_cast<std::int64_t>(vm::TrapKind::kDeadline)) {
      if (error != nullptr) *error = "unknown trap kind";
      return false;
    }
    out->observed_trap = static_cast<vm::TrapKind>(raw);
  }
  if (const auto* v = get("failed_phase")) out->failed_phase = v->text;
  if (const auto* v = get("deadline_expired")) {
    out->deadline_expired = v->boolean;
  }
  if (const auto* v = get("exception_contained")) {
    out->exception_contained = v->boolean;
  }
  // Fuzz-fallback stats are all-or-nothing: a frame carrying only a
  // subset was truncated or tampered with — reject it rather than
  // decode a half-told campaign.
  {
    const minijson::Value* attempted = get("fuzz_attempted");
    const minijson::Value* execs = get("fuzz_execs");
    const minijson::Value* to_crash = get("fuzz_execs_to_crash");
    const minijson::Value* best = get("fuzz_best_distance");
    const minijson::Value* seed = get("fuzz_seed");
    const bool any = attempted != nullptr || execs != nullptr ||
                     to_crash != nullptr || best != nullptr ||
                     seed != nullptr;
    const bool all = attempted != nullptr && execs != nullptr &&
                     to_crash != nullptr && best != nullptr &&
                     seed != nullptr;
    if (any && !all) {
      if (error != nullptr) *error = "truncated fuzz stats";
      return false;
    }
    if (all) {
      out->fuzz_attempted = attempted->boolean;
      out->fuzz_execs = static_cast<std::uint64_t>(execs->AsInt());
      out->fuzz_execs_to_crash =
          static_cast<std::uint64_t>(to_crash->AsInt());
      out->fuzz_best_distance = best->AsDouble();
      out->fuzz_seed = static_cast<std::uint64_t>(seed->AsInt());
    }
  }
  if (const auto* v = get("preprocess_seconds")) {
    out->timings.preprocess_seconds = v->AsDouble();
  }
  if (const auto* v = get("p1_seconds")) out->timings.p1_seconds = v->AsDouble();
  if (const auto* v = get("p23_seconds")) {
    out->timings.p23_seconds = v->AsDouble();
  }
  if (const auto* v = get("p4_seconds")) out->timings.p4_seconds = v->AsDouble();
  if (const auto* v = get("total_seconds")) {
    out->timings.total_seconds = v->AsDouble();
  }
  return true;
}

bool ParseReport(std::string_view json, VerificationReport* out,
                 std::string* error) {
  minijson::Value value;
  if (!minijson::Parse(json, &value, error)) return false;
  return ParseReport(value, out, error);
}

std::string MarshalWorkerReport(const VerificationReport& report) {
  std::string out(kWorkerReportPrefix);
  out += SerializeReport(report);
  out += '\n';
  out += kWorkerDoneSentinel;
  out += '\n';
  return out;
}

bool UnmarshalWorkerReport(std::string_view worker_stdout,
                           VerificationReport* out, std::string* error) {
  const std::size_t at = worker_stdout.rfind(kWorkerReportPrefix);
  if (at == std::string_view::npos) {
    if (error != nullptr) *error = "no OCTO-REPORT line in worker output";
    return false;
  }
  std::string_view rest = worker_stdout.substr(at + kWorkerReportPrefix.size());
  const std::size_t eol = rest.find('\n');
  if (eol == std::string_view::npos) {
    if (error != nullptr) *error = "report line torn mid-write";
    return false;
  }
  const std::string_view json = rest.substr(0, eol);
  std::string_view tail = rest.substr(eol + 1);
  if (tail.substr(0, kWorkerDoneSentinel.size()) != kWorkerDoneSentinel) {
    if (error != nullptr) *error = "missing OCTO-DONE sentinel";
    return false;
  }
  return ParseReport(json, out, error);
}

}  // namespace octopocs::core
