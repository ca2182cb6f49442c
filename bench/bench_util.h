// Small shared helpers for the benches: a strict command-line walker
// and fixed-width text table rendering so every bench prints rows
// shaped like the paper's tables.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace octopocs::bench {

/// A bench's command line, walked left to right under the CLI's rules
/// (ParseUnsigned in tools/octopocs_cli.cpp): a count must be all
/// decimal digits within [lo, hi]. A malformed or missing operand, or
/// an unknown flag, prints the reason naming the flag and exits 2.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Steps to the next argument; false once they are exhausted.
  bool Next() {
    if (next_ >= argc_) return false;
    flag_ = argv_[next_++];
    return true;
  }
  const std::string& flag() const { return flag_; }

  std::string Value() {
    if (next_ >= argc_) Fail(flag_ + " wants a value");
    return argv_[next_++];
  }

  std::uint64_t Count(std::uint64_t lo, std::uint64_t hi) {
    const std::string text = Value();
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value < lo || value > hi) {
      Fail(flag_ + " wants an integer in " + std::to_string(lo) + ".." +
           std::to_string(hi) + ", got '" + text + "'");
    }
    return value;
  }

  [[noreturn]] void Unknown() const { Fail("unknown option: " + flag_); }

 private:
  [[noreturn]] static void Fail(const std::string& why) {
    std::fprintf(stderr, "%s\n", why.c_str());
    std::exit(2);
  }

  int argc_;
  char** argv_;
  int next_ = 1;  // argv[0] is the program
  std::string flag_;
};

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    widths_.resize(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      widths_[i] = headers_[i].size();
    }
  }

  void AddRow(std::vector<std::string> cells) {
    cells.resize(headers_.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    PrintRow(headers_);
    std::string sep;
    for (const std::size_t w : widths_) {
      sep += std::string(w + 2, '-') + "+";
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) PrintRow(row);
  }

 private:
  void PrintRow(const std::vector<std::string>& cells) const {
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      line += " " + cells[i] +
              std::string(widths_[i] - cells[i].size() + 1, ' ') + "|";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

inline std::string FmtU(unsigned long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", v);
  return buf;
}

}  // namespace octopocs::bench
