// Byte-buffer primitives shared by every module.
//
// A PoC in this system is nothing more than a flat sequence of bytes (the
// paper targets malformed *file type* PoCs); `Bytes` is that sequence, plus
// a few helpers for assembling little-endian fields the mini file formats
// and the MiniVM both use.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace octopocs {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Appends `value`'s low `width` bytes to `out`, little-endian.
inline void AppendLe(Bytes& out, std::uint64_t value, unsigned width) {
  for (unsigned i = 0; i < width; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

/// Appends the raw characters of `s` (no terminator). Byte by byte: a
/// range insert of a short literal into an empty vector trips GCC 12's
/// -Wstringop-overflow false positive once inlined.
inline void AppendStr(Bytes& out, std::string_view s) {
  for (const char c : s) out.push_back(static_cast<std::uint8_t>(c));
}

/// Appends every byte of `view`.
inline void AppendBytes(Bytes& out, ByteView view) {
  out.insert(out.end(), view.begin(), view.end());
}

/// Reads a little-endian field of `width` bytes at `off`; returns 0 on
/// short data (mirrors the MiniVM's zero-fill at EOF).
inline std::uint64_t ReadLe(ByteView data, std::size_t off, unsigned width) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < width; ++i) {
    if (off + i < data.size()) {
      v |= static_cast<std::uint64_t>(data[off + i]) << (8 * i);
    }
  }
  return v;
}

}  // namespace octopocs
