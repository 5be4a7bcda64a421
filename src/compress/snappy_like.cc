#include "src/compress/snappy_like.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/coding.h"

namespace minicrypt {

namespace {

// Element tags (low 2 bits of the tag byte).
constexpr unsigned kTagLiteral = 0x00;
constexpr unsigned kTagCopy = 0x01;

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatchPerElement = 64;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 14;
constexpr size_t kHashSize = 1u << kHashBits;

uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint32_t Hash4(uint32_t v) { return (v * 0x9e3779b1u) >> (32 - kHashBits); }

// Literal element: tag byte (len-1 in the upper 6 bits when len <= 60, else a
// marker + varint), followed by the literal bytes.
void EmitLiteral(std::string* out, std::string_view lit) {
  if (lit.empty()) {
    return;
  }
  if (lit.size() <= 60) {
    out->push_back(static_cast<char>(((lit.size() - 1) << 2) | kTagLiteral));
  } else {
    out->push_back(static_cast<char>((61 << 2) | kTagLiteral));
    PutVarint64(out, lit.size() - 1);
  }
  out->append(lit);
}

// Copy element: tag byte (len-4 in the upper 6 bits, len in [4, 64]),
// followed by a 2-byte little-endian offset.
void EmitCopy(std::string* out, size_t offset, size_t len) {
  while (len > 0) {
    size_t chunk = len;
    if (chunk > kMaxMatchPerElement) {
      // Keep the remainder at least kMinMatch so every element is encodable.
      chunk = (len - kMaxMatchPerElement >= kMinMatch) ? kMaxMatchPerElement
                                                       : len - kMinMatch;
    }
    out->push_back(static_cast<char>(((chunk - kMinMatch) << 2) | kTagCopy));
    out->push_back(static_cast<char>(offset & 0xff));
    out->push_back(static_cast<char>(offset >> 8));
    len -= chunk;
  }
}

}  // namespace

Result<std::string> SnappyLikeCompressor::Compress(std::string_view input) const {
  std::string out;
  PutVarint64(&out, input.size());
  if (input.empty()) {
    return out;
  }

  std::vector<int64_t> table(kHashSize, -1);
  const char* base = input.data();
  const size_t n = input.size();
  const size_t match_limit = n >= kMinMatch ? n - kMinMatch : 0;
  size_t anchor = 0;
  size_t pos = 0;
  // Skip acceleration: after 32 consecutive probe misses the stride becomes 2,
  // after 64 it becomes 3, etc. — incompressible data is scanned, not hashed
  // byte-by-byte.
  size_t misses = 0;

  while (pos < match_limit) {
    const uint32_t h = Hash4(Load32(base + pos));
    const int64_t cand = table[h];
    table[h] = static_cast<int64_t>(pos);
    if (cand >= 0 && pos - static_cast<size_t>(cand) <= kMaxOffset &&
        Load32(base + cand) == Load32(base + pos)) {
      size_t match_len = kMinMatch;
      while (pos + match_len < n &&
             base[cand + static_cast<int64_t>(match_len)] == base[pos + match_len]) {
        ++match_len;
      }
      EmitLiteral(&out, input.substr(anchor, pos - anchor));
      EmitCopy(&out, pos - static_cast<size_t>(cand), match_len);
      pos += match_len;
      anchor = pos;
      misses = 0;
    } else {
      ++misses;
      // Bounded skip acceleration: long literal stretches are scanned with a
      // growing stride, capped so cross-row matches ~1 KiB apart are still
      // found.
      pos += 1 + std::min<size_t>(misses / 32, 3);
    }
  }

  EmitLiteral(&out, input.substr(anchor));
  return out;
}

Result<std::string> SnappyLikeCompressor::Decompress(std::string_view input) const {
  std::string_view in = input;
  MC_ASSIGN_OR_RETURN(uint64_t raw_size, GetVarint64(&in));
  if (raw_size > (1ULL << 32)) {
    return Status::Corruption("snappylike: oversized frame");
  }
  std::string out;
  out.reserve(raw_size);

  while (!in.empty()) {
    const auto tag = static_cast<unsigned char>(in.front());
    in.remove_prefix(1);
    if ((tag & 0x03) == kTagLiteral) {
      size_t len = (tag >> 2) + 1;
      if ((tag >> 2) == 61) {
        MC_ASSIGN_OR_RETURN(uint64_t ext, GetVarint64(&in));
        len = ext + 1;
      }
      if (in.size() < len) {
        return Status::Corruption("snappylike: truncated literal");
      }
      out.append(in.data(), len);
      in.remove_prefix(len);
    } else if ((tag & 0x03) == kTagCopy) {
      const size_t len = (tag >> 2) + kMinMatch;
      if (in.size() < 2) {
        return Status::Corruption("snappylike: truncated offset");
      }
      const size_t offset = static_cast<unsigned char>(in[0]) |
                            (static_cast<size_t>(static_cast<unsigned char>(in[1])) << 8);
      in.remove_prefix(2);
      if (offset == 0 || offset > out.size()) {
        return Status::Corruption("snappylike: bad offset");
      }
      const size_t src = out.size() - offset;
      for (size_t i = 0; i < len; ++i) {
        out.push_back(out[src + i]);
      }
    } else {
      return Status::Corruption("snappylike: unknown tag");
    }
    if (out.size() > raw_size) {
      return Status::Corruption("snappylike: output overruns declared size");
    }
  }
  if (out.size() != raw_size) {
    return Status::Corruption("snappylike: size mismatch");
  }
  return out;
}

}  // namespace minicrypt
