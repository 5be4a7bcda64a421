#include "src/compress/lz4_like.h"

#include <cstring>
#include <vector>

#include "src/common/coding.h"

namespace minicrypt {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 16;
constexpr size_t kHashSize = 1u << kHashBits;
// The last bytes of the block are always emitted as literals so the decoder's
// match copy never reads past the end.
constexpr size_t kTailLiterals = 12;

uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint32_t Hash4(uint32_t v) { return (v * 2654435761u) >> (32 - kHashBits); }

// Emits a length in the nibble+extensions scheme: the nibble holds
// min(len, 15); if it is 15, extension bytes of 255 follow until the
// remainder is < 255.
void PutLenExtension(std::string* out, size_t len) {
  if (len < 15) {
    return;
  }
  len -= 15;
  while (len >= 255) {
    out->push_back(static_cast<char>(0xff));
    len -= 255;
  }
  out->push_back(static_cast<char>(len));
}

Result<size_t> GetLenExtension(std::string_view* in, size_t nibble) {
  size_t len = nibble;
  if (nibble == 15) {
    for (;;) {
      if (in->empty()) {
        return Status::Corruption("lz4like: truncated length extension");
      }
      auto b = static_cast<unsigned char>(in->front());
      in->remove_prefix(1);
      len += b;
      if (b != 255) {
        break;
      }
    }
  }
  return len;
}

}  // namespace

Result<std::string> Lz4LikeCompressor::Compress(std::string_view input) const {
  std::string out;
  PutVarint64(&out, input.size());
  if (input.empty()) {
    return out;
  }

  std::vector<int64_t> table(kHashSize, -1);
  const char* base = input.data();
  const size_t n = input.size();
  size_t anchor = 0;  // start of pending literal run
  size_t pos = 0;
  const size_t match_limit = n > kTailLiterals ? n - kTailLiterals : 0;

  while (pos + kMinMatch <= match_limit) {
    const uint32_t h = Hash4(Load32(base + pos));
    const int64_t cand = table[h];
    table[h] = static_cast<int64_t>(pos);
    if (cand >= 0 && pos - static_cast<size_t>(cand) <= kMaxOffset &&
        Load32(base + cand) == Load32(base + pos)) {
      // Extend the match forward as far as possible (bounded by match_limit
      // so the decoder never copies into the protected tail).
      size_t match_len = kMinMatch;
      while (pos + match_len < match_limit &&
             base[cand + static_cast<int64_t>(match_len)] == base[pos + match_len]) {
        ++match_len;
      }
      const size_t lit_len = pos - anchor;
      const size_t offset = pos - static_cast<size_t>(cand);
      const size_t ml_code = match_len - kMinMatch;
      const unsigned char token =
          static_cast<unsigned char>((lit_len < 15 ? lit_len : 15) << 4 |
                                     (ml_code < 15 ? ml_code : 15));
      out.push_back(static_cast<char>(token));
      PutLenExtension(&out, lit_len);
      out.append(base + anchor, lit_len);
      out.push_back(static_cast<char>(offset & 0xff));
      out.push_back(static_cast<char>(offset >> 8));
      PutLenExtension(&out, ml_code);
      pos += match_len;
      anchor = pos;
      // Prime the table inside the match so back-to-back repeats are found.
      if (pos + kMinMatch <= match_limit) {
        table[Hash4(Load32(base + pos - 2))] = static_cast<int64_t>(pos - 2);
      }
    } else {
      ++pos;
    }
  }

  // Final literal-only sequence (token with match nibble 0, no offset bytes
  // follow; the declared size tells the decoder when to stop).
  const size_t lit_len = n - anchor;
  const unsigned char token = static_cast<unsigned char>((lit_len < 15 ? lit_len : 15) << 4);
  out.push_back(static_cast<char>(token));
  PutLenExtension(&out, lit_len);
  out.append(base + anchor, lit_len);
  return out;
}

Result<std::string> Lz4LikeCompressor::Decompress(std::string_view input) const {
  std::string_view in = input;
  MC_ASSIGN_OR_RETURN(uint64_t raw_size, GetVarint64(&in));
  if (raw_size > (1ULL << 32)) {
    return Status::Corruption("lz4like: oversized frame");
  }
  std::string out;
  out.reserve(raw_size);

  while (out.size() < raw_size) {
    if (in.empty()) {
      return Status::Corruption("lz4like: truncated stream");
    }
    const auto token = static_cast<unsigned char>(in.front());
    in.remove_prefix(1);
    MC_ASSIGN_OR_RETURN(size_t lit_len, GetLenExtension(&in, token >> 4));
    if (in.size() < lit_len) {
      return Status::Corruption("lz4like: truncated literals");
    }
    out.append(in.data(), lit_len);
    in.remove_prefix(lit_len);
    if (out.size() >= raw_size) {
      break;  // final literal-only sequence
    }
    if (in.size() < 2) {
      return Status::Corruption("lz4like: truncated offset");
    }
    const size_t offset = static_cast<unsigned char>(in[0]) |
                          (static_cast<size_t>(static_cast<unsigned char>(in[1])) << 8);
    in.remove_prefix(2);
    if (offset == 0 || offset > out.size()) {
      return Status::Corruption("lz4like: bad offset");
    }
    MC_ASSIGN_OR_RETURN(size_t ml_code, GetLenExtension(&in, token & 0x0f));
    size_t match_len = ml_code + kMinMatch;
    if (out.size() + match_len > raw_size) {
      return Status::Corruption("lz4like: match overruns declared size");
    }
    // Byte-wise copy: overlapping copies (offset < match_len) must replicate.
    size_t src = out.size() - offset;
    for (size_t i = 0; i < match_len; ++i) {
      out.push_back(out[src + i]);
    }
  }
  if (out.size() != raw_size) {
    return Status::Corruption("lz4like: size mismatch");
  }
  return out;
}

}  // namespace minicrypt
