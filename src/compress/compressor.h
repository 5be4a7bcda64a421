// Compressor interface and registry.
//
// MiniCrypt is codec-agnostic (paper §2.4, §3): packs are compressed with any
// registered codec before encryption. This repo ships five general-purpose
// codecs occupying the ratio/speed trade-off positions the paper surveys
// (snappy-like, lz4-like, zlib, bzip2-like, lzma-like), plus two strawman
// codecs (RLE, dictionary) used only to reproduce the §2.4 discussion.
//
// Framing: every codec's output is self-describing — Decompress needs no
// out-of-band length. Implementations must round-trip arbitrary bytes.

#ifndef MINICRYPT_SRC_COMPRESS_COMPRESSOR_H_
#define MINICRYPT_SRC_COMPRESS_COMPRESSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace minicrypt {

class Compressor {
 public:
  virtual ~Compressor() = default;

  // Stable codec name ("zlib", "lz4like", "snappylike", "bzip2like", "lzmalike").
  virtual std::string_view Name() const = 0;

  // Compresses `input` into a self-framed buffer.
  virtual Result<std::string> Compress(std::string_view input) const = 0;

  // Inverse of Compress. Returns Corruption on malformed input.
  virtual Result<std::string> Decompress(std::string_view input) const = 0;

  // Decompresses only as far as a point read needs: `enough` sees the whole
  // output so far after each step and returns true to stop. The result is
  // that output, a prefix of what Decompress returns, and `*full_size` gets
  // the size of the whole. The default decodes the whole frame in one step;
  // zlib, the default codec, streams.
  virtual Result<std::string> DecompressPrefix(
      std::string_view input, const std::function<bool(std::string_view)>& enough,
      uint64_t* full_size) const {
    MC_ASSIGN_OR_RETURN(std::string out, Decompress(input));
    *full_size = out.size();
    return out;
  }
};

// Returns the codec registered under `name`, or nullptr. The returned pointer
// is owned by the registry and valid for the process lifetime. Thread-safe.
const Compressor* FindCompressor(std::string_view name);

// Names of all registered general-purpose codecs, in ratio/speed survey order
// (fastest/lowest-ratio first). Excludes strawmen.
std::vector<std::string_view> AllCompressorNames();

// The codec MiniCrypt uses by default (paper §3 chooses zlib).
const Compressor* DefaultCompressor();

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMPRESS_COMPRESSOR_H_
