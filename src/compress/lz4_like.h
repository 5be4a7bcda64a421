// Lz4Like: a from-scratch byte-aligned LZ77 codec in the style of LZ4.
//
// Greedy parse with a 16-bit offset window, 4-byte minimum match, hash-table
// match finder, and a token byte carrying 4-bit literal/match length nibbles
// with 255-extension bytes. Occupies the "fast, modest ratio" position in the
// codec survey (paper Figure 2 runs lz4 among its five algorithms).
//
// Packs seal with zlib by default (paper §3), so this codec serves the
// Figure 2 survey and the codec ablations, not the default seal path.

#ifndef MINICRYPT_SRC_COMPRESS_LZ4_LIKE_H_
#define MINICRYPT_SRC_COMPRESS_LZ4_LIKE_H_

#include "src/compress/compressor.h"

namespace minicrypt {

class Lz4LikeCompressor : public Compressor {
 public:
  std::string_view Name() const override { return "lz4like"; }
  Result<std::string> Compress(std::string_view input) const override;
  Result<std::string> Decompress(std::string_view input) const override;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMPRESS_LZ4_LIKE_H_
