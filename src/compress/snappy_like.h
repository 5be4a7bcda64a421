// SnappyLike: a from-scratch fast LZ codec in the style of Snappy.
//
// Differences from Lz4Like that place it at the "fastest, lowest ratio" end:
// a smaller hash table, skip-acceleration on incompressible regions (the
// probe stride grows while no matches are found), and matches capped at 64
// bytes per copy element.
//
// Packs seal with zlib by default (paper §3), so this codec serves the
// Figure 2 survey and the codec ablations, not the default seal path.

#ifndef MINICRYPT_SRC_COMPRESS_SNAPPY_LIKE_H_
#define MINICRYPT_SRC_COMPRESS_SNAPPY_LIKE_H_

#include "src/compress/compressor.h"

namespace minicrypt {

class SnappyLikeCompressor : public Compressor {
 public:
  std::string_view Name() const override { return "snappylike"; }
  Result<std::string> Compress(std::string_view input) const override;
  Result<std::string> Decompress(std::string_view input) const override;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMPRESS_SNAPPY_LIKE_H_
