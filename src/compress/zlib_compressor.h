// zlib-backed codec (the codec MiniCrypt ships as its default, paper §3).

#ifndef MINICRYPT_SRC_COMPRESS_ZLIB_COMPRESSOR_H_
#define MINICRYPT_SRC_COMPRESS_ZLIB_COMPRESSOR_H_

#include "src/compress/compressor.h"

namespace minicrypt {

class ZlibCompressor : public Compressor {
 public:
  // level in [1, 9]; 6 is the zlib default used for the "zlib" registry entry.
  explicit ZlibCompressor(int level = 6, std::string_view name = "zlib");

  std::string_view Name() const override { return name_; }
  Result<std::string> Compress(std::string_view input) const override;
  Result<std::string> Decompress(std::string_view input) const override;
  // Inflates ~1 KB of input per step into an output buffer sized for the
  // whole frame, asking `enough` after each step.
  Result<std::string> DecompressPrefix(std::string_view input,
                                       const std::function<bool(std::string_view)>& enough,
                                       uint64_t* full_size) const override;

 private:
  int level_;
  std::string name_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMPRESS_ZLIB_COMPRESSOR_H_
