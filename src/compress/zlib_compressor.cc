#include "src/compress/zlib_compressor.h"

#include <zlib.h>

#include <algorithm>
#include <memory>

#include "src/common/coding.h"

namespace minicrypt {

namespace {

// Deflate's maximum expansion: one compressed byte inflates to at most 1032.
constexpr uint64_t kMaxInflateRatio = 1032;

// Input fed to inflate per step of a prefix decode. Bounding the input, with
// the output window at the frame's full size, costs ~110% of a one-shot
// uncompress for a whole pass; bounding the output per step instead cost
// ~120%, and keys near a pack's end are the tail of point-read latency.
constexpr size_t kInflateStepBytes = 1024;

// Reads the frame header, the declared raw size, and rejects a size the body
// could never inflate to before anyone allocates it (corrupted frame
// defence). Both decodes read the header here.
Result<uint64_t> ReadRawSize(std::string_view* rest) {
  MC_ASSIGN_OR_RETURN(uint64_t raw_size, GetVarint64(rest));
  if (raw_size > rest->size() * kMaxInflateRatio || raw_size > UINT32_MAX) {
    return Status::Corruption("zlib frame declares oversized payload");
  }
  return raw_size;
}

}  // namespace

ZlibCompressor::ZlibCompressor(int level, std::string_view name) : level_(level), name_(name) {}

Result<std::string> ZlibCompressor::Compress(std::string_view input) const {
  std::string out;
  PutVarint64(&out, input.size());
  uLongf bound = compressBound(static_cast<uLong>(input.size()));
  const size_t header = out.size();
  out.resize(header + bound);
  int rc = compress2(reinterpret_cast<Bytef*>(out.data() + header), &bound,
                     reinterpret_cast<const Bytef*>(input.data()),
                     static_cast<uLong>(input.size()), level_);
  if (rc != Z_OK) {
    return Status::Internal("zlib compress2 failed rc=" + std::to_string(rc));
  }
  out.resize(header + bound);
  return out;
}

Result<std::string> ZlibCompressor::Decompress(std::string_view input) const {
  std::string_view rest = input;
  MC_ASSIGN_OR_RETURN(const uint64_t raw_size, ReadRawSize(&rest));
  std::string out(raw_size, '\0');
  uLongf out_len = static_cast<uLongf>(raw_size);
  int rc = uncompress(reinterpret_cast<Bytef*>(out.data()), &out_len,
                      reinterpret_cast<const Bytef*>(rest.data()),
                      static_cast<uLong>(rest.size()));
  if (rc != Z_OK || out_len != raw_size) {
    return Status::Corruption("zlib uncompress failed rc=" + std::to_string(rc));
  }
  return out;
}

Result<std::string> ZlibCompressor::DecompressPrefix(
    std::string_view input, const std::function<bool(std::string_view)>& enough,
    uint64_t* full_size) const {
  std::string_view rest = input;
  MC_ASSIGN_OR_RETURN(const uint64_t raw_size, ReadRawSize(&rest));
  *full_size = raw_size;
  std::string out(raw_size, '\0');
  z_stream zs{};
  if (inflateInit(&zs) != Z_OK) {
    return Status::Internal("zlib inflateInit failed");
  }
  // Frees inflate's state on every return below.
  const std::unique_ptr<z_stream, int (*)(z_streamp)> end_inflate(&zs, inflateEnd);
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(rest.data()));
  zs.next_out = reinterpret_cast<Bytef*>(out.data());
  zs.avail_out = static_cast<uInt>(raw_size);
  size_t unread = rest.size();
  while (true) {
    const size_t step = std::min(unread, kInflateStepBytes);
    zs.avail_in = static_cast<uInt>(step);
    const int rc = inflate(&zs, Z_NO_FLUSH);
    unread -= step - zs.avail_in;
    if (rc == Z_STREAM_END) {
      // The whole stream, its Adler-32 checked by inflate: the same verdict
      // as Decompress.
      if (zs.total_out != raw_size) {
        return Status::Corruption("zlib stream shorter than its declared size");
      }
      return out;
    }
    // Z_BUF_ERROR means no progress: out of input (truncated) or of output
    // (the header understated the size).
    if (rc != Z_OK) {
      return Status::Corruption("zlib inflate failed rc=" + std::to_string(rc));
    }
    if (enough(std::string_view(out.data(), zs.total_out))) {
      // The uninflated tail, and with it the Adler-32 trailer, is never used.
      out.resize(zs.total_out);
      return out;
    }
  }
}

}  // namespace minicrypt
