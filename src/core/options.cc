#include "src/core/options.h"

#include "src/compress/compressor.h"

namespace minicrypt {

Status MiniCryptOptions::Validate() const {
  if (table.empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  if (pack_rows == 0) {
    return Status::InvalidArgument("pack_rows must be >= 1");
  }
  if (hash_partitions <= 0) {
    return Status::InvalidArgument("hash_partitions must be >= 1");
  }
  if (FindCompressor(codec) == nullptr) {
    return Status::InvalidArgument("unknown codec: " + codec);
  }
  if (epoch_micros <= t_delta_micros + t_drift_micros) {
    // Paper §6.1: EPOCH > T_delta + T_drift, otherwise the merge-safety
    // argument (Figure 8) does not hold.
    return Status::InvalidArgument("epoch_micros must exceed t_delta + t_drift");
  }
  if (retry_backoff_base_micros > retry_backoff_max_micros) {
    return Status::InvalidArgument("retry_backoff_base_micros exceeds retry_backoff_max_micros");
  }
  if (encrypt_pack_ids && packid_bucket_width == 0) {
    return Status::InvalidArgument("packid_bucket_width must be >= 1");
  }
  if (cache_ttl_micros > 0 && cache_capacity_bytes == 0) {
    return Status::InvalidArgument("cache_ttl_micros requires cache_capacity_bytes > 0");
  }
  if (encrypt_pack_ids && ope_pack_ids) {
    return Status::InvalidArgument("choose one of encrypt_pack_ids / ope_pack_ids");
  }
  return Status::Ok();
}

}  // namespace minicrypt
