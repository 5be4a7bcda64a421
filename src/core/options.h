// MiniCrypt client configuration.

#ifndef MINICRYPT_SRC_CORE_OPTIONS_H_
#define MINICRYPT_SRC_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/crypto/padding.h"

namespace minicrypt {

struct MiniCryptOptions {
  // --- Shared ---------------------------------------------------------------

  std::string table = "mc_data";

  // Target keys per pack (the paper's n; its evaluation uses 50, §8).
  size_t pack_rows = 50;

  // Hash partitions the key space is spread over (paper §7: default 8).
  int hash_partitions = 8;

  // Compression codec name (paper §3 chooses zlib).
  std::string codec = "zlib";

  // Pack size padding tiers (paper §2.5). Default: none.
  PaddingTiers padding;

  // GENERIC mode only, incompatible with range queries (paper §2.5):
  // deterministically encrypt packIDs with a per-table PRF. Lookup then uses
  // static key buckets of `packid_bucket_width` consecutive keys, because an
  // order-based floor query is impossible on PRF output. Splits are disabled
  // in this mode.
  bool encrypt_pack_ids = false;
  uint64_t packid_bucket_width = 50;

  // GENERIC mode: encrypt packIDs with order-preserving encryption instead
  // of the PRF. Keeps floor lookups, splits, and range queries working on
  // encrypted packIDs, at the §2.5-stated cost of revealing their order to
  // the server. Mutually exclusive with encrypt_pack_ids.
  bool ope_pack_ids = false;

  // Client-side decrypted-pack cache (src/core/pack_cache.h). 0 disables it.
  // Cached packs are served only after a version-only floor probe confirms
  // the stored envelope hash, so the default (ttl 0) is fully coherent.
  size_t cache_capacity_bytes = 0;

  // With a nonzero TTL, an entry validated within the last `cache_ttl_micros`
  // may be served without probing the server at all — zero round trips, but
  // reads may then be up to one TTL stale. 0 = probe on every read.
  uint64_t cache_ttl_micros = 0;

  // Bound on put retries under contention before giving up with Aborted.
  int max_put_retries = 64;

  // Exponential backoff between retries (contention and Unavailable alike).
  // Sleeps route through the cluster's Clock, so tests on a SimulatedClock
  // never wall-block. base == 0 disables backoff (the pre-hardening tight
  // loop). Jitter is seeded: 0 picks a fixed default so runs reproduce; give
  // each client of a multi-client test a distinct seed.
  uint64_t retry_backoff_base_micros = 100;
  uint64_t retry_backoff_max_micros = 20'000;
  uint64_t retry_jitter_seed = 0;

  // Figure 10 ablation only: write packs back blindly instead of with
  // update-if. Still pays the extra read, but loses the lost-update
  // protection — the paper measures this variant to justify keeping the
  // lightweight transaction. Never enable outside benchmarks.
  bool blind_pack_writes = false;

  // --- APPEND mode ------------------------------------------------------------

  // Epoch length. Correctness requires epoch_micros > t_delta + t_drift
  // (paper §6.1).
  uint64_t epoch_micros = 2'000'000;
  // Upper bound on key arrival lag (paper's T_delta).
  uint64_t t_delta_micros = 500'000;
  // Max client epoch-sync lag (paper's T_drift; 10 s in their experiments).
  uint64_t t_drift_micros = 200'000;
  // Client heartbeat period and the EM's liveness timeout.
  uint64_t heartbeat_micros = 300'000;
  uint64_t client_timeout_micros = 2'000'000;
  // Merger scan period.
  uint64_t merge_period_micros = 300'000;

  // Split threshold (paper §5.2: "can be set to 1.5 * n"): ceil(1.5n).
  size_t EffectiveMaxKeys() const { return (pack_rows * 3 + 1) / 2; }

  // Validates invariants (epoch bound, nonzero sizes).
  Status Validate() const;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_CORE_OPTIONS_H_
