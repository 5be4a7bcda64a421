// Pack I/O shared by every MiniCrypt client (GenericClient, AppendClient and
// the secondary index). MiniCrypt needs only a floor query and a single-row
// update-if from the store (paper §2.5.1); the clients reach them through the
// three mechanisms below, each written once:
//
//   * the pack-row format: the sealed envelope in `v`, its SHA-256 in `h`
//     (the update-if token and the version the cache probe reads);
//   * RetryBackoff: the seeded exponential backoff between retries, and the
//     loop that re-runs an op while it returns Unavailable;
//   * PackReader: the cache-checked floor fetch (docs/ARCHITECTURE.md
//     "Client pack cache") and its companion that opens a row already in
//     hand, both filling the cache whenever they open an envelope.

#ifndef MINICRYPT_SRC_CORE_PACK_IO_H_
#define MINICRYPT_SRC_CORE_PACK_IO_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/backoff.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/core/options.h"
#include "src/core/pack.h"
#include "src/core/pack_cache.h"
#include "src/core/pack_crypter.h"
#include "src/kvstore/cluster.h"

namespace minicrypt {

// --- Pack-row format -------------------------------------------------------------

inline constexpr std::string_view kPackValueColumn = "v";
inline constexpr std::string_view kPackHashColumn = "h";

Row PackRow(const SealedPack& sealed);

// (envelope, hash) views into `row`; Corruption when either cell is missing.
Result<std::pair<std::string_view, std::string_view>> ExtractPackCells(const Row& row);

// --- Retry -----------------------------------------------------------------------

// A client's retry pacing: exponential backoff with seeded jitter
// (src/common/backoff.h), slept through the client's Clock. Thread-safe: one
// client serves many threads, and the jitter RNG is the only mutable state on
// the retry path.
class RetryBackoff {
 public:
  // Base and cap come from the options; each client derives its own seed so
  // a fleet of clients desynchronizes its retries.
  RetryBackoff(const MiniCryptOptions& options, uint64_t jitter_seed, Clock* clock)
      : clock_(clock),
        backoff_(options.retry_backoff_base_micros, options.retry_backoff_max_micros,
                 jitter_seed) {}

  // Sleeps the delay for 0-based retry ordinal `attempt` (the first retry
  // after the initial try passes 0) and counts it in client.backoff_micros.
  void Sleep(int attempt);

  // Runs `op` (returning Status or Result<T>) up to `attempts` times while it
  // returns Unavailable, calling `on_retry` and sleeping before each retry.
  // Returns the last outcome; any other status returns at once.
  template <typename Op, typename OnRetry>
  auto WhileUnavailable(int attempts, Op&& op, OnRetry&& on_retry) -> decltype(op()) {
    decltype(op()) out = Status::Unavailable("never attempted");
    for (int attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        on_retry();
        Sleep(attempt - 1);
      }
      out = op();
      if (!IsUnavailable(out)) {
        break;
      }
    }
    return out;
  }
  template <typename Op>
  auto WhileUnavailable(int attempts, Op&& op) -> decltype(op()) {
    return WhileUnavailable(attempts, std::forward<Op>(op), [] {});
  }

 private:
  static bool IsUnavailable(const Status& s) { return s.IsUnavailable(); }
  template <typename T>
  static bool IsUnavailable(const Result<T>& r) {
    return !r.ok() && r.status().IsUnavailable();
  }

  Clock* clock_;
  std::mutex mu_;
  Backoff backoff_;
};

// --- Cache-checked floor fetch ---------------------------------------------------

struct FetchedPack {
  std::string pack_id;  // stored clustering key (may be an OPE image or PRF output)
  std::shared_ptr<const Pack> pack;
  std::string hash;        // envelope hash (update-if token)
  bool ttl_fresh = false;  // served from the cache without a server probe
};

// Reads one client's packs from `table`, through an optional pack cache.
// Envelopes open with the stored packID as AAD context when `bind_pack_id`
// (GENERIC packs), with an empty one otherwise (APPEND's merged packs).
class PackReader {
 public:
  PackReader(Cluster* cluster, const PackCrypter* crypter, std::string table, PackCache* cache,
             bool bind_pack_id)
      : cluster_(cluster),
        crypter_(crypter),
        table_(std::move(table)),
        cache_(cache),
        bind_pack_id_(bind_pack_id) {}

  // The pack owning `stored_key` in `partition`: NotFound when the partition
  // holds no pack at or below it. With a cache: a TTL-fresh candidate (only
  // with `allow_ttl`; the result is then marked ttl_fresh and may predate a
  // newer pack), else a cached candidate confirmed by a version probe of the
  // floor's `h` cell, else a direct read of the probed pack; with no
  // candidate (or no cache) a full floor read.
  //
  // `point_key` (a Get's encoded plaintext key) asks for a point decode when
  // there is no cache to fill: the pack then holds only its entries through
  // the first key >= *point_key (PackCrypter::Open), so the caller may only
  // Find that key in it. With a cache the whole pack is opened and cached.
  Result<FetchedPack> FetchFloor(std::string_view partition, std::string_view stored_key,
                                 bool allow_ttl,
                                 std::optional<std::string_view> point_key = std::nullopt);

  // Opens a pack row already in hand (range scans, direct reads), reusing a
  // cached pack when its hash matches.
  Result<FetchedPack> OpenRow(std::string_view partition, std::string pack_id, const Row& row);

  // Cache bookkeeping after a write of `pack_id`: Put() the post-image on an
  // acked write, Invalidate() on a lost race or an ambiguous outcome. No-ops
  // without a cache.
  void CacheWritten(std::string_view partition, std::string_view pack_id, const Pack& pack,
                    const std::string& hash);
  void CacheInvalidate(std::string_view partition, std::string_view pack_id);

 private:
  // Decrypts the envelope and fills the cache. With `stop`, a point decode
  // that only FetchFloor asks for, and only without a cache.
  Result<FetchedPack> Open(std::string_view partition, std::string pack_id,
                           std::pair<std::string_view, std::string_view> cells,
                           std::optional<std::string_view> stop = std::nullopt);

  Cluster* cluster_;
  const PackCrypter* crypter_;
  std::string table_;
  PackCache* cache_;  // nullptr = caching off
  bool bind_pack_id_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_CORE_PACK_IO_H_
