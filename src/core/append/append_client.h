// APPEND-mode MiniCrypt client (paper §6): puts are single-row inserts into
// the current epoch's partition (no read, no update-if — hence nearly the
// speed of the underlying store), gets probe merged packs then recent epochs,
// and a background merger folds closed epochs into packs in epoch 0.

#ifndef MINICRYPT_SRC_CORE_APPEND_APPEND_CLIENT_H_
#define MINICRYPT_SRC_CORE_APPEND_APPEND_CLIENT_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/thread_util.h"
#include "src/core/append/em_service.h"
#include "src/core/append/epoch.h"
#include "src/core/options.h"
#include "src/core/pack_cache.h"
#include "src/core/pack_crypter.h"
#include "src/core/pack_io.h"
#include "src/crypto/crypto.h"
#include "src/kvstore/cluster.h"

namespace minicrypt {

struct AppendClientStats {
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> get_epoch_probes{0};
  std::atomic<uint64_t> keys_merged{0};
  std::atomic<uint64_t> packs_written{0};
  std::atomic<uint64_t> epochs_merged{0};
  std::atomic<uint64_t> epochs_deleted{0};
  std::atomic<uint64_t> keys_deleted{0};
};

class AppendClient {
 public:
  // When `cache` is null and options.cache_capacity_bytes > 0, the client
  // builds a private decrypted-pack cache for its merged-pack (epoch 0)
  // reads; pass one explicitly to share it across clients.
  AppendClient(Cluster* cluster, const MiniCryptOptions& options, const SymmetricKey& key,
               std::string client_id, Clock* clock = SystemClock::Get(),
               std::shared_ptr<PackCache> cache = nullptr);
  ~AppendClient();

  // Registers the client (heartbeat row) and synchronizes c_epoch with
  // g_epoch; paper §6.1 requires a new client to sync before inserting.
  Status Register();

  // --- Data path ---------------------------------------------------------------

  // Fast append: one single-row insert under (c_epoch, key) (paper §6.1.2).
  Status Put(uint64_t key, std::string_view value);

  // Three-step read: epoch 0 packs, then epochs e and e-1 located via the
  // stats table's min keys, then one more epoch-0 attempt (paper §6.1.3).
  // Also probes the open epochs, which the stats table does not cover yet.
  Result<std::string> Get(uint64_t key);

  // Time-range query (the workload §2.3 and §8.1.2 motivate): merged packs
  // in epoch 0, read at QUORUM, plus every live raw epoch, read at the
  // cluster's level, deduplicated. Inclusive bounds.
  Result<std::vector<std::pair<uint64_t, std::string>>> GetRange(uint64_t low, uint64_t high);

  // --- Background duties (heartbeat, epoch sync, merge, delete) ----------------

  // Runs heartbeat + epoch sync + one merge/delete pass synchronously.
  // Exposed for deterministic tests; Start() loops it on a thread.
  Status HeartbeatOnce();
  Status MergeOnce();
  Status DeleteMergedOnce();

  void Start();
  void Stop();

  const AppendClientStats& stats() const { return stats_; }
  uint64_t local_epoch() const { return c_epoch_.load(std::memory_order_acquire); }
  const std::string& id() const { return client_id_; }
  const std::shared_ptr<PackCache>& pack_cache() const { return cache_; }

 private:
  // Merges one epoch this client is responsible for (paper §6.1.4).
  Status MergeEpoch(uint64_t epoch);

  // All (key, value) rows of an epoch partition, decrypted.
  Result<std::vector<std::pair<uint64_t, std::string>>> ReadEpochRows(uint64_t epoch);

  // Direct single-row probe of (epoch, key).
  Result<std::string> ProbeEpoch(uint64_t epoch, std::string_view encoded_key);

  // Pack lookup in epoch 0: GENERIC's cache-checked floor fetch
  // (PackReader::FetchFloor) on the merged partition.
  Result<std::string> ProbeMergedPacks(std::string_view encoded_key);

  // The same lookup as one QUORUM floor read, its row opened directly (a
  // cached pack is reused only when its hash matches). Get's last step.
  Result<std::string> ProbeMergedPacksAtQuorum(std::string_view encoded_key);

  Status SyncEpoch();
  Status SyncEpochOnce();

  Cluster* cluster_;
  MiniCryptOptions options_;
  std::string meta_table_;
  PackCrypter crypter_;
  std::string client_id_;
  Clock* clock_;
  std::shared_ptr<PackCache> cache_;  // nullptr = caching off
  PackReader reader_;
  // Heartbeat/merge threads share the client with the caller's data path.
  RetryBackoff retry_;
  std::atomic<uint64_t> c_epoch_{1};
  AppendClientStats stats_;
  std::unique_ptr<PeriodicTask> heartbeat_task_;
  std::unique_ptr<PeriodicTask> merge_task_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_CORE_APPEND_APPEND_CLIENT_H_
