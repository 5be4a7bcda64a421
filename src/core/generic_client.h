// GENERIC-mode MiniCrypt client (paper §4-§5): gets via the floor query on
// packIDs, range gets, puts/deletes through the read-modify-write-if loop,
// and the deterministic split protocol.
//
// Every client holds the customer's symmetric key; the server (the Cluster)
// only ever sees sealed envelopes and their hashes.

#ifndef MINICRYPT_SRC_CORE_GENERIC_CLIENT_H_
#define MINICRYPT_SRC_CORE_GENERIC_CLIENT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/key_codec.h"
#include "src/core/options.h"
#include "src/core/pack.h"
#include "src/core/pack_cache.h"
#include "src/core/pack_crypter.h"
#include "src/core/pack_io.h"
#include "src/crypto/crypto.h"
#include "src/crypto/keyring.h"
#include "src/crypto/ope.h"
#include "src/kvstore/cluster.h"

namespace minicrypt {

// Secondary-index types live in src/index (which links against this
// library); GenericClient only holds a handle, so forward declarations keep
// the layering acyclic. The index entry points below are implemented in
// src/index/indexed_ops.cc — using them requires linking mc_index.
class SecondaryIndex;
struct SecondaryIndexOptions;

// Per-client counters, exposed for tests and benches. CreateTable() resets
// them: it marks the start of a fresh client session over the table, so
// counters always describe work since the table was (re)created.
struct GenericClientStats {
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> deletes{0};
  // Extra attempts of the mutate loop beyond the first, counted identically
  // for contention (ConditionFailed / lost insert race / split-first) and
  // transient-unavailability retries. One put that succeeds on attempt N
  // contributes exactly N-1 here, whatever forced the loop.
  std::atomic<uint64_t> put_retries{0};
  std::atomic<uint64_t> splits{0};
  std::atomic<uint64_t> range_queries{0};
  std::atomic<uint64_t> multigets{0};

  void Reset() {
    gets.store(0, std::memory_order_relaxed);
    puts.store(0, std::memory_order_relaxed);
    deletes.store(0, std::memory_order_relaxed);
    put_retries.store(0, std::memory_order_relaxed);
    splits.store(0, std::memory_order_relaxed);
    range_queries.store(0, std::memory_order_relaxed);
    multigets.store(0, std::memory_order_relaxed);
  }
};

// Durable record of an in-flight key rotation (docs/KEY_ROTATION.md). The
// rotator persists it in a reserved partition of the data table, so a crashed
// rotation resumes from its last durable stage on the next RotateKeys call.
struct KeyRotationState {
  static constexpr int kStageIdle = 0;       // no rotation in flight
  static constexpr int kStageAnnounced = 1;  // target epoch durable, not yet swept
  static constexpr int kStageRepack = 2;     // walking partitions at `cursor`
  static constexpr int kStageVerify = 3;     // drain + clean-sweep before retire

  uint64_t target = 0;         // epoch being rotated to (0 = never rotated)
  int stage = kStageIdle;
  int cursor = 0;              // next partition index of the repack walk
  uint64_t retired_below = 0;  // durable retirement floor
};

class GenericClient {
 public:
  // `cluster` outlives the client. All clients of one customer must share the
  // same keyring (and options) — that is what keeps their sealing epochs and
  // retirement floors in lockstep during rotation. When
  // options.cache_capacity_bytes > 0 the client builds a private
  // decrypted-pack cache. With options.encrypt_pack_ids the client caches
  // nothing: PRF-bucket mode has no floor order for the version probe.
  GenericClient(Cluster* cluster, const MiniCryptOptions& options,
                std::shared_ptr<Keyring> keyring);

  // Same, but sharing a pack cache with other clients of the same customer
  // (pass nullptr to force caching off regardless of the options).
  GenericClient(Cluster* cluster, const MiniCryptOptions& options,
                std::shared_ptr<Keyring> keyring, std::shared_ptr<PackCache> cache);

  // Legacy single-key conveniences: wrap the key in a fresh epoch-0 keyring
  // private to this client. Fine for anything that never rotates.
  GenericClient(Cluster* cluster, const MiniCryptOptions& options, const SymmetricKey& key);
  GenericClient(Cluster* cluster, const MiniCryptOptions& options, const SymmetricKey& key,
                std::shared_ptr<PackCache> cache);

  // Creates the backing table (idempotent; first client calls this).
  Status CreateTable();

  // --- Paper §2.3 API -----------------------------------------------------------

  // get(key): fetch pack by floor query, decrypt, scan (Figure 3).
  Result<std::string> Get(uint64_t key);

  // get(low, high): range query over packIDs (Figure 4). Inclusive bounds.
  Result<std::vector<std::pair<uint64_t, std::string>>> GetRange(uint64_t low, uint64_t high);

  // Batched get: one result per input key, aligned with `keys` (duplicates
  // allowed; a missing key yields NotFound in its slot). Keys are grouped by
  // their owning pack so one fetch + decrypt serves every key of the group —
  // with the pack cache on, a whole group can be served without touching the
  // envelope at all.
  std::vector<Result<std::string>> MultiGet(const std::vector<uint64_t>& keys);

  // put(key, val): read-modify-write-if loop with split-on-oversize
  // (Figures 5 and 6).
  Status Put(uint64_t key, std::string_view value);

  // delete(key): like put, but removes the key; packs are never removed and
  // their IDs never change (paper §5.3).
  Status Delete(uint64_t key);

  // --- Secondary index (src/index; implemented in indexed_ops.cc) ---------------

  // Creates (or attaches to) an encrypted secondary index over this table's
  // row values and its backing table. After this call every Put maintains
  // the index *before* writing the primary row, so the index is always a
  // superset of live rows (stale entries are filtered by GetRangeByValue,
  // never trusted). One index per client handle.
  Status CreateIndex(const SecondaryIndexOptions& iopts);

  // Rows whose indexed attribute lies in [lo, hi] (inclusive), sorted by
  // primary key. Point predicates are lo == hi. Every index candidate is
  // re-read from the primary table and its attribute re-verified, so the
  // result is exact even while the index holds stale or duplicate entries.
  Result<std::vector<std::pair<uint64_t, std::string>>> GetRangeByValue(uint64_t lo, uint64_t hi);

  // The attached index, or nullptr before CreateIndex.
  const std::shared_ptr<SecondaryIndex>& index() const { return index_; }

  // --- Bulk load -----------------------------------------------------------------

  // Packs a sorted stream of rows per partition and inserts whole packs;
  // used to preload benches (and by APPEND-mode mergers via the same codec
  // path). Rows need not be globally sorted.
  Status BulkLoad(const std::vector<std::pair<uint64_t, std::string>>& rows);

  // BulkLoad plus index maintenance: index entries are written first (as
  // segments / leaves wholesale), mirroring the index-first ordering of Put.
  // Falls back to plain BulkLoad when no index is attached. Implemented in
  // src/index/indexed_ops.cc.
  Status BulkLoadIndexed(const std::vector<std::pair<uint64_t, std::string>>& rows);

  // --- Online key rotation (docs/KEY_ROTATION.md) --------------------------------

  // Runs (or resumes) one epoch rotation to completion:
  //   announce-epoch -> re-pack every partition -> verify (drain + clean
  //   sweep) -> retire the old epochs.
  // Crash-resumable: every stage edge is persisted (a durable cursor walks
  // the partitions), so calling RotateKeys again after any failure resumes
  // idempotently from the last durable stage — including a rotation started
  // by a different (crashed) client of the same keyring. Re-seals go through
  // the LWT envelope-hash gate, so concurrent foreground writers are never
  // clobbered; contention and Unavailable replicas consume bounded retries
  // and then *pause* the rotation with Unavailable (foreground traffic wins).
  // A fresh call with nothing in flight rotates to current_epoch() + 1.
  Status RotateKeys();

  // The persisted rotation record (all-defaults when none exists yet).
  Result<KeyRotationState> RotationState();

  // The keyring this client seals with (shared across the customer's clients).
  const std::shared_ptr<Keyring>& keyring() const { return keyring_; }

  // --- Introspection ---------------------------------------------------------------

  const GenericClientStats& stats() const { return stats_; }
  const MiniCryptOptions& options() const { return options_; }

  // The decrypted-pack cache this client consults; nullptr when caching is
  // off. Share it across clients by passing it to their constructors.
  const std::shared_ptr<PackCache>& pack_cache() const { return cache_; }

  // Test hooks: fail-points that abort a split at a chosen step, modelling a
  // client crash (paper §5.2's failure analysis).
  enum class SplitFailPoint { kNone, kAfterRightInsert };
  void set_split_fail_point(SplitFailPoint p) { split_fail_point_ = p; }

 private:
  // Fetches the pack that should contain `encoded_key` within `partition`:
  // the cache-checked floor fetch (PackReader::FetchFloor; `allow_ttl` lets
  // a TTL-fresh entry answer), or in PRF-bucket mode a direct read of the
  // bucket's row. NotFound when the partition holds no pack at or below the
  // key. `point` (Get only) lets a cacheless floor fetch decode the pack
  // only through `encoded_key`; the caller then may only Find that key.
  Result<FetchedPack> FetchPackFor(std::string_view partition, std::string_view encoded_key,
                                   bool allow_ttl, bool point = false);

  // FetchPackFor retried while Unavailable, as the read paths do. A
  // TTL-fresh pack lacking `encoded_key` is confirmed against the server.
  Result<FetchedPack> FetchWithRetries(std::string_view partition, std::string_view encoded_key,
                                       bool allow_ttl, bool point = false);

  // One write attempt; sets *retry when the caller should loop. `applied`
  // answers "does this pack already reflect my mutation?" — consulted after
  // an ambiguous (Unavailable) LWT outcome: the client re-reads and verifies
  // instead of blind-retrying a conditional write that may have landed.
  // `pack_id` (optional) receives the last pack this attempt touched, for
  // error messages.
  Status TryMutate(uint64_t key, const std::function<void(Pack*)>& mutate,
                   const std::function<bool(const Pack&)>& applied, bool insert_if_new,
                   bool* retry, std::string* pack_id);

  // Shared retry loop of Put/Delete: TryMutate with exponential backoff and
  // a bounded budget; exhaustion returns Aborted (contention) or Unavailable
  // (faults), both naming the key and pack.
  Status MutateWithRetries(uint64_t key, const std::function<void(Pack*)>& mutate,
                           const std::function<bool(const Pack&)>& applied, bool insert_if_new,
                           std::string_view op_name);

  // Runs the split protocol of Figure 6 on a fetched pack.
  Status SplitPack(std::string_view partition, const FetchedPack& fetched);

  // --- Rotation internals (see RotateKeys) -----------------------------------

  // Reads / writes the durable rotation record. Persist consults the
  // kRotatePersist fault point first (an injected failure pauses the
  // rotation before the stage transition becomes durable).
  Result<KeyRotationState> LoadRotationState();
  Status PersistRotationState(const KeyRotationState& state);

  // Scans one partition and re-seals every pack whose envelope epoch is
  // below `target`; adds the number of stale packs found to *resealed.
  // Used by both the repack walk and the verify sweeps.
  Status RepackPartition(std::string_view partition, uint64_t target, size_t* resealed);

  // Re-seals one pack under the current (>= target) epoch via the LWT
  // envelope-hash gate, bounded retries. Ok when the pack vanished or is
  // already at/above target.
  Status ResealPack(std::string_view partition, std::string_view pack_id, uint64_t target);

  // Seals and writes a brand-new pack under its own ID (INSERT IF NOT EXISTS).
  Status InsertNewPack(std::string_view partition, std::string_view pack_id, const Pack& pack);

  std::string StoredPackId(std::string_view partition, const Pack& pack,
                           std::string_view fallback_id) const;

  // Maps an order-preserving-encoded plaintext key into the packID space the
  // server indexes: identity normally, the OPE image in ope_pack_ids mode.
  std::string StoredKeyFor(std::string_view encoded_key) const;

  Cluster* cluster_;
  MiniCryptOptions options_;
  // Epoch-versioned key material, shared across the customer's clients. The
  // companions below (packID PRF, OPE, secondary-index subkeys) derive from
  // its master key — they encrypt identifiers, not data at rest, and do not
  // rotate with packs (docs/KEY_ROTATION.md discusses the trade-off).
  std::shared_ptr<Keyring> keyring_;
  // The master key, retained for lazily constructed companions (the
  // secondary index derives its own subkeys from it).
  SymmetricKey key_;
  PackCrypter crypter_;
  std::optional<PackIdCipher> packid_cipher_;
  std::optional<OpeCipher> ope_;
  std::shared_ptr<PackCache> cache_;  // nullptr = caching off
  PackReader reader_;
  // Set by CreateIndex: Put calls the hook (index-first) before the primary
  // RMW loop. The hook indirection keeps generic_client.cc free of index
  // types, so mc_core does not link mc_index.
  std::shared_ptr<SecondaryIndex> index_;
  std::function<Status(uint64_t key, std::string_view value)> index_add_hook_;
  GenericClientStats stats_;
  RetryBackoff retry_;
  SplitFailPoint split_fail_point_ = SplitFailPoint::kNone;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_CORE_GENERIC_CLIENT_H_
