// Encrypted secondary index over pack values: a client-maintained POPE-style
// buffer structure whose nodes are themselves encrypted packs stored in the
// cluster (Roche et al.; see docs/INDEXING.md).
//
// The index maps a 64-bit attribute (extracted from the row value) to primary
// keys. Its server-side footprint is three row families inside one backing
// table:
//
//   partition "ib" — the unsorted buffer: an active pack ("buf") plus sealed
//                    arrival-order segments ("s" || seq). The server learns
//                    nothing about attribute order from these rows.
//   partition "ir" — the root manifest ("root"): an encrypted list of
//                    materialized sorted regions and their leaf labels. Every
//                    lazy sort commits here, so the manifest is the atomic
//                    commit point of the drain protocol.
//   partition "il" — sorted leaves, labeled by the OPE image of their minimum
//                    attribute. A leaf label existing at all is the only
//                    order the server ever learns.
//
// The leakage knob decides *when* leaves materialize:
//   kNoOrder      — never. Queries scan the whole (compact, encrypted)
//                   buffer; zero order leakage, full-scan cost.
//   kQueriedOrder — POPE: on the first range query touching a region, the
//                   buffer's in-range entries are drained into leaves. Order
//                   leaks only for queried regions.
//   kTotalOrder   — eagerly at insert, routing by OPE floor exactly like the
//                   primary table's packs (src/crypto/ope.h). Total order of
//                   attributes leaks; queries are cheapest.
//
// Every structural step is LWT-gated like SplitPack (paper Figure 6): leaves
// are inserted before the root manifest commits, the manifest commits before
// buffers truncate, and each write is conditioned on the envelope hash it was
// computed from. A crash between steps leaves duplicate (attr, pk) entries —
// never a lost one — and queries tolerate duplicates by construction.
//
// Correctness does not rest on the index alone: index entries are written
// BEFORE the primary row (index-first maintenance), so the index is always a
// superset of live rows, and GetRangeByValue re-verifies every candidate
// against the primary table. Stale entries (deleted rows, rewritten
// attributes) are filtered at read time, never trusted.

#ifndef MINICRYPT_SRC_INDEX_SECONDARY_INDEX_H_
#define MINICRYPT_SRC_INDEX_SECONDARY_INDEX_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/options.h"
#include "src/core/pack.h"
#include "src/core/pack_crypter.h"
#include "src/core/pack_io.h"
#include "src/crypto/crypto.h"
#include "src/crypto/ope.h"
#include "src/index/indexed_value.h"
#include "src/kvstore/cluster.h"

namespace minicrypt {

// Per-column order leakage level (EncDBDB's framing; docs/INDEXING.md).
enum class IndexLeakage { kNoOrder = 0, kQueriedOrder = 1, kTotalOrder = 2 };

std::string_view IndexLeakageName(IndexLeakage leakage);

struct SecondaryIndexOptions {
  std::string name = "attr";
  IndexLeakage leakage = IndexLeakage::kQueriedOrder;

  // Entries per leaf pack before a drain/split cuts a new one.
  // 0 = inherit MiniCryptOptions::pack_rows.
  size_t leaf_rows = 0;

  // Active-buffer entries before it is sealed into a segment.
  // 0 = derive ceil(1.5 * leaf_rows), mirroring EffectiveMaxKeys.
  size_t buffer_seal_rows = 0;
};

struct SecondaryIndexStats {
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> lookups{0};
  std::atomic<uint64_t> drains{0};           // lazy sorts that committed a manifest
  std::atomic<uint64_t> drained_entries{0};  // entries moved buffer -> leaves
  std::atomic<uint64_t> buffer_seals{0};
  std::atomic<uint64_t> leaf_splits{0};      // kTotalOrder oversize splits
  std::atomic<uint64_t> stale_filtered{0};   // candidates rejected by verification
  std::atomic<uint64_t> retries{0};          // extra RMW attempts, any cause
};

// Fixed row addresses inside the backing table (exposed for tests that audit
// server-visible state directly).
inline constexpr std::string_view kIndexBufferPartition = "ib";
inline constexpr std::string_view kIndexRootPartition = "ir";
inline constexpr std::string_view kIndexLeafPartition = "il";
inline constexpr std::string_view kIndexBufferRow = "buf";
inline constexpr std::string_view kIndexRootRow = "root";
inline constexpr std::string_view kIndexSegmentPrefix = "s";

class SecondaryIndex {
 public:
  // `cluster` outlives the index. `key` is the customer key; independent
  // subkeys are derived for index packs and the index OPE, so the primary
  // table's ciphertexts and the index's share nothing.
  SecondaryIndex(Cluster* cluster, const MiniCryptOptions& options, const SymmetricKey& key,
                 SecondaryIndexOptions iopts);

  // Creates the backing table (idempotent; any client may call it).
  Status CreateBacking();

  // Inserts (attr, pk). Buffered levels append to the active buffer pack
  // (sealing it into a segment on overflow); kTotalOrder routes by OPE floor
  // directly into a sorted leaf, splitting oversized leaves like SplitPack.
  Status Add(uint64_t attr, uint64_t pk);

  // Bulk variant for preloads: writes segments (buffered levels) or sorted
  // leaves (kTotalOrder) wholesale. Assumes no concurrent writers, exactly
  // like GenericClient::BulkLoad.
  Status BulkAdd(std::vector<std::pair<uint64_t, uint64_t>> attr_pk);

  // Candidate primary keys whose indexed attribute may lie in [lo, hi]
  // (inclusive). Sorted, unique, and always a superset of the live matches;
  // the caller verifies candidates against the primary table. Under
  // kQueriedOrder this is where the lazy sort runs: the buffer's in-range
  // entries drain into leaves before the answer is assembled. A drain that
  // loses every LWT race (or trips an injected fault) degrades to the
  // correct-but-unsorted answer rather than failing the query.
  Result<std::vector<uint64_t>> LookupRange(uint64_t lo, uint64_t hi);

  // Number of materialized sorted regions in the root manifest (the leakage
  // audit: strictly bounded by the number of distinct queried ranges).
  // kNoOrder always reports 0; kTotalOrder reports 1 once any leaf exists.
  Result<uint64_t> SortedRegions();

  const SecondaryIndexStats& stats() const { return stats_; }

  // Verification accounting: candidates the caller rejected against the
  // primary table (deleted rows, rewritten attributes).
  void NoteStaleFiltered(uint64_t n);

  const SecondaryIndexOptions& index_options() const { return iopts_; }
  const std::string& backing_table() const { return table_; }
  const OpeCipher& ope() const { return ope_; }

  // Test hooks: abort a structural protocol at a chosen step, modelling a
  // client crash (mirrors GenericClient::SplitFailPoint). The injected-fault
  // equivalents are the kIndexSplit / kIndexPersist points of the cluster's
  // FaultInjector, drawn at the same steps.
  enum class FailPoint {
    kNone,
    kAfterLeafWrite,    // drain: leaves written, manifest not committed
    kAfterRootCommit,   // drain: manifest committed, buffers not truncated
    kAfterSegmentWrite, // seal: segment written, buffer not truncated
    kAfterRightInsert,  // kTotalOrder split: right leaf in, left not truncated
  };
  void set_fail_point(FailPoint p) { fail_point_ = p; }

 private:
  // One decoded index row fetched from the cluster: the pack plus the
  // envelope hash its rewrite must be conditioned on.
  struct IndexRow {
    std::string row_key;  // clustering key within its partition
    Pack pack;
    std::string hash;
  };

  // A materialized sorted region [lo, hi] (inclusive) and the min-attrs of
  // its leaf packs (leaf label = OPE(min_attr)).
  struct Region {
    uint64_t lo = 0;
    uint64_t hi = 0;
    std::vector<uint64_t> leaf_mins;
  };
  struct Manifest {
    std::vector<Region> regions;  // sorted by lo, pairwise disjoint
  };

  static std::string SerializeManifest(const Manifest& m);
  static Result<Manifest> ParseManifest(std::string_view bytes);

  // --- row plumbing ----------------------------------------------------------

  Result<IndexRow> ReadIndexRow(std::string_view partition, std::string_view row_key);
  // Decodes an index pack row already in hand.
  Result<IndexRow> OpenIndexRow(std::string row_key, const Row& row) const;
  // All segment rows of the buffer partition, ascending by sequence.
  Result<std::vector<IndexRow>> ReadSegments();
  // Seals `pack` and writes it at (partition, row_key): INSERT IF NOT EXISTS
  // when expected_hash is empty, UPDATE IF h = expected_hash otherwise.
  // Resolves ambiguous outcomes by re-reading and comparing plaintext.
  Status WriteIndexPack(std::string_view partition, std::string_view row_key, const Pack& pack,
                        std::string_view expected_hash);

  // Root manifest row: empty result hash means "absent".
  Result<std::pair<Manifest, std::string>> ReadManifest();
  Status WriteManifest(const Manifest& m, std::string_view expected_hash);

  // --- protocol steps ---------------------------------------------------------

  Status AddToBuffer(const std::string& entry_key);
  // Moves a full active buffer into segment `seq` and resets the buffer.
  // Converges under concurrency by unioning into an existing segment.
  Status SealBufferSegment();

  Status AddTotalOrder(uint64_t attr, const std::string& entry_key);
  Status SplitLeaf(const IndexRow& leaf);

  // Writes `pack` at (il, `label`), converging with whatever is stored there
  // by unioning entries. A label collision means another protocol instance
  // (or an earlier crashed one) owns bytes at the label — e.g. two splits
  // whose right halves start at the same attribute — and the only safe
  // outcome is the union: dropping either side could lose entries a committed
  // manifest or a truncated left leaf depends on.
  Status WriteLeafUnioning(const std::string& label, const Pack& pack);

  // The POPE lazy sort for query [lo, hi]: merge overlapping regions, write
  // the region's leaves, commit the manifest, truncate drained buffers.
  // On success *pks holds the in-range candidates. `progressed` reports
  // whether the commit landed (for retry accounting).
  Status DrainForQuery(uint64_t lo, uint64_t hi, std::vector<uint64_t>* pks);

  // Unsorted fallback: scan buffer + segments (+ referenced leaves when a
  // manifest exists) without draining. Always correct, leaks nothing new.
  Result<std::vector<uint64_t>> ScanCandidates(uint64_t lo, uint64_t hi);

  Result<std::vector<uint64_t>> LookupTotalOrder(uint64_t lo, uint64_t hi);

  size_t LeafRows() const;
  size_t BufferSealRows() const;
  void PublishSortedRegions(size_t regions);

  // Fires the injected fault point when a cluster FaultInjector is armed;
  // also honors the deterministic test FailPoint.
  bool InjectedFault(FaultPoint point, FailPoint step, std::string_view context);

  Cluster* cluster_;
  MiniCryptOptions options_;  // table renamed to the backing table
  SecondaryIndexOptions iopts_;
  std::string table_;
  PackCrypter crypter_;
  OpeCipher ope_;
  SecondaryIndexStats stats_;
  RetryBackoff retry_;  // index RMW loops spend MiniCryptOptions::max_put_retries
  std::atomic<FailPoint> fail_point_{FailPoint::kNone};
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_INDEX_SECONDARY_INDEX_H_
