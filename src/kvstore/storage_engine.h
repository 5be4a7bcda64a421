// LSM storage engine for one table replica on one node: commit log ->
// memtable -> SSTables, with size-tiered full compaction, bloom-filter
// skipping, a shared block cache, and the latency-modelled media layer.
//
// Thread-safe. Two locks, always acquired gate-then-mu (docs/CONCURRENCY.md):
//  - log_gate_ (shared_mutex): appliers hold it shared, so concurrent Apply
//    calls overlap inside the thread-safe commit log (which group-commits
//    them); flush, crash, and recovery hold it exclusive, so log Retire/
//    Crash/Recover never race an in-flight Append.
//  - mu_: serializes the memtable and sstable list. Reads take a snapshot of
//    the sstable list and the memtable under mu_ and then run lock-free
//    against immutable tables (media sleeps happen outside the mutex so
//    concurrent readers overlap on an SSD), re-taking mu_ only to read the
//    snapshot's memtable.
//
// Corruption handling: SSTable reads verify per-block CRCs (format v2). A
// read that hits a bad block returns Status::Corruption to the coordinator,
// which treats it as a replica-local failure and fails over to another
// replica — the table stays in the read set so its intact blocks (and the
// rows acked through them) keep serving. Removal is scrub's job, and it is
// ordered so no acked row ever disappears from this replica's view:
// Scrub() verifies every table and *marks* the corrupt ones, the cluster
// re-streams the marked key ranges from healthy replicas into the memtable,
// and only then DropQuarantined() takes the bad tables out of the read set.

#ifndef MINICRYPT_SRC_KVSTORE_STORAGE_ENGINE_H_
#define MINICRYPT_SRC_KVSTORE_STORAGE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/kvstore/block_cache.h"
#include "src/kvstore/commit_log.h"
#include "src/kvstore/media.h"
#include "src/kvstore/memtable.h"
#include "src/kvstore/row.h"
#include "src/kvstore/sstable.h"

namespace minicrypt {

class FaultInjector;

struct StorageEngineOptions {
  size_t memtable_flush_bytes = 4 * 1024 * 1024;
  int compaction_trigger = 8;  // full compaction when this many SSTables exist
  SstableOptions sstable;
  // Appends per fsync-equivalent (1 = every append durable before ack;
  // Cassandra's batch mode). Larger values leave an unsynced tail that a
  // crash tears — the regime the crash/recovery chaos schedule exercises.
  uint64_t commitlog_sync_every_appends = 1;
  // Base added to this engine's SSTable ids. The node's block cache is shared
  // by all of its per-table engines and keys blocks by (sstable id, block
  // index), so each engine needs a disjoint id space (the node assigns
  // ordinal << 32).
  uint64_t sstable_id_base = 0;
  // Shared fault injector (not owned; may be null). The engine hands it to
  // its commit log and SSTable builder; the Cluster copies its own injector
  // in here so every replica's durability path sees the same schedule.
  FaultInjector* fault_injector = nullptr;
};

// One quarantined-SSTable record: the key range that left the read set and
// how many blocks it held (Cluster::ScrubNode rebuilds the range from healthy
// replicas and reports scrub.blocks_rebuilt from the block count).
struct QuarantinedRange {
  std::string smallest;  // encoded row keys, inclusive
  std::string largest;
  size_t blocks = 0;
  size_t entries = 0;
};

class StorageEngine {
 public:
  // `cache` and `media` are shared across the node's engines; either may be
  // nullptr (no caching / no latency).
  StorageEngine(StorageEngineOptions options, BlockCache* cache, Media* media,
                std::unique_ptr<LogSink> log_sink);

  // --- Writes ----------------------------------------------------------------

  // Applies a cell update (LWW) to (partition, clustering).
  Status Apply(std::string_view partition, std::string_view clustering, const Row& update);

  // Applies a row at an already-encoded key, cells already timestamped. Used
  // by scrub/anti-entropy streaming, where rows arrive in at-rest form; LWW
  // merge makes re-application idempotent.
  Status ApplyEncoded(std::string_view encoded_key, const Row& row);

  // --- Reads -----------------------------------------------------------------

  // Newest visible row. NotFound when absent or fully deleted; Corruption
  // when a covering block failed its checksum (the coordinator treats that
  // as a replica-local failure and fails over).
  Result<Row> Get(std::string_view partition, std::string_view clustering);

  // Largest clustering key <= `clustering` within the partition whose row is
  // visible. Returns (clustering, row); NotFound when none.
  Result<std::pair<std::string, Row>> Floor(std::string_view partition,
                                            std::string_view clustering);

  // All visible rows with lo <= clustering <= hi, ascending. `limit` == 0
  // means unlimited.
  Status Scan(std::string_view partition, std::string_view lo, std::string_view hi,
              size_t limit,
              const std::function<bool(std::string_view clustering, const Row&)>& fn);

  // Raw merged scan over encoded keys [lo, hi] for repair streaming: no
  // tombstone filtering, cells keep their timestamps, the partition-tombstone
  // marker rows are included. Replica convergence needs the raw cells —
  // filtering would turn a tombstone into silence and resurrect deleted data
  // on the peer.
  Status ScanEncodedForRepair(std::string_view lo, std::string_view hi,
                              const std::function<void(std::string_view encoded_key,
                                                       const Row& row)>& fn);

  // --- Crash / recovery --------------------------------------------------------

  // Simulates the node process dying: the memtable vanishes and the commit
  // log loses a seeded fraction of its un-fsynced tail (`tear_draw` sizes the
  // cut; see CommitLog::Crash). The caller must Restart before serving.
  Status Crash(uint64_t tear_draw);

  // Crash recovery: replays the commit log into the memtable and truncates
  // the suspect tail so post-restart appends cannot interleave with garbage.
  Status RecoverFromLog();

  // Scrub phase 1: verifies every SSTable's checksums, marks corrupt tables
  // quarantined, and reports all currently-quarantined key ranges. Marked
  // tables keep serving reads (their bad blocks keep erroring; the
  // coordinator fails over) until DropQuarantined.
  Status Scrub(std::vector<QuarantinedRange>* out);

  // Scrub phase 2: removes every quarantined table from the read set (the
  // caller has already re-streamed the reported ranges from healthy
  // replicas). Returns how many tables were dropped.
  size_t DropQuarantined();

  // --- Maintenance -------------------------------------------------------------

  // Flushes the memtable synchronously (tests / shutdown).
  Status Flush();

  // Pushes SSTable blocks into the block cache without media charges
  // (benchmark warmup shortcut; see Sstable::WarmInto). The optional filter
  // keeps only blocks of partitions this replica serves.
  void WarmCache(const std::function<bool(std::string_view partition)>& serves_partition = {});

  // Bytes at rest across all SSTables (reported by benches as the server-side
  // footprint, i.e. what compression saved).
  size_t AtRestBytes() const;
  size_t SstableCount() const;
  size_t MemtableBytes() const;
  size_t QuarantinedCount() const;

  // Approximate live bytes per partition (key + cell payloads of the merged
  // row set). Feeds the cluster's load-aware token rebalancer and the
  // ring.node_bytes gauges; corruption on a source table degrades to the
  // rows that scanned cleanly rather than failing the survey.
  Status PartitionSizes(std::map<std::string, size_t>* out);

 private:
  // Fully merges all SSTables into one, dropping shadowed cells, cells under
  // partition tombstones, and (because this is a full merge) tombstones
  // themselves when nothing older can exist. When an input table fails its
  // checksums mid-merge the compaction is skipped, not failed — writes keep
  // flowing (the table set just grows until scrub rebuilds the bad table),
  // and the corrupt table keeps serving its intact blocks meanwhile.
  Status CompactLocked();

  Status FlushLocked();

  Status ApplyInternal(std::string_view encoded_key, const Row& update);

  // Re-checks the memtable size under the exclusive gate and flushes if still
  // over threshold (concurrent appliers race to flush; one wins, the rest
  // no-op).
  Status MaybeFlush();

  // Snapshot for lock-free reads: the table list and the memtable beside
  // it. A flush installs a fresh memtable instead of clearing this one, so a
  // read racing the flush still finds the rows moved into a table its
  // snapshot lacks. Appliers may still add to the memtable: read it under mu_.
  struct ReadSnapshot {
    std::vector<std::shared_ptr<Sstable>> tables;  // newest first
    std::shared_ptr<const Memtable> memtable;
  };
  ReadSnapshot Snapshot() const;

  // Adds `table` to the quarantine list without removing it from the read
  // set (idempotent).
  void MarkQuarantined(const std::shared_ptr<Sstable>& table);

  // Newest partition-tombstone timestamp covering `partition`.
  Result<uint64_t> PartitionTombstoneTs(std::string_view partition, const ReadSnapshot& snap);

  // Merges the row across memtable + snapshot tables; applies tombstone
  // filtering. Ok(nullopt) when invisible.
  Result<std::optional<Row>> MergedGet(std::string_view encoded_key, const ReadSnapshot& snap,
                                       uint64_t ptomb_ts);

  static void FilterRow(Row* row, uint64_t ptomb_ts);

  StorageEngineOptions options_;
  BlockCache* cache_;
  Media* media_;

  // Apply-vs-lifecycle gate; see the file comment. Lock order: gate, then mu_.
  mutable std::shared_mutex log_gate_;
  mutable std::mutex mu_;
  std::shared_ptr<Memtable> memtable_ = std::make_shared<Memtable>();
  std::vector<std::shared_ptr<Sstable>> sstables_;  // newest first
  // Corrupt tables found by Scrub, still in sstables_ until DropQuarantined.
  std::vector<std::shared_ptr<Sstable>> quarantined_;
  std::unique_ptr<CommitLog> log_;
  uint64_t next_sstable_id_ = 1;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_KVSTORE_STORAGE_ENGINE_H_
