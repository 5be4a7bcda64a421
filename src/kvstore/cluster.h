// The distributed key-value store: nodes, replication, coordinator logic,
// lightweight transactions, and the network latency model. This is the
// "unmodified key-value store" MiniCrypt layers on (paper §2.5.1): it offers
// a sorted clustering index and single-row conditional updates, nothing more.

#ifndef MINICRYPT_SRC_KVSTORE_CLUSTER_H_
#define MINICRYPT_SRC_KVSTORE_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/executor.h"
#include "src/common/status.h"
#include "src/common/thread_util.h"
#include "src/kvstore/block_cache.h"
#include "src/kvstore/fault_injector.h"
#include "src/kvstore/media.h"
#include "src/kvstore/ring.h"
#include "src/kvstore/row.h"
#include "src/kvstore/storage_engine.h"

namespace minicrypt {

enum class Consistency { kOne, kQuorum };

// Condition of a lightweight transaction (single-row "UPDATE ... IF").
struct LwtCondition {
  enum class Kind {
    kNotExists,    // INSERT ... IF NOT EXISTS
    kCellEquals,   // UPDATE ... IF column = value
    kRowExists,    // UPDATE ... IF EXISTS
  };
  Kind kind = Kind::kNotExists;
  std::string column;
  std::string value;

  static LwtCondition NotExists() { return {Kind::kNotExists, "", ""}; }
  static LwtCondition CellEquals(std::string column, std::string value) {
    return {Kind::kCellEquals, std::move(column), std::move(value)};
  }
  static LwtCondition RowExists() { return {Kind::kRowExists, "", ""}; }
};

struct ClusterOptions {
  int node_count = 3;
  int replication_factor = 3;
  Consistency consistency = Consistency::kOne;

  // Network model (all scaled by latency_scale).
  uint64_t rtt_micros = 300;          // client <-> coordinator round trip
  // Coordinator <-> replica hop. Nothing charges it: each extra replica of a
  // QUORUM read costs a full rtt_micros.
  uint64_t replica_hop_micros = 150;
  int lwt_extra_round_trips = 3;      // Paxos prepare/propose/commit overhead
  double network_bytes_per_micro = 120.0;  // ~120 MB/s client link
  double latency_scale = 1.0;

  // Per-node storage.
  StorageEngineOptions engine;
  size_t block_cache_bytes = 64 * 1024 * 1024;
  // Media factory result is owned by the node; nullptr profile = NullMedia.
  std::optional<MediaProfile> media;  // nullopt -> zero-latency NullMedia

  Clock* clock = SystemClock::Get();

  // Optional deterministic fault injector (not owned; must outlive the
  // cluster). Consulted at every fault point: replica reads/writes, media
  // latency, commit-log appends, LWT acks, node flaps, and LWW clock skew.
  FaultInjector* fault_injector = nullptr;

  // --- Async pipeline (docs/CONCURRENCY.md) ----------------------------------

  // Workers for concurrent replica fan-out: a QUORUM write issues all RF
  // replica legs at once and returns on the quorum'th ack. 0 = synchronous
  // fan-out on the coordinator thread in replica order — required for
  // seed-exact replay of engine-level fault ordinals (docs/TESTING.md).
  // The pool is only created when replication_factor > 1.
  int replica_fanout_threads = 4;

  // Workers + queue bound for the Async* entry points (AsyncMutate,
  // AsyncReadFloorCell, AsyncGetRange). The pool is created lazily on first
  // Async* call; when its queue is full, submissions complete immediately
  // with Unavailable ("async pipeline at capacity") — bounded admission is
  // the overload policy, mirroring a real coordinator shedding load.
  int async_api_threads = 8;
  size_t async_queue_limit = 4096;

  // Zero-latency, single-node profile for unit tests.
  static ClusterOptions ForTest();
};

// Per-node position in the persisted membership state machine
// (docs/ARCHITECTURE.md "Ring membership"). Forward transitions:
//   bootstrap:    kJoining -> kStreaming -> kServing
//   decommission: kServing -> kLeaving -> kDrained -> kRemoved
// Every edge is gated on a persisted record (the kTopologyPersist fault
// point), so a crash between edges resumes from the last persisted state.
enum class MembershipState {
  kServing,    // full ring member
  kJoining,    // node object exists, tokens planned, not yet streaming
  kStreaming,  // pending ring active; ranges streaming in, writes dual-applied
  kLeaving,    // pending ring active; ranges streaming out, writes dual-applied
  kDrained,    // ownership flipped away; node holds no ranges, not yet retired
  kRemoved,    // retired: permanently down, hints dropped, slot kept for id stability
};

// Introspection snapshot of the (at most one) in-flight topology change.
struct TopologyStatus {
  enum class Kind { kNone, kBootstrap, kDecommission, kRebalance };
  // Streaming stage progression; a crash at any stage resumes idempotently.
  enum class Stage { kPlanned, kStreaming, kFlipped };
  bool inflight = false;
  Kind kind = Kind::kNone;
  int node = -1;        // bootstrap/decommission subject (-1 for rebalance)
  Stage stage = Stage::kPlanned;
  size_t token_moves = 0;  // rebalance: tokens scheduled to move
};

struct ClusterStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> lwt_attempts{0};
  std::atomic<uint64_t> lwt_failures{0};
  std::atomic<uint64_t> bytes_to_client{0};
  std::atomic<uint64_t> bytes_from_client{0};
};

class Node;

// One logical table spread over the cluster. Obtained from Cluster::CreateTable.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Creates (or returns) a table. `server_compression` enables at-rest block
  // compression for this table's SSTables on every node.
  Status CreateTable(std::string_view name, bool server_compression = false);
  Status DropTable(std::string_view name);

  // --- Data path (all charge the network model) ------------------------------

  Status Write(std::string_view table, std::string_view partition,
               std::string_view clustering, const Row& update);

  // Single-row LWT: evaluates `condition` against the current row under the
  // partition's Paxos lock and applies `update` to every replica when true.
  // Returns ConditionFailed (with the current row in *current, when non-null)
  // otherwise.
  Status WriteIf(std::string_view table, std::string_view partition,
                 std::string_view clustering, const Row& update, const LwtCondition& condition,
                 Row* current = nullptr);

  Result<Row> Read(std::string_view table, std::string_view partition,
                   std::string_view clustering);

  // Largest clustering <= `clustering` (the "ORDER BY packID DESC LIMIT 1"
  // primitive). NotFound when the partition has no row at or below it.
  // `consistency` overrides the cluster's read level for this one call.
  Result<std::pair<std::string, Row>> ReadFloor(
      std::string_view table, std::string_view partition, std::string_view clustering,
      std::optional<Consistency> consistency = std::nullopt);

  // Version probe: same floor routing as ReadFloor, but ships only the named
  // column of the floor row back to the client instead of the whole row.
  // Returns (floor clustering key, cell value). Clients use this to
  // revalidate a cached pack — the "h" envelope-hash cell is ~40 bytes while
  // the envelope itself can be tens of KB. NotFound when the partition has no
  // floor row or the floor row lacks the column.
  Result<std::pair<std::string, std::string>> ReadFloorCell(std::string_view table,
                                                            std::string_view partition,
                                                            std::string_view clustering,
                                                            std::string_view column);

  // Ascending scan of lo <= clustering <= hi. limit 0 = unbounded.
  // `consistency` overrides the cluster's read level for this one call.
  Result<std::vector<std::pair<std::string, Row>>> ReadRange(
      std::string_view table, std::string_view partition, std::string_view lo,
      std::string_view hi, size_t limit = 0,
      std::optional<Consistency> consistency = std::nullopt);

  // Deletes a whole partition: a DeleteRow of the kPartitionTombstoneColumn
  // marker on the empty clustering key (row.h; models Cassandra's partition
  // delete used for APPEND-mode epoch drops).
  Status DeletePartition(std::string_view table, std::string_view partition);

  // Deletes the named cells of one row (tombstones).
  Status DeleteRow(std::string_view table, std::string_view partition,
                   std::string_view clustering, const std::vector<std::string>& columns);

  // --- Async data path ---------------------------------------------------------
  //
  // The same request pipeline as the synchronous calls, executed on the
  // cluster's coordinator pool: the callback fires exactly once, from a pool
  // thread (or inline, with Unavailable, when the bounded queue is full).
  // The synchronous methods above are the blocking equivalents — same
  // pipeline body, run on the caller's thread. See docs/CONCURRENCY.md.

  using WriteCallback = std::function<void(Status)>;
  using ReadFloorCellCallback =
      std::function<void(Result<std::pair<std::string, std::string>>)>;
  using GetRangeCallback =
      std::function<void(Result<std::vector<std::pair<std::string, Row>>>)>;

  // Async Write (LWW mutate). Callback receives the write status.
  void AsyncMutate(std::string_view table, std::string_view partition,
                   std::string_view clustering, const Row& update, WriteCallback done);

  // Async ReadFloorCell (the version-probe primitive clients poll with).
  void AsyncReadFloorCell(std::string_view table, std::string_view partition,
                          std::string_view clustering, std::string_view column,
                          ReadFloorCellCallback done);

  // Async ReadRange.
  void AsyncGetRange(std::string_view table, std::string_view partition, std::string_view lo,
                     std::string_view hi, size_t limit, GetRangeCallback done);

  // Future overloads of the same entry points.
  std::future<Status> AsyncMutate(std::string_view table, std::string_view partition,
                                  std::string_view clustering, const Row& update);
  std::future<Result<std::pair<std::string, std::string>>> AsyncReadFloorCell(
      std::string_view table, std::string_view partition, std::string_view clustering,
      std::string_view column);
  std::future<Result<std::vector<std::pair<std::string, Row>>>> AsyncGetRange(
      std::string_view table, std::string_view partition, std::string_view lo,
      std::string_view hi, size_t limit = 0);

  // Blocks until every in-flight replica leg has completed. A quorum write
  // returns on the quorum'th ack while straggler legs finish in the
  // background; audits and topology changes call this first so they never
  // observe (or mutate) mid-flight state.
  void Quiesce();

  // --- Elastic topology (docs/ARCHITECTURE.md "Ring membership") ---------------
  //
  // At most one topology change runs at a time; all three are synchronous,
  // crash-resumable (every state edge is gated on a persisted membership
  // record — the kTopologyPersist fault point), and safe under live traffic:
  // while a pending ring is active, writes dual-apply to natural + pending
  // owners with required_acks = quorum(natural) + |pending|, so no acked
  // write is orphaned by the ownership flip.

  // Adds a node online: plants its vnode tokens in a pending ring, streams
  // the ranges it will own from their current owners (ScanEncodedForRepair),
  // drains hints, then atomically flips it to serving. Returns the new node
  // id. On error the transition parks at its last persisted state; call
  // ResumeTopology to continue or CancelTopology to roll back.
  Result<int> BootstrapNode();

  // Removes a serving node online: streams the ranges other nodes gain to
  // them, flips ownership away (kDrained), then retires the node (kRemoved:
  // permanently down, hints dropped; the slot stays so node ids are stable).
  // InvalidArgument when removal would leave fewer serving nodes than the
  // replication factor.
  Status DecommissionNode(int node);

  // Load-aware rebalance: surveys per-partition sizes across serving nodes
  // (StorageEngine::PartitionSizes, exported as ring.node_bytes gauges) and
  // moves up to `max_moves` vnode tokens from hot to cold nodes through the
  // same pending-ring streaming window. Returns tokens moved (0 when the
  // ring is already balanced within 20%).
  Result<size_t> RebalanceTokens(size_t max_moves = 4);

  // Continues the in-flight topology change from its last persisted stage
  // (idempotent re-streaming; LWW makes replayed rows harmless). Ok when
  // nothing is in flight.
  Status ResumeTopology();

  // Rolls back an in-flight change that has not flipped ownership yet: the
  // pending ring is discarded; a joining node is retired, a leaving node
  // returns to serving. InvalidArgument after the flip (resume instead).
  Status CancelTopology();

  MembershipState NodeMembership(int node) const;
  std::vector<int> ServingNodes() const;
  TopologyStatus Topology() const;
  // Total node slots ever created (including retired ones).
  size_t NodeCount() const;
  // Copy of the natural ring (tests audit token ownership through this).
  HashRing RingSnapshot() const;

  // --- Fault injection / fault tolerance ---------------------------------------
  //
  // Models node outages with hinted handoff, Cassandra-style: writes while a
  // replica is down are queued as hints and replayed when it returns; reads
  // and LWTs are served by the remaining replicas. MiniCrypt inherits this
  // fault tolerance from the substrate (paper §2.5.1).

  void SetNodeDown(int node, bool down);
  bool IsNodeDown(int node) const;
  // Hints waiting for a node (introspection for tests).
  size_t PendingHints(int node) const;

  // One step of injector-driven chaos: draws the kNodeFlap point and, when it
  // fires, toggles a deterministically chosen node — never taking down a
  // majority, so quorum operations stay possible. Chaos harnesses call this
  // between operations.
  void ChaosTick();

  // Brings every node back up (replaying its hints on the way).
  void HealAllNodes();

  // --- Crash / restart / scrub / anti-entropy ----------------------------------

  // Crashes the node process: it leaves the ring (writes queue hints), its
  // memtables and block cache vanish, and each commit log loses a seeded
  // fraction of its un-fsynced tail — possibly torn mid-record. The tear
  // sizes come from the kCrash fault-point draw stream, so a crash schedule
  // replays exactly from its seed. InvalidArgument when already down.
  Status CrashNode(int node);

  // Restart after CrashNode (or any down period): replays each engine's
  // commit log (truncating the suspect tail), rejoins the ring, and drains
  // the hints that accumulated while the node was gone.
  Status RestartNode(int node);

  // Scrubs every table replica on the node: verifies all SSTable checksums,
  // re-streams the key ranges of corrupt tables from the other owners of
  // each partition the node replicates (LWW-idempotent), then drops the
  // corrupt tables from the read set. Rebuild happens *before* the drop, so
  // the replica never stops answering for rows it acked. Returns the number
  // of blocks rebuilt.
  Result<size_t> ScrubNode(int node);

  // Anti-entropy for one table: merges each partition's raw rows
  // (timestamps and tombstones included) across its up replicas and writes
  // each replica the rows it lacks or holds an older copy of. This is the
  // background convergence pass Cassandra runs as `nodetool repair`.
  Status AntiEntropyRepair(std::string_view table);

  // Drains every hint queue, including hints parked for live nodes whose
  // apply failed under injected faults. Call after healing to quiesce.
  void ReplayAllHints();

  // --- Chaos-harness introspection ---------------------------------------------

  // Node ids holding a replica of `partition` (ring order).
  std::vector<int> ReplicaNodesFor(std::string_view partition) const;

  // Every visible row of `partition` on one node's replica, bypassing the
  // coordinator (no latency charges, no failover) — invariant checks compare
  // these across replicas.
  Result<std::vector<std::pair<std::string, Row>>> DebugPartitionRows(
      int node, std::string_view table, std::string_view partition);

  // --- Introspection ----------------------------------------------------------

  const ClusterStats& stats() const { return stats_; }
  // Aggregate at-rest bytes for a table across one replica set (node 0's copy).
  size_t TableAtRestBytes(std::string_view table);
  BlockCacheStats CacheStats() const;
  const MediaStats* NodeMediaStats(int node) const;
  // Forces memtable flushes everywhere (benches call this after preload).
  Status FlushAll();
  // Warms every node's block cache with `table`'s blocks (benchmark stand-in
  // for the paper's 5-10 minute warmup runs).
  void WarmCaches(std::string_view table);
  void ResetPerfCounters();

  uint64_t NextTimestamp() { return timestamp_.fetch_add(1, std::memory_order_relaxed) + 1; }

  const ClusterOptions& options() const { return options_; }

 private:
  struct PaxosShard;
  struct ReplicaFanout;  // shared state of one write's concurrent replica legs

  // One partition's resolved write targets under the current topology: the
  // natural set (current ring) plus pending endpoints — nodes that gain the
  // partition under the in-flight topology change. `epoch` is the topology
  // epoch the resolution was taken at; ApplyToReplicas re-validates it under
  // down_mu_ and aborts (retryably) when an ownership flip raced the write.
  struct ReplicaSet {
    std::vector<Node*> natural;
    std::vector<StorageEngine*> natural_engines;
    std::vector<Node*> pending;
    std::vector<StorageEngine*> pending_engines;
    uint64_t epoch = 0;
  };

  // The one in-flight topology change (persisted alongside membership_).
  struct TopologyOp {
    TopologyStatus::Kind kind = TopologyStatus::Kind::kNone;
    int node = -1;
    TopologyStatus::Stage stage = TopologyStatus::Stage::kPlanned;
    size_t token_moves = 0;
  };

  void ChargeRtt(int round_trips);
  void ChargeTransfer(size_t bytes);

  Result<ReplicaSet> ResolveReplicas(std::string_view table, std::string_view partition);

  // nodes_ accessors that take ring_mu_ shared (the vector grows under the
  // exclusive lock during bootstrap; holding either ring_mu_ or down_mu_
  // makes reads safe — growth holds both).
  Node* NodeAt(int node) const;
  std::vector<Node*> SnapshotNodes() const;

  std::unique_ptr<Node> MakeNode(int id);

  // --- Topology internals (topology_mu_ held by all callers) -----------------

  // The persisted-membership write barrier: models committing the membership
  // record to the system table. Draws kTopologyPersist; on a trip nothing is
  // mutated and the transition cleanly aborts at its previous state.
  Status PersistMembership(const std::string& context);

  // Runs `fn` under exclusive ring_mu_ + down_mu_ and bumps the topology
  // epoch, so in-flight writes resolved against the old topology abort and
  // retry instead of landing on stale owners.
  void CommitTopology(const std::function<void()>& fn);

  // The stage drivers' shared tail: streams every table to the nodes that
  // gain partitions under pending_ring_ (CopyRows), waits out in-flight legs,
  // drains hints, persists `flip_context`, and swaps pending_ring_ in as the
  // ring, setting `node`'s membership to `flipped` (node -1: none changes).
  // Unavailable on an injected kStreamInterrupt or a down target, with the
  // caller's stage unchanged: the stream re-runs from scratch on resume.
  Status StreamAndFlip(const std::string& flip_context, int node, MembershipState flipped);

  // A partition's copy targets, given its natural replicas (`owners`, ring
  // order) and its replicas under the pending ring (empty when no window is
  // open).
  using CopyTargets = std::function<std::vector<int>(const std::vector<int>& owners,
                                                     const std::vector<int>& pending)>;

  // The one path that copies rows between replicas: topology streaming,
  // scrub rebuild and anti-entropy. Scans each up member of the natural ring
  // but `skip_source` once (ascending id) over `table`'s encoded keys in
  // `range` (whole table when null) with ScanEncodedForRepair, and merges a
  // row's copies from its partition's natural replicas only: a node that
  // lost the partition in a topology change still holds its old rows, and
  // copying those would resurrect what the owners deleted. Applies the
  // merged row to each of the partition's `targets`, in target-id then key
  // order, except where a scanned target already holds it (RowNeedsRepair);
  // a target that was not scanned receives every merged row. Returns rows
  // applied per target; Unavailable when a target with rows to receive is
  // down.
  Result<std::map<int, size_t>> CopyRows(const std::string& table, const CopyTargets& targets,
                                         int skip_source = -1,
                                         const QuarantinedRange* range = nullptr);

  // Stage drivers, resumable from the persisted op stage.
  Status RunBootstrap();
  Status RunDecommission();
  Status RunRebalance();

  std::optional<TopologyOp> GetInflight() const;
  void SetInflight(const std::optional<TopologyOp>& op);
  void UpdateServingGauge();

  // Indexes into `replicas` whose node is currently up (a snapshot; a node
  // may flap right after).
  std::vector<size_t> LiveIndexes(const std::vector<Node*>& replicas) const;

  // The replica-read driver of Read, ReadFloor* and ReadRange, over the
  // natural replicas of `rs`. `op` runs the engine read on one replica and
  // returns its status: ok and NotFound are answers; an injected media read
  // error or any other status (Corruption, a scan cut short) is a
  // replica-local failure that fails over to the next live replica, so a bad
  // block never reaches the client as data.
  //
  // CL=ONE starts at the round-robin choice among the live replicas (models
  // Cassandra's load-balancing snitch) and returns the first answer's status,
  // or the last failure when no replica answers (Unavailable when none is
  // live). A write returns on its first ack while its other legs finish in
  // the background, so that replica may not hold the caller's last write
  // yet: CL=ONE does not promise read-your-writes.
  //
  // QUORUM walks the live replicas in ring order until a quorum has
  // answered, charging one RTT for each answer after the first, and appends
  // the replicas that answered to `contacted` for the caller to merge and
  // read-repair; Unavailable when fewer answer. `contacted` stays empty at
  // CL=ONE, which repairs nothing. `consistency` is the call's level.
  Status ReadReplicas(std::string_view table, const ReplicaSet& rs, Consistency consistency,
                      const std::function<Status(StorageEngine*)>& op,
                      std::vector<size_t>* contacted);

  // Applies `update` to every live replica engine; queues hints for down or
  // failing ones. Unavailable (with hints already queued — the classic
  // ambiguous write) when fewer than `required_acks` replicas persisted it.
  //
  // Two-phase fan-out: phase 1 (under down_mu_, in replica order) resolves
  // down-ness and draws the coordinator fault points, producing a per-replica
  // plan; phase 2 runs the engine legs — concurrently on the replica pool
  // when configured, else inline in replica order. Returns on the
  // required_acks'th ack; stragglers complete in the background (Quiesce
  // waits for them).
  //
  // `required_acks` is the natural-set requirement; when the resolution
  // carries pending endpoints the effective requirement becomes
  // required_acks + |pending| with acks counted from all legs (Cassandra's
  // pending-endpoint rule), which preserves quorum intersection across the
  // ownership flip in both directions. Aborted("topology changed...") when
  // rs.epoch is stale — callers re-resolve and retry.
  Status ApplyToReplicas(std::string_view table, const ReplicaSet& rs,
                         std::string_view partition, std::string_view clustering,
                         const Row& stamped, size_t required_acks);

  // ApplyToReplicas at the plain-write consistency level (Write, DeleteRow),
  // re-resolving `rs` and retrying up to three times when an ownership flip
  // aborts the apply.
  Status ApplyWithTopologyRetry(std::string_view table, ReplicaSet rs,
                                std::string_view partition, std::string_view clustering,
                                const Row& stamped);

  // Runs replica leg `i` of a fan-out: injected delay, the engine apply,
  // hint queueing on failure, ack bookkeeping.
  void RunReplicaLeg(const std::shared_ptr<ReplicaFanout>& fanout, size_t i);

  // Marks one background leg finished and wakes Quiesce.
  void FinishPendingLeg();

  // Creates the Async* API pool on first use.
  Executor* EnsureAsyncPool();

  // Blocking read repair (Cassandra's monotonic quorum reads, standing in
  // for its Paxos round repair): writes `merged` back to each natural replica
  // in `contacted` holding an older or missing copy, queueing a hint when the
  // apply fails. Returns how many contacted replicas end up holding the
  // merged row. Quorum reads must leave every row they return durable on a
  // quorum before answering — otherwise a client verifying an ambiguous LWT
  // could ack state seen on a single replica, which a later writer reading a
  // disjoint quorum would silently overwrite.
  size_t RepairContacted(std::string_view table, const ReplicaSet& rs,
                         const std::vector<size_t>& contacted, std::string_view partition,
                         std::string_view clustering, const Row& merged);

  // Shared body of ReadFloor / ReadFloorCell: floor routing, quorum voting,
  // row merge and read repair. Charges RTTs but NOT the client transfer —
  // the public wrappers charge what they actually ship (whole row vs one
  // cell).
  Result<std::pair<std::string, Row>> ReadFloorInternal(std::string_view table,
                                                        std::string_view partition,
                                                        std::string_view clustering,
                                                        Consistency consistency);

  // Acks a write, or answers a read, needs at `consistency`.
  static size_t RequiredAcks(size_t replica_count, Consistency consistency);

  // Replays queued hints to a node; hints whose apply fails (injected
  // commit-log faults) are re-queued for the next replay.
  void ReplayHintsLocked(int node);

  ClusterOptions options_;

  // Topology state. ring_mu_ guards ring_, pending_ring_, membership_, and
  // nodes_ growth (the data path takes it shared per resolution; ownership
  // flips take it exclusive). Lock order: ring_mu_, down_mu_, Node::mu_. nodes_
  // only ever grows and retired slots stay allocated, so Node*/engine
  // pointers remain stable for in-flight legs across any topology change.
  mutable std::shared_mutex ring_mu_;
  HashRing ring_;
  std::optional<HashRing> pending_ring_;  // set while a topology window is open
  std::map<int, MembershipState> membership_;
  std::vector<std::unique_ptr<Node>> nodes_;

  // Bumped (under ring_mu_ exclusive + down_mu_) at every window open/flip/
  // cancel; writes validate their resolution epoch in ApplyToReplicas.
  std::atomic<uint64_t> topology_epoch_{0};

  // Serializes topology operations end to end (streaming included).
  std::mutex topology_mu_;
  // Guards inflight_ only, so Topology() never blocks behind a stream.
  mutable std::mutex inflight_mu_;
  std::optional<TopologyOp> inflight_;

  ClusterStats stats_;
  std::atomic<uint64_t> timestamp_{0};
  std::atomic<uint64_t> read_rr_{0};

  struct Hint {
    std::string table;
    std::string partition;
    std::string clustering;
    Row update;  // cells already timestamped
  };
  mutable std::mutex down_mu_;
  std::vector<bool> node_down_;
  std::vector<std::vector<Hint>> hints_;  // per node

  // Per-partition Paxos serialization for LWTs (global table keyed by
  // table+partition+clustering hash — collisions just over-serialize).
  static constexpr size_t kPaxosShards = 256;
  std::unique_ptr<std::mutex[]> paxos_locks_;

  // Shared client link: transfers book consecutive windows of its timeline,
  // so bulk results (range scans shipping uncompressed rows) saturate it
  // just as the paper's vanilla client saturated the real network (§8.1.2).
  ReservationTimeline link_{1};

  mutable std::mutex tables_mu_;
  std::map<std::string, bool, std::less<>> tables_;  // name -> server_compression

  // --- Async pipeline state (docs/CONCURRENCY.md) ------------------------------

  // Replica fan-out pool; null when replica_fanout_threads == 0 or RF == 1
  // (fan-out then runs inline in replica order — the deterministic mode).
  std::unique_ptr<Executor> replica_pool_;

  // Async* API pool, created lazily under async_pool_mu_.
  std::mutex async_pool_mu_;
  std::unique_ptr<Executor> async_pool_;

  // Count of replica legs still running on the pool; Quiesce waits for 0.
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;
  size_t pending_legs_ = 0;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_KVSTORE_CLUSTER_H_
