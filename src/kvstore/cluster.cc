#include "src/kvstore/cluster.h"

#include <algorithm>
#include <cmath>

#include "src/kvstore/bloom.h"
#include "src/kvstore/node.h"
#include "src/obs/metrics.h"

namespace minicrypt {

namespace {

// Coordinator read latency split by consistency level. Both histograms are
// interned once; the dynamic consistency value just selects the pointer.
LatencyHistogram* ReadLatencyFor(Consistency consistency) {
  static LatencyHistogram* one = MetricsRegistry::Instance().GetHistogram("cluster.read.one");
  static LatencyHistogram* quorum =
      MetricsRegistry::Instance().GetHistogram("cluster.read.quorum");
  return consistency == Consistency::kQuorum ? quorum : one;
}

bool Contains(const std::vector<int>& ids, int id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

// True when `have` is missing a cell of `merged` or holds an older copy
// (timestamp ties with different content also repair, so the deterministic
// tie-break winner propagates).
bool RowNeedsRepair(const Row& have, const Row& merged) {
  for (const auto& [name, cell] : merged.cells) {
    auto it = have.cells.find(name);
    if (it == have.cells.end() || it->second.timestamp < cell.timestamp ||
        (it->second.timestamp == cell.timestamp && !(it->second == cell))) {
      return true;
    }
  }
  return false;
}

}  // namespace

ClusterOptions ClusterOptions::ForTest() {
  ClusterOptions o;
  o.node_count = 1;
  o.replication_factor = 1;
  o.rtt_micros = 0;
  o.replica_hop_micros = 0;
  o.lwt_extra_round_trips = 0;
  o.media = std::nullopt;
  o.block_cache_bytes = 8 * 1024 * 1024;
  o.engine.memtable_flush_bytes = 256 * 1024;
  return o;
}

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      node_down_(static_cast<size_t>(options.node_count), false),
      hints_(static_cast<size_t>(options.node_count)),
      paxos_locks_(std::make_unique<std::mutex[]>(kPaxosShards)) {
  // Thread the shared injector down to each node's durability path.
  options_.engine.fault_injector = options_.fault_injector;
  for (int i = 0; i < options_.node_count; ++i) {
    nodes_.push_back(MakeNode(i));
    ring_.AddNode(i);
    membership_[i] = MembershipState::kServing;
  }
  UpdateServingGauge();
  // Replica fan-out pool: only worth spinning up when a write actually has
  // more than one leg. replica_fanout_threads == 0 selects the synchronous
  // deterministic mode (docs/CONCURRENCY.md).
  if (options_.replica_fanout_threads > 0 && options_.replication_factor > 1) {
    Executor::Options pool;
    pool.threads = options_.replica_fanout_threads;
    pool.queue_limit =
        std::max<size_t>(64, static_cast<size_t>(options_.replica_fanout_threads) * 16);
    pool.name = "replica-fanout";
    replica_pool_ = std::make_unique<Executor>(pool);
  }
}

Cluster::~Cluster() {
  // Order matters: Async* tasks run whole pipelines (which submit replica
  // legs), so the API pool must drain before the replica pool. Both drain
  // before nodes_ is torn down, so every leg's engine pointer stays valid.
  if (async_pool_ != nullptr) {
    async_pool_->Shutdown();
  }
  if (replica_pool_ != nullptr) {
    replica_pool_->Shutdown();
  }
}

std::unique_ptr<Node> Cluster::MakeNode(int id) {
  std::unique_ptr<Media> media;
  if (options_.media.has_value()) {
    MediaProfile profile = *options_.media;
    profile.latency_scale *= options_.latency_scale;
    media = std::make_unique<SimulatedMedia>(profile, options_.clock, options_.fault_injector);
  } else {
    media = std::make_unique<NullMedia>();
  }
  return std::make_unique<Node>(id, options_.block_cache_bytes, std::move(media),
                                options_.engine);
}

Node* Cluster::NodeAt(int node) const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  if (node < 0 || static_cast<size_t>(node) >= nodes_.size()) {
    return nullptr;
  }
  return nodes_[static_cast<size_t>(node)].get();
}

std::vector<Node*> Cluster::SnapshotNodes() const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    out.push_back(node.get());
  }
  return out;
}

size_t Cluster::NodeCount() const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  return nodes_.size();
}

HashRing Cluster::RingSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  return ring_;
}

MembershipState Cluster::NodeMembership(int node) const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  auto it = membership_.find(node);
  return it == membership_.end() ? MembershipState::kRemoved : it->second;
}

std::vector<int> Cluster::ServingNodes() const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  std::vector<int> out;
  for (const auto& [id, state] : membership_) {
    if (state == MembershipState::kServing) {
      out.push_back(id);
    }
  }
  return out;
}

TopologyStatus Cluster::Topology() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  TopologyStatus out;
  if (inflight_.has_value()) {
    out.inflight = true;
    out.kind = inflight_->kind;
    out.node = inflight_->node;
    out.stage = inflight_->stage;
    out.token_moves = inflight_->token_moves;
  }
  return out;
}

std::optional<Cluster::TopologyOp> Cluster::GetInflight() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  return inflight_;
}

void Cluster::SetInflight(const std::optional<TopologyOp>& op) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_ = op;
}

void Cluster::UpdateServingGauge() {
  int64_t serving = 0;
  for (const auto& [id, state] : membership_) {
    serving += state == MembershipState::kServing ? 1 : 0;
  }
  OBS_GAUGE_SET("ring.serving_nodes", serving);
}

Status Cluster::CreateTable(std::string_view name, bool server_compression) {
  std::lock_guard<std::mutex> lock(tables_mu_);
  tables_.emplace(std::string(name), server_compression);
  return Status::Ok();
}

Status Cluster::DropTable(std::string_view name) {
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    tables_.erase(std::string(name));
  }
  for (Node* node : SnapshotNodes()) {
    node->DropTable(name);
  }
  return Status::Ok();
}

void Cluster::ChargeRtt(int round_trips) {
  const auto micros = static_cast<uint64_t>(std::llround(
      static_cast<double>(options_.rtt_micros) * round_trips * options_.latency_scale));
  if (micros > 0) {
    OBS_COUNTER_ADD("net.rtt.charged_micros", micros);
    options_.clock->SleepMicros(micros);
  }
}

void Cluster::ChargeTransfer(size_t bytes) {
  if (options_.network_bytes_per_micro <= 0) {
    return;
  }
  const auto micros = static_cast<uint64_t>(std::llround(
      static_cast<double>(bytes) / options_.network_bytes_per_micro * options_.latency_scale));
  // Count all bytes on the wire, even transfers too small to round to a
  // nonzero latency charge.
  OBS_COUNTER_ADD("net.transfer.bytes", bytes);
  if (micros > 0) {
    OBS_COUNTER_ADD("net.transfer.charged_micros", micros);
    // The link is a shared resource: each transfer books the next free
    // window of its timeline, which gives the cluster a finite aggregate
    // bandwidth. The span covers the booking and the wait for the window's
    // end (queue wait + service time), so net.transfer p99 >> the charged
    // micros means the client link is saturated.
    OBS_SPAN("net.transfer");
    link_.Occupy(options_.clock, micros);
  }
}

namespace {
// Message Write/WriteIf/Delete* match to distinguish a racing ownership flip
// (re-resolve and retry) from a genuine ambiguous-write Unavailable.
constexpr std::string_view kTopologyAbortMsg = "topology changed during write";

bool IsTopologyAbort(const Status& s) {
  return s.IsAborted() && s.message() == kTopologyAbortMsg;
}
}  // namespace

Result<Cluster::ReplicaSet> Cluster::ResolveReplicas(std::string_view table,
                                                     std::string_view partition) {
  bool server_compression = false;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) {
      return Status::InvalidArgument("no such table: " + std::string(table));
    }
    server_compression = it->second;
  }
  ReplicaSet rs;
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  // Epoch and rings are read under one shared lock; flips mutate both under
  // the exclusive lock, so the snapshot is internally consistent.
  rs.epoch = topology_epoch_.load(std::memory_order_acquire);
  const std::vector<int> ids = ring_.Replicas(partition, options_.replication_factor);
  rs.natural.reserve(ids.size());
  for (int id : ids) {
    Node* node = nodes_[static_cast<size_t>(id)].get();
    rs.natural.push_back(node);
    rs.natural_engines.push_back(node->EngineFor(table, server_compression));
  }
  if (pending_ring_.has_value()) {
    for (int id : pending_ring_->Replicas(partition, options_.replication_factor)) {
      if (std::find(ids.begin(), ids.end(), id) != ids.end()) {
        continue;
      }
      Node* node = nodes_[static_cast<size_t>(id)].get();
      rs.pending.push_back(node);
      rs.pending_engines.push_back(node->EngineFor(table, server_compression));
    }
  }
  if (rs.natural.empty()) {
    return Status::Unavailable("no replicas available");
  }
  return rs;
}

size_t Cluster::RequiredAcks(size_t replica_count, Consistency consistency) {
  return consistency == Consistency::kQuorum ? replica_count / 2 + 1 : 1;
}

Status Cluster::Write(std::string_view table, std::string_view partition,
                      std::string_view clustering, const Row& update) {
  OBS_SPAN("cluster.write");
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  MC_ASSIGN_OR_RETURN(ReplicaSet rs, ResolveReplicas(table, partition));

  // Stamp cells with a cluster-unique monotonic timestamp. The kClockSkew
  // point models a coordinator with a stale wall clock: the write is stamped
  // behind the cluster-wide counter, so it can lose LWW to an older write —
  // exactly the anomaly skew causes in Cassandra. Only plain writes skew;
  // LWT timestamps come from Paxos ballots, which the skewed clock never
  // reaches.
  Row stamped = update;
  uint64_t ts = NextTimestamp();
  FaultInjector* fi = options_.fault_injector;
  if (fi != nullptr) {
    uint64_t draw = 0;
    if (fi->Fire(FaultPoint::kClockSkew, table, &draw)) {
      const uint64_t skew = fi->ClockSkewSteps(draw);
      ts = ts > skew ? ts - skew : 1;
      OBS_COUNTER_INC("cluster.write.clock_skewed");
    }
  }
  size_t bytes = 0;
  for (auto& [name, cell] : stamped.cells) {
    cell.timestamp = ts;
    bytes += name.size() + cell.value.size();
  }
  stats_.bytes_from_client.fetch_add(bytes, std::memory_order_relaxed);

  ChargeRtt(1);
  ChargeTransfer(bytes);
  return ApplyWithTopologyRetry(table, std::move(rs), partition, clustering, stamped);
}

Status Cluster::ApplyWithTopologyRetry(std::string_view table, ReplicaSet rs,
                                       std::string_view partition, std::string_view clustering,
                                       const Row& stamped) {
  // An ownership flip between resolution and phase 1 aborts the apply before
  // any leg runs or fault point draws; re-resolve against the new topology
  // and retry. Bounded: back-to-back flips are a test-only pathology.
  for (int attempt = 0;; ++attempt) {
    const Status s = ApplyToReplicas(table, rs, partition, clustering, stamped,
                                     RequiredAcks(rs.natural_engines.size(), options_.consistency));
    if (!IsTopologyAbort(s) || attempt >= 3) {
      return s;
    }
    OBS_COUNTER_INC("ring.topology_retries");
    MC_ASSIGN_OR_RETURN(rs, ResolveReplicas(table, partition));
  }
}

Status Cluster::WriteIf(std::string_view table, std::string_view partition,
                        std::string_view clustering, const Row& update,
                        const LwtCondition& condition, Row* current) {
  OBS_SPAN("cluster.lwt");
  OBS_COUNTER_INC("cluster.lwt.attempts");
  stats_.lwt_attempts.fetch_add(1, std::memory_order_relaxed);
  MC_ASSIGN_OR_RETURN(ReplicaSet rs, ResolveReplicas(table, partition));

  // LWT costs the base round trip plus the Paxos rounds (paper §8.2: the
  // lightweight transaction "introduces further stress").
  ChargeRtt(1 + options_.lwt_extra_round_trips);

  // Serialize on the row's Paxos lock; evaluate against a QUORUM of live
  // replicas merged by timestamp and apply to all on success. Reading one
  // replica is not enough under faults: a replica that missed a write (it
  // holds a hint) would feed stale state into the condition, and a later
  // LWT could silently erase an acked write. Quorum reads intersect quorum
  // writes, so the newest acked state always participates.
  const uint64_t shard =
      Fnv1a64(EncodeRowKey(partition, clustering) + std::string(table)) % kPaxosShards;
  std::lock_guard<std::mutex> paxos(paxos_locks_[shard]);

  // A racing ownership flip aborts the commit before any replica applied it;
  // the whole round (condition read included) re-runs against the new
  // topology, still under the Paxos lock.
  for (int attempt = 0;; ++attempt) {
  const std::vector<Node*>& replicas = rs.natural;
  const std::vector<StorageEngine*>& engines = rs.natural_engines;
  FaultInjector* fi = options_.fault_injector;
  const size_t quorum = engines.size() / 2 + 1;
  const std::vector<size_t> live = LiveIndexes(replicas);
  if (live.size() < quorum) {
    OBS_COUNTER_INC("cluster.lwt.unavailable");
    return Status::Unavailable("LWT quorum unavailable: " + std::to_string(live.size()) + "/" +
                               std::to_string(engines.size()) + " replicas live");
  }
  std::optional<Row> existing;
  {
    Row merged;
    bool found = false;
    size_t votes = 0;
    for (size_t idx : live) {
      if (votes == quorum) {
        break;
      }
      if (fi != nullptr && fi->Fire(FaultPoint::kMediaReadError, table)) {
        OBS_COUNTER_INC("cluster.read.replica_errors");
        continue;
      }
      auto row = engines[idx]->Get(partition, clustering);
      if (!row.ok() && !row.status().IsNotFound()) {
        // Corruption counts as a replica-local failure: no vote, fail over.
        OBS_COUNTER_INC("cluster.read.replica_errors");
        continue;
      }
      ++votes;
      if (row.ok()) {
        merged.MergeNewer(*row);
        found = true;
      }
    }
    if (votes < quorum) {
      OBS_COUNTER_INC("cluster.lwt.unavailable");
      return Status::Unavailable("LWT condition read got " + std::to_string(votes) + "/" +
                                 std::to_string(quorum) + " quorum votes");
    }
    if (found) {
      existing = std::move(merged);
    }
  }
  bool pass = false;
  switch (condition.kind) {
    case LwtCondition::Kind::kNotExists:
      pass = !existing.has_value();
      break;
    case LwtCondition::Kind::kRowExists:
      pass = existing.has_value();
      break;
    case LwtCondition::Kind::kCellEquals: {
      if (existing.has_value()) {
        auto it = existing->cells.find(condition.column);
        pass = it != existing->cells.end() && it->second.value == condition.value;
      }
      break;
    }
  }
  if (!pass) {
    OBS_COUNTER_INC("cluster.lwt.failures");
    stats_.lwt_failures.fetch_add(1, std::memory_order_relaxed);
    if (current != nullptr) {
      *current = existing.has_value() ? *existing : Row{};
    }
    return Status::ConditionFailed();
  }

  Row stamped = update;
  const uint64_t ts = NextTimestamp();
  size_t bytes = 0;
  for (auto& [name, cell] : stamped.cells) {
    cell.timestamp = ts;
    bytes += name.size() + cell.value.size();
  }
  stats_.bytes_from_client.fetch_add(bytes, std::memory_order_relaxed);
  ChargeTransfer(bytes);
  // LWT commits require a quorum regardless of the configured plain-write
  // consistency (Cassandra's SERIAL path), or the next condition read could
  // miss this write entirely.
  const Status applied =
      ApplyToReplicas(table, rs, partition, clustering, stamped, quorum);
  if (IsTopologyAbort(applied) && attempt < 3) {
    OBS_COUNTER_INC("ring.topology_retries");
    MC_ASSIGN_OR_RETURN(rs, ResolveReplicas(table, partition));
    continue;
  }
  MC_RETURN_IF_ERROR(applied);
  if (fi != nullptr && fi->Fire(FaultPoint::kLwtAmbiguous, table)) {
    // The classic ambiguous write: the update IS applied (and durable at a
    // quorum), but the coordinator's ack is lost. Clients must re-read and
    // verify, never blind-retry.
    OBS_COUNTER_INC("cluster.lwt.ambiguous");
    return Status::Unavailable("injected: LWT applied but coordinator timed out");
  }
  return Status::Ok();
  }
}

std::vector<size_t> Cluster::LiveIndexes(const std::vector<Node*>& replicas) const {
  std::lock_guard<std::mutex> lock(down_mu_);
  std::vector<size_t> live;
  live.reserve(replicas.size());
  for (size_t i = 0; i < replicas.size(); ++i) {
    const auto node_id = static_cast<size_t>(replicas[i]->id());
    if (node_id >= node_down_.size() || !node_down_[node_id]) {
      live.push_back(i);
    }
  }
  return live;
}

Status Cluster::ReadReplicas(std::string_view table, const ReplicaSet& rs,
                             Consistency consistency,
                             const std::function<Status(StorageEngine*)>& op,
                             std::vector<size_t>* contacted) {
  const bool quorum = consistency == Consistency::kQuorum;
  const std::vector<size_t> live = LiveIndexes(rs.natural);
  if (!quorum && live.empty()) {
    return Status::Unavailable("no live replica for read");
  }
  const size_t wanted = RequiredAcks(rs.natural_engines.size(), consistency);
  const uint64_t start = quorum ? 0 : read_rr_.fetch_add(1, std::memory_order_relaxed);
  FaultInjector* fi = options_.fault_injector;
  Status last = Status::Unavailable("read failed on every live replica");
  size_t answers = 0;
  for (size_t step = 0; step < live.size() && answers < wanted; ++step) {
    const size_t i = live[(start + step) % live.size()];
    if (fi != nullptr && fi->Fire(FaultPoint::kMediaReadError, table)) {
      OBS_COUNTER_INC("cluster.read.replica_errors");
      continue;
    }
    const Status s = op(rs.natural_engines[i]);
    if (!s.ok() && !s.IsNotFound()) {
      OBS_COUNTER_INC("cluster.read.replica_errors");
      last = s;
      continue;
    }
    if (!quorum) {
      return s;
    }
    if (answers++ > 0) {
      ChargeRtt(1);  // extra replica hop under QUORUM
    }
    contacted->push_back(i);
  }
  if (!quorum) {
    return last;  // no live replica answered
  }
  if (answers < wanted) {
    OBS_COUNTER_INC("cluster.read.unavailable");
    return Status::Unavailable("quorum read got " + std::to_string(answers) + "/" +
                               std::to_string(wanted) + " answers");
  }
  return Status::Ok();
}

void Cluster::SetNodeDown(int node, bool down) {
  if (!down && NodeMembership(node) == MembershipState::kRemoved) {
    return;  // retired nodes never come back
  }
  std::lock_guard<std::mutex> lock(down_mu_);
  if (node < 0 || static_cast<size_t>(node) >= node_down_.size()) {
    return;
  }
  const bool was_down = node_down_[static_cast<size_t>(node)];
  node_down_[static_cast<size_t>(node)] = down;
  if (was_down && !down) {
    ReplayHintsLocked(node);
  }
}

bool Cluster::IsNodeDown(int node) const {
  std::lock_guard<std::mutex> lock(down_mu_);
  return node >= 0 && static_cast<size_t>(node) < node_down_.size() &&
         node_down_[static_cast<size_t>(node)];
}

size_t Cluster::PendingHints(int node) const {
  std::lock_guard<std::mutex> lock(down_mu_);
  if (node < 0 || static_cast<size_t>(node) >= hints_.size()) {
    return 0;
  }
  return hints_[static_cast<size_t>(node)].size();
}

void Cluster::ReplayHintsLocked(int node) {
  std::vector<Hint> pending;
  pending.swap(hints_[static_cast<size_t>(node)]);
  Node* target = nodes_[static_cast<size_t>(node)].get();
  for (Hint& hint : pending) {
    StorageEngine* engine = target->FindEngine(hint.table);
    if (engine == nullptr) {
      bool server_compression = false;
      {
        std::lock_guard<std::mutex> lock(tables_mu_);
        auto it = tables_.find(hint.table);
        if (it == tables_.end()) {
          continue;  // table dropped while the node was down
        }
        server_compression = it->second;
      }
      engine = target->EngineFor(hint.table, server_compression);
    }
    if (engine->Apply(hint.partition, hint.clustering, hint.update).ok()) {
      OBS_COUNTER_INC("cluster.hints.replayed");
    } else {
      // Replay can itself hit an injected durability fault; keep the hint so
      // a later replay (post-heal quiesce) delivers it. Dropping it here
      // would silently diverge the replica.
      OBS_COUNTER_INC("cluster.hints.requeued");
      hints_[static_cast<size_t>(node)].push_back(std::move(hint));
    }
  }
}

void Cluster::ChaosTick() {
  FaultInjector* fi = options_.fault_injector;
  if (fi == nullptr) {
    return;
  }
  uint64_t draw = 0;
  if (!fi->Fire(FaultPoint::kNodeFlap, {}, &draw)) {
    return;
  }
  // Flap only serving members — retired nodes are permanently down, and a
  // node mid-join/mid-leave is the topology driver's to crash (via scripted
  // faults), not the flapper's. For the default all-serving cluster the
  // candidate list is [0..n), identical to the historical behavior, so
  // seeded chaos schedules replay unchanged.
  const std::vector<int> candidates = ServingNodes();
  if (candidates.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(down_mu_);
  const auto node = static_cast<size_t>(candidates[draw % candidates.size()]);
  if (node_down_[node]) {
    node_down_[node] = false;
    OBS_COUNTER_INC("cluster.flap.up");
    ReplayHintsLocked(static_cast<int>(node));
    return;
  }
  // Never take down a majority of the serving set: quorum reads/writes must
  // stay possible or the whole run degenerates to Unavailable.
  size_t down = 0;
  for (int id : candidates) {
    down += node_down_[static_cast<size_t>(id)] ? 1 : 0;
  }
  if ((down + 1) * 2 > candidates.size()) {
    return;
  }
  node_down_[node] = true;
  OBS_COUNTER_INC("cluster.flap.down");
}

void Cluster::HealAllNodes() {
  Quiesce();  // straggler legs may still queue hints; settle them first
  // Retired nodes stay down forever; collect them before taking down_mu_
  // (lock order: ring_mu_ before down_mu_).
  std::vector<bool> removed;
  {
    std::shared_lock<std::shared_mutex> lock(ring_mu_);
    removed.resize(nodes_.size(), false);
    for (const auto& [id, state] : membership_) {
      if (state == MembershipState::kRemoved && static_cast<size_t>(id) < removed.size()) {
        removed[static_cast<size_t>(id)] = true;
      }
    }
  }
  std::lock_guard<std::mutex> lock(down_mu_);
  for (size_t node = 0; node < node_down_.size(); ++node) {
    if (node_down_[node] && !(node < removed.size() && removed[node])) {
      node_down_[node] = false;
      ReplayHintsLocked(static_cast<int>(node));
    }
  }
}

void Cluster::ReplayAllHints() {
  Quiesce();  // a leg finishing after the drain would leave a hint parked
  std::lock_guard<std::mutex> lock(down_mu_);
  for (size_t node = 0; node < hints_.size(); ++node) {
    if (!node_down_[node] && !hints_[node].empty()) {
      ReplayHintsLocked(static_cast<int>(node));
    }
  }
}

std::vector<int> Cluster::ReplicaNodesFor(std::string_view partition) const {
  std::shared_lock<std::shared_mutex> lock(ring_mu_);
  return ring_.Replicas(partition, options_.replication_factor);
}

Result<std::vector<std::pair<std::string, Row>>> Cluster::DebugPartitionRows(
    int node, std::string_view table, std::string_view partition) {
  Quiesce();  // invariant checks must never observe a mid-flight replica leg
  Node* target = NodeAt(node);
  if (target == nullptr) {
    return Status::InvalidArgument("no such node: " + std::to_string(node));
  }
  std::vector<std::pair<std::string, Row>> out;
  StorageEngine* engine = target->FindEngine(table);
  if (engine == nullptr) {
    return out;  // node never saw a write for this table
  }
  const std::string hi(64, '\xff');
  MC_RETURN_IF_ERROR(engine->Scan(partition, "", hi, 0,
                                  [&](std::string_view clustering, const Row& row) {
                                    out.emplace_back(std::string(clustering), row);
                                    return true;
                                  }));
  return out;
}

// Shared state of one write's replica legs. Owned by shared_ptr: when the
// coordinator returns on the quorum'th ack, straggler legs keep a reference
// and finish in the background (Quiesce waits for them).
struct Cluster::ReplicaFanout {
  // Per-replica plan resolved in phase 1 (under down_mu_, in replica order,
  // so fault-point ordinals are claimed deterministically per point).
  struct Plan {
    bool run_leg = false;            // false: resolved in phase 1 (down/dropped)
    bool forced_write_error = false; // injected kMediaWriteError: hint, no apply
    uint64_t delay_micros = 0;       // injected kReplicaDelay spike
  };

  std::string table;
  std::string partition;
  std::string clustering;
  Row stamped;
  std::vector<StorageEngine*> engines;
  std::vector<int> node_ids;
  std::vector<Plan> plan;

  // Completion state. `done` counts finished legs (phase-1 resolutions never
  // enter it); the coordinator waits for acks >= required or done == legs.
  std::mutex mu;
  std::condition_variable cv;
  size_t acks = 0;
  size_t done = 0;
};

Status Cluster::ApplyToReplicas(std::string_view table, const ReplicaSet& rs,
                                std::string_view partition, std::string_view clustering,
                                const Row& stamped, size_t required_acks) {
  FaultInjector* fi = options_.fault_injector;
  // Concatenate natural + pending legs. Pending endpoints (nodes gaining this
  // partition under an open topology window) raise the ack requirement by
  // their count — Cassandra's pending-endpoint rule. Any required_acks +
  // |pending| acks out of the combined set leave at least quorum(natural)
  // holders in the pre-flip replica set AND at least a quorum of the
  // post-flip set, so quorum reads intersect every acked write on both sides
  // of the flip.
  std::vector<Node*> replicas = rs.natural;
  std::vector<StorageEngine*> engines = rs.natural_engines;
  if (!rs.pending.empty()) {
    replicas.insert(replicas.end(), rs.pending.begin(), rs.pending.end());
    engines.insert(engines.end(), rs.pending_engines.begin(), rs.pending_engines.end());
    required_acks += rs.pending.size();
    OBS_COUNTER_ADD("ring.dual_apply.legs", rs.pending.size());
  }

  auto fanout = std::make_shared<ReplicaFanout>();
  fanout->table = std::string(table);
  fanout->partition = std::string(partition);
  fanout->clustering = std::string(clustering);
  fanout->stamped = stamped;
  fanout->engines = engines;
  fanout->node_ids.reserve(engines.size());
  fanout->plan.reserve(engines.size());

  // Phase 1 — plan, under down_mu_ in replica order: resolve down-ness and
  // draw the coordinator fault points (drop / delay / write-error). Drawing
  // here, before any leg runs, keeps each point's ordinal stream in replica
  // order regardless of how phase 2 interleaves.
  size_t legs = 0;
  {
    std::lock_guard<std::mutex> lock(down_mu_);
    // Validate the resolution's topology epoch under the same lock
    // CommitTopology holds while flipping ownership: a stale epoch means the
    // replica set no longer reflects the ring, so abort before any leg runs
    // or fault point draws — the caller re-resolves and retries, and the
    // fault-ordinal streams stay aligned with the retried attempt.
    if (rs.epoch != topology_epoch_.load(std::memory_order_acquire)) {
      return Status::Aborted(std::string(kTopologyAbortMsg));
    }
    OBS_COUNTER_ADD("cluster.replica.fanout", engines.size());
    for (size_t i = 0; i < engines.size(); ++i) {
      const auto node_id = static_cast<size_t>(replicas[i]->id());
      fanout->node_ids.push_back(static_cast<int>(node_id));
      ReplicaFanout::Plan plan;
      bool hint = false;
      if (node_id < node_down_.size() && node_down_[node_id]) {
        hint = true;
      } else if (fi != nullptr && fi->Fire(FaultPoint::kReplicaDrop, table)) {
        // Coordinator->replica message lost; Cassandra queues a hint exactly
        // as it does for a down node.
        OBS_COUNTER_INC("cluster.replica.dropped");
        hint = true;
      } else {
        if (fi != nullptr) {
          uint64_t draw = 0;
          if (fi->Fire(FaultPoint::kReplicaDelay, table, &draw)) {
            OBS_COUNTER_INC("cluster.replica.delayed");
            plan.delay_micros = fi->LatencySpikeMicros(draw);
            OBS_COUNTER_ADD("cluster.replica.delay_micros", plan.delay_micros);
          }
          if (fi->Fire(FaultPoint::kMediaWriteError, table)) {
            OBS_COUNTER_INC("cluster.replica.write_errors");
            plan.forced_write_error = true;
          }
        }
        plan.run_leg = true;
        ++legs;
      }
      if (hint) {
        // Hinted handoff: queue the timestamped mutation for replay.
        OBS_COUNTER_INC("cluster.hints.queued");
        hints_[node_id].push_back(
            Hint{fanout->table, fanout->partition, fanout->clustering, stamped});
      }
      fanout->plan.push_back(plan);
    }
  }

  // Phase 2 — run the legs. With a pool and more than one leg they run
  // concurrently; a full pool falls back to caller-runs (deadlock-free by
  // construction). Without a pool (RF=1 or replica_fanout_threads=0) they
  // run inline in replica order — byte-identical to the old serial path.
  if (replica_pool_ == nullptr || legs <= 1) {
    for (size_t i = 0; i < fanout->plan.size(); ++i) {
      if (fanout->plan[i].run_leg) {
        RunReplicaLeg(fanout, i);
      }
    }
  } else {
    for (size_t i = 0; i < fanout->plan.size(); ++i) {
      if (!fanout->plan[i].run_leg) {
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(quiesce_mu_);
        ++pending_legs_;
      }
      if (!replica_pool_->TrySubmit([this, fanout, i]() {
            RunReplicaLeg(fanout, i);
            FinishPendingLeg();
          })) {
        FinishPendingLeg();
        OBS_COUNTER_INC("cluster.replica.fanout.inline");
        RunReplicaLeg(fanout, i);
      }
    }
  }

  // Complete on the required_acks'th ack; stragglers finish in the
  // background holding their shared_ptr. Only when every leg has reported
  // and acks still fall short do we surface the ambiguous failure (some
  // replicas may hold the write, the rest will get it via hints).
  std::unique_lock<std::mutex> lock(fanout->mu);
  fanout->cv.wait(lock, [&]() { return fanout->acks >= required_acks || fanout->done == legs; });
  if (fanout->acks >= required_acks) {
    return Status::Ok();
  }
  OBS_COUNTER_INC("cluster.write.underacked");
  return Status::Unavailable("write acked by " + std::to_string(fanout->acks) + "/" +
                             std::to_string(required_acks) + " required replicas");
}

void Cluster::RunReplicaLeg(const std::shared_ptr<ReplicaFanout>& fanout, size_t i) {
  const ReplicaFanout::Plan& plan = fanout->plan[i];
  const auto node_id = static_cast<size_t>(fanout->node_ids[i]);
  if (plan.delay_micros > 0) {
    options_.clock->SleepMicros(plan.delay_micros);
  }
  bool ack = false;
  bool hint = false;
  if (plan.forced_write_error) {
    hint = true;
  } else {
    // Re-check down-ness: CrashNode marks the node down (under down_mu_)
    // before tearing its engines down, so a leg planned earlier must divert
    // to a hint rather than touch a dying engine.
    bool down_now = false;
    {
      std::lock_guard<std::mutex> lock(down_mu_);
      down_now = node_id < node_down_.size() && node_down_[node_id];
    }
    if (down_now) {
      hint = true;
    } else {
      if (fanout->engines[i]->Apply(fanout->partition, fanout->clustering, fanout->stamped)
              .ok()) {
        ack = true;
      } else {
        // Commit-log (fsync) failure: the replica rejected the mutation;
        // park it as a hint like a transient outage.
        OBS_COUNTER_INC("cluster.replica.apply_errors");
        hint = true;
      }
    }
  }
  if (hint) {
    std::lock_guard<std::mutex> lock(down_mu_);
    OBS_COUNTER_INC("cluster.hints.queued");
    hints_[node_id].push_back(
        Hint{fanout->table, fanout->partition, fanout->clustering, fanout->stamped});
  }
  {
    std::lock_guard<std::mutex> lock(fanout->mu);
    if (ack) {
      ++fanout->acks;
    }
    ++fanout->done;
  }
  fanout->cv.notify_all();
}

void Cluster::FinishPendingLeg() {
  std::lock_guard<std::mutex> lock(quiesce_mu_);
  if (--pending_legs_ == 0) {
    quiesce_cv_.notify_all();
  }
}

void Cluster::Quiesce() {
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  quiesce_cv_.wait(lock, [this]() { return pending_legs_ == 0; });
}

// --- Elastic topology --------------------------------------------------------

Status Cluster::PersistMembership(const std::string& context) {
  FaultInjector* fi = options_.fault_injector;
  if (fi != nullptr && fi->Fire(FaultPoint::kTopologyPersist, context)) {
    OBS_COUNTER_INC("ring.persist_failures");
    return Status::Unavailable("injected: membership persist failed: " + context);
  }
  OBS_COUNTER_INC("ring.persists");
  return Status::Ok();
}

void Cluster::CommitTopology(const std::function<void()>& fn) {
  std::unique_lock<std::shared_mutex> ring_lock(ring_mu_);
  std::lock_guard<std::mutex> down_lock(down_mu_);
  fn();
  topology_epoch_.fetch_add(1, std::memory_order_release);
}

Result<std::map<int, size_t>> Cluster::CopyRows(const std::string& table,
                                                const CopyTargets& targets, int skip_source,
                                                const QuarantinedRange* range) {
  bool server_compression = false;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) {
      return Status::InvalidArgument("no such table: " + table);
    }
    server_compression = it->second;
  }
  HashRing natural;
  std::optional<HashRing> pending;
  {
    std::shared_lock<std::shared_mutex> lock(ring_mu_);
    natural = ring_;
    pending = pending_ring_;
  }
  std::vector<int> sources = natural.node_ids();
  std::sort(sources.begin(), sources.end());
  const int rf = options_.replication_factor;

  // Each partition's owners and targets, resolved once.
  struct Plan {
    std::vector<int> owners;
    std::vector<int> targets;
  };
  std::map<std::string, Plan, std::less<>> plans;
  // Encoded key -> the owners' merged row and its partition's plan.
  struct Copy {
    const Plan* plan = nullptr;
    Row row;
  };
  std::map<std::string, Copy> merged;
  // Scanned target -> the rows it already holds of the partitions it receives.
  std::map<int, std::map<std::string, Row>> held;
  const std::string lo = range == nullptr ? "" : range->smallest;
  const std::string hi = range == nullptr ? std::string(96, '\xff') : range->largest;
  for (int src : sources) {
    if (src == skip_source || IsNodeDown(src)) {
      continue;  // the other owners cover its rows (RF-fold redundancy)
    }
    Node* node = NodeAt(src);
    StorageEngine* engine = node == nullptr ? nullptr : node->FindEngine(table);
    if (engine == nullptr) {
      continue;  // replica never saw a write for this table
    }
    // Raw rows: timestamps, tombstones and partition-tombstone markers
    // included, or a missed tombstone would resurrect deleted data.
    (void)engine->ScanEncodedForRepair(lo, hi, [&](std::string_view key, const Row& row) {
      auto decoded = DecodeRowKey(key);
      if (!decoded.ok()) {
        return;
      }
      auto it = plans.find(decoded->partition);
      if (it == plans.end()) {
        Plan plan;
        plan.owners = natural.Replicas(decoded->partition, rf);
        plan.targets = targets(plan.owners, pending.has_value()
                                                ? pending->Replicas(decoded->partition, rf)
                                                : std::vector<int>{});
        it = plans.emplace(std::string(decoded->partition), std::move(plan)).first;
      }
      const Plan& plan = it->second;
      if (plan.targets.empty()) {
        return;
      }
      if (Contains(plan.owners, src)) {
        Copy& copy = merged[std::string(key)];
        copy.plan = &plan;
        copy.row.MergeNewer(row);
      }
      if (Contains(plan.targets, src)) {
        held[src].emplace(std::string(key), row);
      }
    });
  }

  // Target -> the merged rows it receives, in key order.
  std::map<int, std::vector<const std::pair<const std::string, Copy>*>> outbound;
  for (const auto& entry : merged) {
    for (int target : entry.second.plan->targets) {
      outbound[target].push_back(&entry);
    }
  }
  std::map<int, size_t> copied;
  for (const auto& [target, entries] : outbound) {
    const auto have = held.find(target);
    StorageEngine* engine = nullptr;
    for (const auto* entry : entries) {
      const std::string& key = entry->first;
      const Row& row = entry->second.row;
      if (have != held.end()) {
        auto it = have->second.find(key);
        if (it != have->second.end() && !RowNeedsRepair(it->second, row)) {
          continue;
        }
      }
      if (engine == nullptr) {
        if (IsNodeDown(target)) {
          return Status::Unavailable("copy target node " + std::to_string(target) + " is down");
        }
        Node* node = NodeAt(target);
        if (node == nullptr) {
          return Status::InvalidArgument("copy target node missing: " + std::to_string(target));
        }
        engine = node->EngineFor(table, server_compression);
        copied[target] = 0;
      }
      if (engine->ApplyEncoded(key, row).ok()) {
        ++copied[target];
      }
    }
  }
  return copied;
}

Status Cluster::StreamAndFlip(const std::string& flip_context, int node,
                              MembershipState flipped) {
  // topology_mu_, held by every caller, keeps the window open until the flip
  // below.
  std::vector<std::string> tables;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (const auto& [name, compression] : tables_) {
      tables.push_back(name);
    }
  }
  FaultInjector* fi = options_.fault_injector;
  for (const std::string& table : tables) {
    if (fi != nullptr && fi->Fire(FaultPoint::kStreamInterrupt, "table=" + table)) {
      // Session torn mid-transfer. Rows already applied are harmless (LWW
      // re-application is idempotent); the caller's stage is unchanged, so
      // ResumeTopology re-streams from scratch.
      OBS_COUNTER_INC("stream.interrupted");
      return Status::Unavailable("injected: stream interrupted on table " + table);
    }
    OBS_COUNTER_INC("stream.sessions");
    // A partition's targets are its pending owners that do not own it yet.
    MC_ASSIGN_OR_RETURN(
        const auto copied,
        CopyRows(table, [](const std::vector<int>& owners, const std::vector<int>& pending) {
          std::vector<int> gaining;
          for (int id : pending) {
            if (!Contains(owners, id)) {
              gaining.push_back(id);
            }
          }
          return gaining;
        }));
    for (const auto& [target, rows] : copied) {
      OBS_COUNTER_ADD("stream.rows_streamed", rows);
      OBS_COUNTER_INC("stream.ranges_streamed");
    }
  }
  Quiesce();
  // Drain hints before the flip so nothing a new owner should hold is parked
  // in a queue. A hint queued after this drain is still safe: its write
  // dual-applied to the pending owners, so the acked copy count already
  // satisfies the post-flip quorum.
  ReplayAllHints();
  MC_RETURN_IF_ERROR(PersistMembership(flip_context));
  CommitTopology([&]() {
    ring_ = *pending_ring_;
    pending_ring_.reset();
    if (node >= 0) {
      membership_[node] = flipped;
      UpdateServingGauge();
    }
  });
  return Status::Ok();
}

Result<int> Cluster::BootstrapNode() {
  std::lock_guard<std::mutex> topo(topology_mu_);
  if (GetInflight().has_value()) {
    return Status::InvalidArgument("a topology change is already in flight");
  }
  const int id = static_cast<int>(NodeCount());
  MC_RETURN_IF_ERROR(PersistMembership("bootstrap plan node=" + std::to_string(id)));
  {
    // nodes_ growth holds BOTH locks, so readers holding either are safe; the
    // vector may reallocate but Node objects live behind stable unique_ptrs.
    std::unique_lock<std::shared_mutex> ring_lock(ring_mu_);
    std::lock_guard<std::mutex> down_lock(down_mu_);
    nodes_.push_back(MakeNode(id));
    node_down_.push_back(false);
    hints_.emplace_back();
    membership_[id] = MembershipState::kJoining;
  }
  SetInflight(
      TopologyOp{TopologyStatus::Kind::kBootstrap, id, TopologyStatus::Stage::kPlanned, 0});
  OBS_COUNTER_INC("ring.bootstraps.started");
  MC_RETURN_IF_ERROR(RunBootstrap());
  return id;
}

Status Cluster::RunBootstrap() {
  TopologyOp op = *GetInflight();
  if (op.stage == TopologyStatus::Stage::kPlanned) {
    MC_RETURN_IF_ERROR(PersistMembership("bootstrap stream node=" + std::to_string(op.node)));
    CommitTopology([&]() {
      HashRing next = ring_;
      next.AddNodeWithTokens(op.node, HashRing::PlanTokens(op.node, ring_.vnodes()));
      pending_ring_ = std::move(next);
      membership_[op.node] = MembershipState::kStreaming;
    });
    op.stage = TopologyStatus::Stage::kStreaming;
    SetInflight(op);
    // Writes resolved before the window opened either already fanned out
    // (their acks satisfy the pre-window quorum, which post-flip quorums
    // intersect) or abort on the epoch check and retry with dual-apply.
    Quiesce();
  }
  if (IsNodeDown(op.node)) {
    return Status::Unavailable("bootstrap target node " + std::to_string(op.node) +
                               " is down; restart it and resume");
  }
  MC_RETURN_IF_ERROR(StreamAndFlip("bootstrap flip node=" + std::to_string(op.node), op.node,
                                   MembershipState::kServing));
  SetInflight(std::nullopt);
  OBS_COUNTER_INC("ring.bootstraps");
  return Status::Ok();
}

Status Cluster::DecommissionNode(int node) {
  std::lock_guard<std::mutex> topo(topology_mu_);
  if (GetInflight().has_value()) {
    return Status::InvalidArgument("a topology change is already in flight");
  }
  if (NodeMembership(node) != MembershipState::kServing) {
    return Status::InvalidArgument("node " + std::to_string(node) + " is not serving");
  }
  if (IsNodeDown(node)) {
    return Status::Unavailable("cannot decommission node " + std::to_string(node) +
                               " while down");
  }
  if (ServingNodes().size() <= static_cast<size_t>(options_.replication_factor)) {
    return Status::InvalidArgument(
        "decommission would leave fewer serving nodes than the replication factor");
  }
  MC_RETURN_IF_ERROR(PersistMembership("decommission plan node=" + std::to_string(node)));
  CommitTopology([&]() {
    HashRing next = ring_;
    next.RemoveNode(node);
    pending_ring_ = std::move(next);
    membership_[node] = MembershipState::kLeaving;
  });
  SetInflight(TopologyOp{TopologyStatus::Kind::kDecommission, node,
                         TopologyStatus::Stage::kStreaming, 0});
  OBS_COUNTER_INC("ring.decommissions.started");
  Quiesce();
  return RunDecommission();
}

Status Cluster::RunDecommission() {
  TopologyOp op = *GetInflight();
  if (op.stage != TopologyStatus::Stage::kFlipped) {
    if (IsNodeDown(op.node)) {
      return Status::Unavailable("leaving node " + std::to_string(op.node) +
                                 " is down; restart it and resume, or cancel");
    }
    MC_RETURN_IF_ERROR(StreamAndFlip("decommission flip node=" + std::to_string(op.node),
                                     op.node, MembershipState::kDrained));
    op.stage = TopologyStatus::Stage::kFlipped;
    SetInflight(op);
  }
  MC_RETURN_IF_ERROR(PersistMembership("decommission retire node=" + std::to_string(op.node)));
  {
    std::unique_lock<std::shared_mutex> ring_lock(ring_mu_);
    std::lock_guard<std::mutex> down_lock(down_mu_);
    membership_[op.node] = MembershipState::kRemoved;
    node_down_[static_cast<size_t>(op.node)] = true;  // permanently down
    hints_[static_cast<size_t>(op.node)].clear();     // will never replay
  }
  SetInflight(std::nullopt);
  OBS_COUNTER_INC("ring.decommissions");
  return Status::Ok();
}

Result<size_t> Cluster::RebalanceTokens(size_t max_moves) {
  std::lock_guard<std::mutex> topo(topology_mu_);
  if (GetInflight().has_value()) {
    return Status::InvalidArgument("a topology change is already in flight");
  }
  Quiesce();  // survey settled state, not mid-flight legs
  OBS_SPAN("ring.rebalance");

  // Survey per-partition sizes. Per node: sum across its table engines. Per
  // partition: max across replicas (converged replicas agree; max tolerates
  // a straggler that missed recent writes).
  std::map<std::string, size_t> partition_bytes;
  const std::vector<int> serving = ServingNodes();
  for (int id : serving) {
    if (IsNodeDown(id)) {
      continue;
    }
    Node* node = NodeAt(id);
    if (node == nullptr) {
      continue;
    }
    std::map<std::string, size_t> local;
    for (const auto& [table, engine] : node->Engines()) {
      std::map<std::string, size_t> sizes;
      if (engine->PartitionSizes(&sizes).ok()) {
        for (const auto& [partition, bytes] : sizes) {
          local[partition] += bytes;
        }
      }
    }
    for (const auto& [partition, bytes] : local) {
      auto& slot = partition_bytes[partition];
      slot = std::max(slot, bytes);
    }
  }
  if (partition_bytes.empty()) {
    return static_cast<size_t>(0);
  }

  const int rf = options_.replication_factor;
  const auto load_of = [&](const HashRing& ring) {
    std::map<int, size_t> load;
    for (int id : serving) {
      load[id] = 0;
    }
    for (const auto& [partition, bytes] : partition_bytes) {
      for (int id : ring.Replicas(partition, rf)) {
        load[id] += bytes;
      }
    }
    return load;
  };
  HashRing trial = RingSnapshot();
  std::map<int, size_t> load = load_of(trial);
  for (const auto& [id, bytes] : load) {
    // Dynamic metric name: the OBS_ macros cache one interned pointer per
    // call site, so per-node gauges go through the registry directly.
    if (MetricsRegistry::Instance().enabled()) {
      MetricsRegistry::Instance()
          .GetGauge("ring.node_bytes." + std::to_string(id))
          ->Set(static_cast<double>(bytes));
    }
  }

  // Greedy: move one hot-node vnode token at a time to the coldest node,
  // picking the token that minimizes the post-move maximum load; stop when
  // the spread is within 20% or no candidate move helps.
  size_t moves = 0;
  while (moves < max_moves) {
    int hot = -1;
    int cold = -1;
    size_t hot_bytes = 0;
    size_t cold_bytes = 0;
    for (const auto& [id, bytes] : load) {
      if (hot == -1 || bytes > hot_bytes) {
        hot = id;
        hot_bytes = bytes;
      }
      if (cold == -1 || bytes < cold_bytes) {
        cold = id;
        cold_bytes = bytes;
      }
    }
    if (hot == cold || hot_bytes * 5 <= cold_bytes * 6) {
      break;  // hot <= 1.2 * cold: balanced enough
    }
    uint64_t best_token = 0;
    size_t best_max = hot_bytes;
    std::map<int, size_t> best_load;
    bool found = false;
    for (uint64_t token : trial.TokensOf(hot)) {
      HashRing candidate = trial;
      if (!candidate.MoveToken(token, cold)) {
        continue;
      }
      std::map<int, size_t> cand_load = load_of(candidate);
      size_t cand_max = 0;
      for (const auto& [id, bytes] : cand_load) {
        cand_max = std::max(cand_max, bytes);
      }
      if (cand_max < best_max) {
        best_max = cand_max;
        best_token = token;
        best_load = std::move(cand_load);
        found = true;
      }
    }
    if (!found) {
      break;
    }
    trial.MoveToken(best_token, cold);
    load = std::move(best_load);
    ++moves;
  }
  if (moves == 0) {
    return static_cast<size_t>(0);
  }

  MC_RETURN_IF_ERROR(PersistMembership("rebalance plan moves=" + std::to_string(moves)));
  CommitTopology([&]() { pending_ring_ = trial; });
  SetInflight(
      TopologyOp{TopologyStatus::Kind::kRebalance, -1, TopologyStatus::Stage::kStreaming, moves});
  Quiesce();
  MC_RETURN_IF_ERROR(RunRebalance());
  return moves;
}

Status Cluster::RunRebalance() {
  const TopologyOp op = *GetInflight();
  MC_RETURN_IF_ERROR(StreamAndFlip("rebalance flip", -1, MembershipState::kServing));
  SetInflight(std::nullopt);
  OBS_COUNTER_INC("ring.rebalances");
  OBS_COUNTER_ADD("ring.tokens_moved", op.token_moves);
  return Status::Ok();
}

Status Cluster::ResumeTopology() {
  std::lock_guard<std::mutex> topo(topology_mu_);
  const std::optional<TopologyOp> op = GetInflight();
  if (!op.has_value()) {
    return Status::Ok();
  }
  OBS_COUNTER_INC("ring.topology_resumes");
  switch (op->kind) {
    case TopologyStatus::Kind::kBootstrap:
      return RunBootstrap();
    case TopologyStatus::Kind::kDecommission:
      return RunDecommission();
    case TopologyStatus::Kind::kRebalance:
      return RunRebalance();
    case TopologyStatus::Kind::kNone:
      break;
  }
  return Status::Ok();
}

Status Cluster::CancelTopology() {
  std::lock_guard<std::mutex> topo(topology_mu_);
  const std::optional<TopologyOp> op = GetInflight();
  if (!op.has_value()) {
    return Status::Ok();
  }
  if (op->stage == TopologyStatus::Stage::kFlipped) {
    return Status::InvalidArgument("ownership already flipped; resume instead");
  }
  MC_RETURN_IF_ERROR(PersistMembership("topology cancel node=" + std::to_string(op->node)));
  CommitTopology([&]() {
    pending_ring_.reset();
    if (op->kind == TopologyStatus::Kind::kBootstrap) {
      // Rows already streamed to the joining node die with it; it never
      // served a read and never counted toward a natural quorum.
      membership_[op->node] = MembershipState::kRemoved;
      node_down_[static_cast<size_t>(op->node)] = true;
      hints_[static_cast<size_t>(op->node)].clear();
      UpdateServingGauge();
    } else if (op->kind == TopologyStatus::Kind::kDecommission) {
      membership_[op->node] = MembershipState::kServing;
      UpdateServingGauge();
    }
  });
  SetInflight(std::nullopt);
  OBS_COUNTER_INC("ring.cancels");
  return Status::Ok();
}

size_t Cluster::RepairContacted(std::string_view table, const ReplicaSet& rs,
                                const std::vector<size_t>& contacted, std::string_view partition,
                                std::string_view clustering, const Row& merged) {
  size_t holders = 0;
  for (size_t idx : contacted) {
    StorageEngine* engine = rs.natural_engines[idx];
    auto have = engine->Get(partition, clustering);
    if (have.ok() && !RowNeedsRepair(*have, merged)) {
      ++holders;
      continue;
    }
    // NotFound and Corruption both fall through to the repair write: the
    // merged row lands in the memtable either way, restoring quorum
    // durability without touching the bad block.
    if (engine->Apply(partition, clustering, merged).ok()) {
      OBS_COUNTER_INC("cluster.read.repairs");
      ++holders;
    } else {
      // The replica rejected the repair (injected commit-log fault): park it
      // as a hint, like any other failed replica write.
      const auto node_id = static_cast<size_t>(rs.natural[idx]->id());
      std::lock_guard<std::mutex> lock(down_mu_);
      OBS_COUNTER_INC("cluster.hints.queued");
      hints_[node_id].push_back(
          Hint{std::string(table), std::string(partition), std::string(clustering), merged});
    }
  }
  return holders;
}

Status Cluster::CrashNode(int node) {
  Node* target = NodeAt(node);
  if (target == nullptr) {
    return Status::InvalidArgument("no such node: " + std::to_string(node));
  }
  if (NodeMembership(node) == MembershipState::kRemoved) {
    return Status::InvalidArgument("node " + std::to_string(node) + " is retired");
  }
  {
    std::lock_guard<std::mutex> lock(down_mu_);
    if (node_down_[static_cast<size_t>(node)]) {
      return Status::InvalidArgument("node " + std::to_string(node) + " is already down");
    }
    // Mark down first, under the same lock writers hold while planning:
    // every write from here on queues a hint instead of touching the dying
    // engines.
    node_down_[static_cast<size_t>(node)] = true;
  }
  // Already-planned legs re-check down-ness before applying, but a leg that
  // passed the check may still be inside the engine; wait it out so the
  // crash below never races an apply.
  Quiesce();
  OBS_COUNTER_INC("cluster.node.crashes");
  FaultInjector* fi = options_.fault_injector;
  Status first = Status::Ok();
  for (const auto& [table, engine] : target->Engines()) {
    // The kCrash draw sizes this engine's torn commit-log tail. The
    // evaluation is counted (and, under a crash-schedule rate, tripped)
    // whether or not a rate is configured, so seeded runs replay exactly.
    uint64_t draw = 0;
    if (fi != nullptr) {
      (void)fi->Fire(FaultPoint::kCrash, "node=" + std::to_string(node) + " table=" + table,
                     &draw);
    }
    const Status s = engine->Crash(draw);
    if (first.ok() && !s.ok()) {
      first = s;
    }
  }
  target->cache()->Clear();  // node RAM is gone
  return first;
}

Status Cluster::RestartNode(int node) {
  Node* target = NodeAt(node);
  if (target == nullptr) {
    return Status::InvalidArgument("no such node: " + std::to_string(node));
  }
  if (NodeMembership(node) == MembershipState::kRemoved) {
    return Status::InvalidArgument("node " + std::to_string(node) + " is retired");
  }
  Quiesce();  // no leg may race the log replay below
  Status first = Status::Ok();
  for (const auto& [table, engine] : target->Engines()) {
    const Status s = engine->RecoverFromLog();
    if (first.ok() && !s.ok()) {
      first = s;
    }
  }
  OBS_COUNTER_INC("cluster.node.restarts");
  std::lock_guard<std::mutex> lock(down_mu_);
  node_down_[static_cast<size_t>(node)] = false;
  ReplayHintsLocked(node);
  return first;
}

Result<size_t> Cluster::ScrubNode(int node) {
  Node* target = NodeAt(node);
  if (target == nullptr) {
    return Status::InvalidArgument("no such node: " + std::to_string(node));
  }
  if (IsNodeDown(node)) {
    return Status::Unavailable("cannot scrub node " + std::to_string(node) + " while down");
  }
  Quiesce();  // scrub rebuilds from peer scans; settle in-flight writes
  OBS_SPAN("cluster.scrub_node");
  // The node receives the partitions it owns or is gaining. It is no source
  // for its own rebuild: its quarantined tables still yield the rows of
  // their intact blocks, and those go with the tables.
  const auto onto_node = [node](const std::vector<int>& owners, const std::vector<int>& pending) {
    return Contains(owners, node) || Contains(pending, node) ? std::vector<int>{node}
                                                             : std::vector<int>{};
  };
  size_t blocks_rebuilt = 0;
  Status first = Status::Ok();
  for (const auto& [table, engine] : target->Engines()) {
    std::vector<QuarantinedRange> ranges;
    Status s = engine->Scrub(&ranges);
    // Rebuild each quarantined range from the other owners BEFORE dropping
    // the corrupt tables: the replica keeps answering for every row it
    // acked. A failed rebuild leaves them quarantined for the next scrub.
    for (size_t i = 0; s.ok() && i < ranges.size(); ++i) {
      auto copied = CopyRows(table, onto_node, node, &ranges[i]);
      if (!copied.ok()) {
        s = copied.status();
        break;
      }
      for (const auto& [id, rows] : *copied) {
        OBS_COUNTER_ADD("scrub.rows_restreamed", rows);
      }
      OBS_COUNTER_ADD("scrub.blocks_rebuilt", ranges[i].blocks);
      blocks_rebuilt += ranges[i].blocks;
    }
    if (!s.ok()) {
      if (first.ok()) {
        first = s;
      }
      continue;
    }
    engine->DropQuarantined();
  }
  MC_RETURN_IF_ERROR(first);
  return blocks_rebuilt;
}

Status Cluster::AntiEntropyRepair(std::string_view table) {
  Quiesce();  // compare settled replica state, not mid-flight legs
  OBS_SPAN("cluster.anti_entropy");
  MC_ASSIGN_OR_RETURN(
      const auto copied,
      CopyRows(std::string(table), [this](const std::vector<int>& owners, const std::vector<int>&) {
        std::vector<int> up;
        for (int id : owners) {
          if (!IsNodeDown(id)) {
            up.push_back(id);
          }
        }
        return up;
      }));
  for (const auto& [id, rows] : copied) {
    OBS_COUNTER_ADD("repair.rows_streamed", rows);
  }
  return Status::Ok();
}

Result<Row> Cluster::Read(std::string_view table, std::string_view partition,
                          std::string_view clustering) {
  ScopedSpan read_span(ReadLatencyFor(options_.consistency));
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  MC_ASSIGN_OR_RETURN(const ReplicaSet rs, ResolveReplicas(table, partition));
  ChargeRtt(1);

  Row merged;
  bool found = false;
  std::vector<size_t> contacted;
  const Status s = ReadReplicas(
      table, rs, options_.consistency,
      [&](StorageEngine* engine) {
        auto row = engine->Get(partition, clustering);
        if (row.ok()) {
          if (found) {
            merged.MergeNewer(*row);
          } else {
            merged = std::move(*row);
          }
          found = true;
        }
        return row.status();
      },
      &contacted);
  if (!s.ok() && !s.IsNotFound()) {
    return s;
  }
  if (found &&
      RepairContacted(table, rs, contacted, partition, clustering, merged) < contacted.size()) {
    OBS_COUNTER_INC("cluster.read.unavailable");
    return Status::Unavailable("read repair could not restore a quorum");
  }
  if (!found) {
    return Status::NotFound();
  }
  size_t bytes = 0;
  for (const auto& [name, cell] : merged.cells) {
    bytes += cell.value.size();
  }
  stats_.bytes_to_client.fetch_add(bytes, std::memory_order_relaxed);
  ChargeTransfer(bytes);
  return merged;
}

Result<std::pair<std::string, Row>> Cluster::ReadFloor(std::string_view table,
                                                       std::string_view partition,
                                                       std::string_view clustering,
                                                       std::optional<Consistency> consistency) {
  const Consistency level = consistency.value_or(options_.consistency);
  ScopedSpan read_span(ReadLatencyFor(level));
  OBS_SPAN("cluster.read_floor");
  MC_ASSIGN_OR_RETURN(auto floor, ReadFloorInternal(table, partition, clustering, level));
  size_t bytes = 0;
  for (const auto& [name, cell] : floor.second.cells) {
    bytes += cell.value.size();
  }
  stats_.bytes_to_client.fetch_add(bytes, std::memory_order_relaxed);
  ChargeTransfer(bytes);
  return floor;
}

Result<std::pair<std::string, std::string>> Cluster::ReadFloorCell(std::string_view table,
                                                                   std::string_view partition,
                                                                   std::string_view clustering,
                                                                   std::string_view column) {
  ScopedSpan read_span(ReadLatencyFor(options_.consistency));
  OBS_SPAN("cluster.read_floor.version");
  MC_ASSIGN_OR_RETURN(auto floor,
                      ReadFloorInternal(table, partition, clustering, options_.consistency));
  auto cell = floor.second.cells.find(std::string(column));
  if (cell == floor.second.cells.end() || cell->second.tombstone) {
    return Status::NotFound("floor row lacks column " + std::string(column));
  }
  // Only the floor key and the requested cell cross the wire — that is the
  // whole point of the probe.
  const size_t bytes = floor.first.size() + cell->second.value.size();
  stats_.bytes_to_client.fetch_add(bytes, std::memory_order_relaxed);
  ChargeTransfer(bytes);
  return std::make_pair(std::move(floor.first), std::move(cell->second.value));
}

Result<std::pair<std::string, Row>> Cluster::ReadFloorInternal(std::string_view table,
                                                               std::string_view partition,
                                                               std::string_view clustering,
                                                               Consistency consistency) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  MC_ASSIGN_OR_RETURN(const ReplicaSet rs, ResolveReplicas(table, partition));
  ChargeRtt(1);

  std::string floor_id;
  Row merged;
  bool found = false;
  std::vector<size_t> contacted;
  MC_RETURN_IF_ERROR(ReadReplicas(
      table, rs, consistency,
      [&](StorageEngine* engine) {
        auto result = engine->Floor(partition, clustering);
        if (result.ok() && (!found || result->first > floor_id)) {
          floor_id = std::move(result->first);
          merged = std::move(result->second);
          found = true;
        }
        return result.status();
      },
      &contacted));  // CL=ONE: NotFound propagates as NotFound
  if (!found) {
    return Status::NotFound();
  }
  if (!contacted.empty()) {
    // QUORUM: per-replica floors can disagree when a replica missed the
    // insert of a newer pack (it still holds a hint). Take the largest floor
    // across the quorum, merge that row across the contacted replicas, and
    // read-repair the stale ones — a floor that silently fell back to an
    // older pack would route the client to stale data.
    merged = Row{};
    for (size_t idx : contacted) {
      auto row = rs.natural_engines[idx]->Get(partition, floor_id);
      if (row.ok()) {
        merged.MergeNewer(*row);
      }
      // NotFound (stale replica) and Corruption both contribute nothing;
      // RepairContacted below restores them from the merged copy.
    }
    if (RepairContacted(table, rs, contacted, partition, floor_id, merged) < contacted.size()) {
      OBS_COUNTER_INC("cluster.read.unavailable");
      return Status::Unavailable("floor read repair could not restore a quorum");
    }
  }
  return std::make_pair(std::move(floor_id), std::move(merged));
}

Result<std::vector<std::pair<std::string, Row>>> Cluster::ReadRange(
    std::string_view table, std::string_view partition, std::string_view lo,
    std::string_view hi, size_t limit, std::optional<Consistency> consistency) {
  OBS_SPAN("cluster.read_range");
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  MC_ASSIGN_OR_RETURN(const ReplicaSet rs, ResolveReplicas(table, partition));
  ChargeRtt(1);

  // QUORUM unions the contacted scans, merging rows per clustering key, then
  // read-repairs the contacted replicas so everything returned is durable on
  // a quorum (same rationale as Read/ReadFloor). CL=ONE returns one
  // replica's scan as is.
  const Consistency level = consistency.value_or(options_.consistency);
  const bool quorum = level == Consistency::kQuorum;
  std::vector<std::pair<std::string, Row>> out;
  std::map<std::string, Row> merged;
  std::vector<size_t> contacted;
  MC_RETURN_IF_ERROR(ReadReplicas(
      table, rs, level,
      [&](StorageEngine* engine) {
        if (quorum) {
          // A scan that fails midway gives no answer, but the rows it merged
          // are still valid LWW inputs.
          return engine->Scan(partition, lo, hi, limit, [&](std::string_view c, const Row& row) {
            merged[std::string(c)].MergeNewer(row);
            return true;
          });
        }
        std::vector<std::pair<std::string, Row>> rows;
        const Status scan = engine->Scan(
            partition, lo, hi, limit, [&](std::string_view clustering, const Row& row) {
              rows.emplace_back(std::string(clustering), row);
              return true;
            });
        if (scan.ok()) {
          out = std::move(rows);
        }
        return scan;
      },
      &contacted));
  for (auto& [clustering, row] : merged) {
    if (RepairContacted(table, rs, contacted, partition, clustering, row) < contacted.size()) {
      OBS_COUNTER_INC("cluster.read.unavailable");
      return Status::Unavailable("range read repair could not restore a quorum");
    }
    out.emplace_back(clustering, std::move(row));
    if (limit != 0 && out.size() == limit) {
      break;
    }
  }
  size_t bytes = 0;
  for (const auto& [clustering, row] : out) {
    for (const auto& [name, cell] : row.cells) {
      bytes += cell.value.size();
    }
  }
  stats_.bytes_to_client.fetch_add(bytes, std::memory_order_relaxed);
  ChargeTransfer(bytes);
  return out;
}

Status Cluster::DeletePartition(std::string_view table, std::string_view partition) {
  return DeleteRow(table, partition, "", {std::string(kPartitionTombstoneColumn)});
}

Status Cluster::DeleteRow(std::string_view table, std::string_view partition,
                          std::string_view clustering, const std::vector<std::string>& columns) {
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  MC_ASSIGN_OR_RETURN(ReplicaSet rs, ResolveReplicas(table, partition));
  ChargeRtt(1);
  Row tombstones;
  const uint64_t ts = NextTimestamp();
  for (const auto& column : columns) {
    tombstones.cells[column] = Cell{"", ts, true};
  }
  return ApplyWithTopologyRetry(table, std::move(rs), partition, clustering, tombstones);
}

size_t Cluster::TableAtRestBytes(std::string_view table) {
  size_t bytes = 0;
  StorageEngine* engine = NodeAt(0)->FindEngine(table);
  if (engine != nullptr) {
    bytes = engine->AtRestBytes() + engine->MemtableBytes();
  }
  return bytes;
}

BlockCacheStats Cluster::CacheStats() const {
  BlockCacheStats out;
  for (Node* node : SnapshotNodes()) {
    const BlockCacheStats s = node->cache()->Stats();
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.bytes_used += s.bytes_used;
  }
  return out;
}

const MediaStats* Cluster::NodeMediaStats(int node) const {
  Node* target = NodeAt(node);
  return target == nullptr ? nullptr : &target->media()->stats();
}

Status Cluster::FlushAll() {
  Quiesce();  // flush everything, including writes whose legs are in flight
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (const auto& [name, compression] : tables_) {
      names.push_back(name);
    }
  }
  for (Node* node : SnapshotNodes()) {
    for (const auto& name : names) {
      StorageEngine* engine = node->FindEngine(name);
      if (engine != nullptr) {
        MC_RETURN_IF_ERROR(engine->Flush());
      }
    }
  }
  return Status::Ok();
}

void Cluster::WarmCaches(std::string_view table) {
  // Reads round-robin across replicas, so every replica's hot set is the full
  // table: warm everything everywhere (the mirrored-cache model — effective
  // cluster memory equals ONE node's cache, as with real RF=N replication).
  for (Node* node : SnapshotNodes()) {
    StorageEngine* engine = node->FindEngine(table);
    if (engine != nullptr) {
      engine->WarmCache();
    }
  }
}

Executor* Cluster::EnsureAsyncPool() {
  std::lock_guard<std::mutex> lock(async_pool_mu_);
  if (async_pool_ == nullptr) {
    Executor::Options pool;
    pool.threads = std::max(1, options_.async_api_threads);
    pool.queue_limit = std::max<size_t>(1, options_.async_queue_limit);
    pool.name = "cluster-async";
    async_pool_ = std::make_unique<Executor>(pool);
  }
  return async_pool_.get();
}

namespace {

// Export the pool's instantaneous shape as gauges. Set at submit and at
// completion (not via RegisterDerivedGauge: the registry outlives any one
// Cluster, and a derived gauge would dangle after the cluster dies).
void SetAsyncGauges(const Executor* pool) {
  OBS_GAUGE_SET("cluster.async.queue_depth", static_cast<int64_t>(pool->QueueDepth()));
  OBS_GAUGE_SET("cluster.async.inflight", static_cast<int64_t>(pool->InFlight()));
}

// Body of the callback Async* entry points: runs `op` on the async pool and
// hands its result to `done`, or calls `done` inline with Unavailable when
// the bounded queue is full.
template <typename R>
void SubmitAsync(Executor* pool, std::function<R()> op, std::function<void(R)> done) {
  // The callback lives in a shared_ptr so a rejected TrySubmit (which
  // destroys the task lambda) cannot destroy it before we invoke it.
  auto cb = std::make_shared<std::function<void(R)>>(std::move(done));
  OBS_COUNTER_INC("cluster.async.submitted");
  const bool admitted = pool->TrySubmit([pool, cb, op = std::move(op)]() {
    R result = op();
    OBS_COUNTER_INC("cluster.async.completed");
    SetAsyncGauges(pool);
    (*cb)(std::move(result));
  });
  SetAsyncGauges(pool);
  if (!admitted) {
    OBS_COUNTER_INC("cluster.async.rejected");
    (*cb)(Status::Unavailable("async pipeline at capacity"));
  }
}

// Body of the future overloads: starts the callback entry point through
// `submit` with a callback that fulfils the returned future.
template <typename R, typename Submit>
std::future<R> ViaPromise(Submit submit) {
  auto promise = std::make_shared<std::promise<R>>();
  std::future<R> future = promise->get_future();
  submit([promise](R r) { promise->set_value(std::move(r)); });
  return future;
}

}  // namespace

void Cluster::AsyncMutate(std::string_view table, std::string_view partition,
                          std::string_view clustering, const Row& update, WriteCallback done) {
  SubmitAsync<Status>(
      EnsureAsyncPool(),
      [this, table = std::string(table), partition = std::string(partition),
       clustering = std::string(clustering), update]() {
        return Write(table, partition, clustering, update);
      },
      std::move(done));
}

void Cluster::AsyncReadFloorCell(std::string_view table, std::string_view partition,
                                 std::string_view clustering, std::string_view column,
                                 ReadFloorCellCallback done) {
  SubmitAsync<Result<std::pair<std::string, std::string>>>(
      EnsureAsyncPool(),
      [this, table = std::string(table), partition = std::string(partition),
       clustering = std::string(clustering), column = std::string(column)]() {
        return ReadFloorCell(table, partition, clustering, column);
      },
      std::move(done));
}

void Cluster::AsyncGetRange(std::string_view table, std::string_view partition,
                            std::string_view lo, std::string_view hi, size_t limit,
                            GetRangeCallback done) {
  SubmitAsync<Result<std::vector<std::pair<std::string, Row>>>>(
      EnsureAsyncPool(),
      [this, table = std::string(table), partition = std::string(partition),
       lo = std::string(lo), hi = std::string(hi), limit]() {
        return ReadRange(table, partition, lo, hi, limit);
      },
      std::move(done));
}

std::future<Status> Cluster::AsyncMutate(std::string_view table, std::string_view partition,
                                         std::string_view clustering, const Row& update) {
  return ViaPromise<Status>([&](WriteCallback done) {
    AsyncMutate(table, partition, clustering, update, std::move(done));
  });
}

std::future<Result<std::pair<std::string, std::string>>> Cluster::AsyncReadFloorCell(
    std::string_view table, std::string_view partition, std::string_view clustering,
    std::string_view column) {
  return ViaPromise<Result<std::pair<std::string, std::string>>>(
      [&](ReadFloorCellCallback done) {
        AsyncReadFloorCell(table, partition, clustering, column, std::move(done));
      });
}

std::future<Result<std::vector<std::pair<std::string, Row>>>> Cluster::AsyncGetRange(
    std::string_view table, std::string_view partition, std::string_view lo,
    std::string_view hi, size_t limit) {
  return ViaPromise<Result<std::vector<std::pair<std::string, Row>>>>(
      [&](GetRangeCallback done) {
        AsyncGetRange(table, partition, lo, hi, limit, std::move(done));
      });
}

void Cluster::ResetPerfCounters() {
  stats_.reads = 0;
  stats_.writes = 0;
  stats_.lwt_attempts = 0;
  stats_.lwt_failures = 0;
  stats_.bytes_to_client = 0;
  stats_.bytes_from_client = 0;
  for (Node* node : SnapshotNodes()) {
    node->media()->ResetStats();
  }
}

}  // namespace minicrypt
