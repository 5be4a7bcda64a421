// Node-outage tests: hinted handoff and read availability while a replica is
// down, and MiniCrypt continuing to serve through the outage (the paper's
// §2.5.1 point that MiniCrypt inherits the substrate's fault tolerance).

#include <gtest/gtest.h>

#include "src/common/coding.h"
#include "src/core/generic_client.h"
#include "src/kvstore/cluster.h"
#include "src/kvstore/fault_injector.h"
#include "src/obs/metrics.h"

namespace minicrypt {
namespace {

Row ValueRow(std::string value) {
  Row row;
  row.cells["v"] = Cell{std::move(value), 0, false};
  return row;
}

ClusterOptions ThreeNodes() {
  ClusterOptions o = ClusterOptions::ForTest();
  o.node_count = 3;
  o.replication_factor = 3;
  return o;
}

TEST(FaultTolerance, ReadsServedWhileReplicaDown) {
  Cluster cluster(ThreeNodes());
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("x")).ok());
  cluster.Quiesce();  // land the background replica legs before downing a node
  cluster.SetNodeDown(1, true);
  EXPECT_TRUE(cluster.IsNodeDown(1));
  for (int i = 0; i < 9; ++i) {  // round-robin must skip the down node
    auto row = cluster.Read("t", "p", EncodeKey64(1));
    ASSERT_TRUE(row.ok()) << i;
    EXPECT_EQ(row->cells.at("v").value, "x");
  }
  cluster.SetNodeDown(1, false);
}

TEST(FaultTolerance, HintsQueuedAndReplayedOnRecovery) {
  Cluster cluster(ThreeNodes());
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  cluster.SetNodeDown(2, true);
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(k), ValueRow("during-outage")).ok());
  }
  EXPECT_EQ(cluster.PendingHints(2), 20u);
  // Node comes back; hints replay and the node serves current data again.
  cluster.SetNodeDown(2, false);
  EXPECT_EQ(cluster.PendingHints(2), 0u);
  cluster.SetNodeDown(0, true);
  cluster.SetNodeDown(1, true);  // force reads onto node 2
  for (uint64_t k = 0; k < 20; ++k) {
    auto row = cluster.Read("t", "p", EncodeKey64(k));
    ASSERT_TRUE(row.ok()) << k;
    EXPECT_EQ(row->cells.at("v").value, "during-outage");
  }
  cluster.SetNodeDown(0, false);
  cluster.SetNodeDown(1, false);
}

TEST(FaultTolerance, LwwPreservedAcrossHintReplay) {
  Cluster cluster(ThreeNodes());
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("v1")).ok());
  cluster.SetNodeDown(2, true);
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("v2-during-outage")).ok());
  cluster.SetNodeDown(2, false);
  // The replayed hint must not be shadowed nor resurrect v1 on node 2.
  cluster.SetNodeDown(0, true);
  cluster.SetNodeDown(1, true);
  auto row = cluster.Read("t", "p", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "v2-during-outage");
  cluster.SetNodeDown(0, false);
  cluster.SetNodeDown(1, false);
}

TEST(FaultTolerance, MiniCryptClientUnaffectedByOutage) {
  Cluster cluster(ThreeNodes());
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  MiniCryptOptions options;
  options.pack_rows = 8;
  GenericClient client(&cluster, options, key);
  ASSERT_TRUE(client.CreateTable().ok());
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(client.Put(k, "pre-" + std::to_string(k)).ok());
  }
  cluster.SetNodeDown(0, true);
  // All operations, including the LWT write path, keep working.
  for (uint64_t k = 0; k < 40; k += 5) {
    EXPECT_TRUE(client.Get(k).ok()) << k;
  }
  ASSERT_TRUE(client.Put(7, "updated-during-outage").ok());
  ASSERT_TRUE(client.Delete(9).ok());
  cluster.SetNodeDown(0, false);
  // Recovered node has the outage-era mutations via hints.
  cluster.SetNodeDown(1, true);
  cluster.SetNodeDown(2, true);
  auto v = client.Get(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "updated-during-outage");
  EXPECT_TRUE(client.Get(9).status().IsNotFound());
  cluster.SetNodeDown(1, false);
  cluster.SetNodeDown(2, false);
}

ClusterOptions QuorumThreeNodes() {
  ClusterOptions o = ThreeNodes();
  o.consistency = Consistency::kQuorum;
  return o;
}

TEST(FaultTolerance, HintsSurviveDownUpDownFlaps) {
  Cluster cluster(ThreeNodes());
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  cluster.SetNodeDown(2, true);
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("a")).ok());
  EXPECT_EQ(cluster.PendingHints(2), 1u);
  cluster.SetNodeDown(2, false);  // first recovery replays
  EXPECT_EQ(cluster.PendingHints(2), 0u);
  cluster.SetNodeDown(2, true);  // second outage
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(2), ValueRow("b")).ok());
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("a2")).ok());
  EXPECT_EQ(cluster.PendingHints(2), 2u);
  cluster.SetNodeDown(2, false);
  EXPECT_EQ(cluster.PendingHints(2), 0u);
  // Node 2 alone must now serve both epochs' writes.
  cluster.SetNodeDown(0, true);
  cluster.SetNodeDown(1, true);
  auto r1 = cluster.Read("t", "p", EncodeKey64(1));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->cells.at("v").value, "a2");
  auto r2 = cluster.Read("t", "p", EncodeKey64(2));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->cells.at("v").value, "b");
  cluster.SetNodeDown(0, false);
  cluster.SetNodeDown(1, false);
}

TEST(FaultTolerance, HintDrainPreservesLwwOrder) {
  Cluster cluster(ThreeNodes());
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  cluster.SetNodeDown(2, true);
  // Three stacked hints for the same row; replay must land on the newest.
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("v1")).ok());
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("v2")).ok());
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("v3")).ok());
  cluster.Quiesce();  // writes ack at quorum; the hint legs finish in background
  EXPECT_EQ(cluster.PendingHints(2), 3u);
  cluster.SetNodeDown(2, false);
  cluster.SetNodeDown(0, true);
  cluster.SetNodeDown(1, true);
  auto row = cluster.Read("t", "p", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "v3");
  cluster.SetNodeDown(0, false);
  cluster.SetNodeDown(1, false);
  // A post-recovery write must not be shadowed by anything replayed earlier.
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("v4")).ok());
  cluster.Quiesce();  // node 2's leg may still be in flight after the quorum ack
  cluster.SetNodeDown(0, true);
  cluster.SetNodeDown(1, true);
  row = cluster.Read("t", "p", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "v4");
  cluster.SetNodeDown(0, false);
  cluster.SetNodeDown(1, false);
}

TEST(FaultTolerance, QuorumAckedWriteSurvivesPermanentReplicaLoss) {
  Cluster cluster(QuorumThreeNodes());
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  // Write while node 2 is down: acked by the {0, 1} quorum, hinted to 2.
  cluster.SetNodeDown(2, true);
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("durable")).ok());
  cluster.SetNodeDown(2, false);  // hint replay catches node 2 up
  // Now lose one of the original ackers forever. The surviving quorum {1, 2}
  // must still return the write.
  cluster.SetNodeDown(0, true);
  auto row = cluster.Read("t", "p", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "durable");
}

TEST(FaultTolerance, QuorumOpsUnavailableWithMajorityDown) {
  Cluster cluster(QuorumThreeNodes());
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  cluster.SetNodeDown(1, true);
  cluster.SetNodeDown(2, true);
  // The classic ambiguous write: one replica persisted it, the coordinator
  // reports Unavailable because the quorum did not.
  const Status s = cluster.Write("t", "p", EncodeKey64(1), ValueRow("maybe"));
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_TRUE(cluster.Read("t", "p", EncodeKey64(1)).status().IsUnavailable());
  const Status lwt =
      cluster.WriteIf("t", "p", EncodeKey64(2), ValueRow("lwt"), LwtCondition::NotExists());
  EXPECT_TRUE(lwt.IsUnavailable()) << lwt.ToString();
  // Recovery drains the hints; the under-acked write converges everywhere.
  cluster.SetNodeDown(1, false);
  cluster.SetNodeDown(2, false);
  EXPECT_EQ(cluster.PendingHints(1), 0u);
  EXPECT_EQ(cluster.PendingHints(2), 0u);
  auto row = cluster.Read("t", "p", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "maybe");
}

// Regression for the ambiguous-LWT hardening (fixed injector seed): when an
// LWT applies but the coordinator reports a timeout, the client must re-read
// and verify instead of erroring out or blind-retrying. Reverting the
// re-read-and-verify path in GenericClient::TryMutate fails this test.
TEST(FaultTolerance, AmbiguousLwtPutAndDeleteAreIdempotent) {
  FaultInjector injector(0xA11CE);
  ClusterOptions copts = ThreeNodes();
  copts.fault_injector = &injector;
  Cluster cluster(copts);
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  MiniCryptOptions options;
  options.pack_rows = 8;
  options.hash_partitions = 1;
  GenericClient client(&cluster, options, key);
  ASSERT_TRUE(client.CreateTable().ok());

  // Ambiguous INSERT IF NOT EXISTS of the very first pack.
  injector.Script(FaultPoint::kLwtAmbiguous, 1);
  ASSERT_TRUE(client.Put(1, "first").ok());
  EXPECT_EQ(injector.trips(FaultPoint::kLwtAmbiguous), 1u);

  // Ambiguous conditional update of an existing pack.
  injector.Script(FaultPoint::kLwtAmbiguous, 1);
  ASSERT_TRUE(client.Put(1, "second").ok());
  EXPECT_EQ(injector.trips(FaultPoint::kLwtAmbiguous), 2u);
  cluster.Quiesce();  // converge stragglers so the one-replica probes below
                      // can't observe the pre-update pack
  auto v = client.Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "second");

  // No duplicate or resurrected rows anywhere in the keyspace.
  auto rows = client.GetRange(0, 1000);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].first, 1u);
  EXPECT_EQ((*rows)[0].second, "second");

  // Ambiguous delete: the key must stay deleted, not resurrect on retry.
  injector.Script(FaultPoint::kLwtAmbiguous, 1);
  ASSERT_TRUE(client.Delete(1).ok());
  EXPECT_EQ(injector.trips(FaultPoint::kLwtAmbiguous), 3u);
  cluster.Quiesce();
  EXPECT_TRUE(client.Get(1).status().IsNotFound());
}

// A replica that missed a write (the coordinator dropped the message and
// queued a hint) must not serve that staleness into a quorum read: the
// coordinator merges past it and synchronously writes the merged row back
// (blocking read repair). Without this, a client verifying an ambiguous LWT
// could ack a write visible on a single replica — which a later writer
// reading a disjoint quorum would silently erase. Reverting
// Cluster::RepairContacted fails the per-replica assertions below.
TEST(FaultTolerance, QuorumReadRepairsReplicaThatMissedAWrite) {
  FaultInjector injector(0xBEEF);
  ClusterOptions copts = QuorumThreeNodes();
  copts.fault_injector = &injector;
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.CreateTable("t").ok());

  // Drop the coordinator->replica message for the first replica of "p": the
  // node stays up but never sees the row; a hint is queued.
  injector.Script(FaultPoint::kReplicaDrop, 1, "t");
  Row row;
  row.cells["v"] = Cell{"val", 0, false};
  ASSERT_TRUE(cluster.WriteIf("t", "p", EncodeKey64(7), row, LwtCondition::NotExists()).ok());
  ASSERT_EQ(injector.trips(FaultPoint::kReplicaDrop), 1u);

  // One quorum floor read contacts the stale replica, merges past it, and
  // repairs it before answering.
  auto fl = cluster.ReadFloor("t", "p", EncodeKey64(9));
  ASSERT_TRUE(fl.ok()) << fl.status().ToString();
  EXPECT_EQ(fl->first, EncodeKey64(7));
  EXPECT_EQ(fl->second.cells.at("v").value, "val");

  for (int node : cluster.ReplicaNodesFor("p")) {
    auto rows = cluster.DebugPartitionRows(node, "t", "p");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    bool has = false;
    for (const auto& [id, r] : *rows) {
      auto v = r.cells.find("v");
      if (id == EncodeKey64(7) && v != r.cells.end() && v->second.value == "val") {
        has = true;
      }
    }
    EXPECT_TRUE(has) << "node " << node << " still missing the row after read repair";
  }
}

// --- Crash-restart lifecycle -------------------------------------------------

TEST(CrashRestart, QuorumAckedWritesSurviveACrashThatTearsTheLog) {
  FaultInjector injector(0xCAFE);
  injector.SetRate(FaultPoint::kCrash, 1.0);  // make CrashNode trips assertable
  ClusterOptions copts = QuorumThreeNodes();
  copts.fault_injector = &injector;
  copts.engine.commitlog_sync_every_appends = 8;  // leave an unsynced tail at risk
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(k), ValueRow("acked")).ok());
  }
  // Crash node 1: its memtable vanishes and its log loses a seeded slice of
  // the unsynced tail.
  ASSERT_TRUE(cluster.CrashNode(1).ok());
  EXPECT_TRUE(cluster.IsNodeDown(1));
  EXPECT_GE(injector.trips(FaultPoint::kCrash), 1u);
  // The two intact replicas still form a quorum for every acked write.
  for (uint64_t k = 0; k < 30; ++k) {
    auto row = cluster.Read("t", "p", EncodeKey64(k));
    ASSERT_TRUE(row.ok()) << k;
    EXPECT_EQ(row->cells.at("v").value, "acked");
  }
  ASSERT_TRUE(cluster.RestartNode(1).ok());
  EXPECT_FALSE(cluster.IsNodeDown(1));
  EXPECT_EQ(cluster.PendingHints(1), 0u);  // restart drained the hints
  // Writes during the outage were hinted; anti-entropy closes whatever the
  // torn tail lost. After repair node 1 must hold every row, verified via the
  // debug scan so no failover can mask a hole.
  ASSERT_TRUE(cluster.AntiEntropyRepair("t").ok());
  auto rows = cluster.DebugPartitionRows(1, "t", "p");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 30u);
}

TEST(CrashRestart, RestartReplaysTheCommitLogIntoTheMemtable) {
  ClusterOptions copts = ThreeNodes();  // CL=ONE, sync_every defaults to 1
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(k), ValueRow("durable")).ok());
  }
  ASSERT_TRUE(cluster.CrashNode(0).ok());
  ASSERT_TRUE(cluster.RestartNode(0).ok());
  // Every append was synced, so node 0 alone must serve all ten rows.
  auto rows = cluster.DebugPartitionRows(0, "t", "p");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
}

TEST(CrashRestart, LifecycleGuards) {
  Cluster cluster(ThreeNodes());
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  EXPECT_FALSE(cluster.CrashNode(-1).ok());
  EXPECT_FALSE(cluster.CrashNode(99).ok());
  EXPECT_FALSE(cluster.RestartNode(99).ok());
  ASSERT_TRUE(cluster.CrashNode(2).ok());
  EXPECT_FALSE(cluster.CrashNode(2).ok());  // already down
  ASSERT_TRUE(cluster.RestartNode(2).ok());
  ASSERT_TRUE(cluster.RestartNode(2).ok());  // restart of an up node is a no-op
}

// --- Corruption detection and scrub ------------------------------------------

// The acceptance property: an injected corrupted block is NEVER returned to a
// client as data. With every at-rest block corrupted on every replica, reads
// either come from memtables (correct value) or fail loudly with Corruption.
TEST(Corruption, CorruptBlocksAreNeverServedAsData) {
  FaultInjector injector(0xBAD);
  injector.SetRate(FaultPoint::kMediaCorruption, 1.0);
  ClusterOptions copts = ThreeNodes();
  copts.fault_injector = &injector;
  copts.engine.memtable_flush_bytes = 2 * 1024;  // flush often so blocks exist
  copts.engine.sstable.block_bytes = 512;
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(
        cluster.Write("t", "p", EncodeKey64(k), ValueRow("expected-" + std::to_string(k))).ok());
  }
  // CL=ONE promises no read-your-writes: land the background replica legs,
  // or a read can reach a replica that has not applied its row (NotFound).
  cluster.Quiesce();
  Counter* detected = MetricsRegistry::Instance().GetCounter("storage.corruption.detected");
  const uint64_t detected_before = detected->Value();
  int corrupt_errors = 0;
  for (uint64_t k = 0; k < 200; ++k) {
    auto row = cluster.Read("t", "p", EncodeKey64(k));
    if (row.ok()) {
      EXPECT_EQ(row->cells.at("v").value, "expected-" + std::to_string(k)) << k;
    } else {
      EXPECT_TRUE(row.status().IsCorruption()) << row.status().ToString();
      ++corrupt_errors;
    }
  }
  EXPECT_GT(corrupt_errors, 0);  // the schedule did corrupt flushed rows
  EXPECT_GT(detected->Value(), detected_before);
}

// A single corrupted block on one replica must be invisible to clients: the
// coordinator fails over to an intact replica.
TEST(Corruption, ReadsFailOverPastACorruptReplica) {
  FaultInjector injector(0x5C12);
  injector.Script(FaultPoint::kMediaCorruption, 1);  // one block, one replica
  ClusterOptions copts = ThreeNodes();
  copts.fault_injector = &injector;
  copts.engine.sstable.block_bytes = 512;
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(k), ValueRow("v" + std::to_string(k))).ok());
  }
  ASSERT_TRUE(cluster.FlushAll().ok());
  ASSERT_EQ(injector.trips(FaultPoint::kMediaCorruption), 1u);
  // Several passes so CL=ONE round-robin contacts the corrupt replica for
  // every key at least once.
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t k = 0; k < 60; ++k) {
      auto row = cluster.Read("t", "p", EncodeKey64(k));
      ASSERT_TRUE(row.ok()) << "pass " << pass << " key " << k << ": "
                            << row.status().ToString();
      EXPECT_EQ(row->cells.at("v").value, "v" + std::to_string(k));
    }
  }
}

TEST(Corruption, ScrubNodeRebuildsQuarantinedRangesFromPeers) {
  FaultInjector injector(0x5C4B);
  injector.Script(FaultPoint::kMediaCorruption, 1);
  ClusterOptions copts = ThreeNodes();
  copts.fault_injector = &injector;
  copts.engine.sstable.block_bytes = 512;
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(k), ValueRow("v" + std::to_string(k))).ok());
  }
  ASSERT_TRUE(cluster.FlushAll().ok());
  ASSERT_EQ(injector.trips(FaultPoint::kMediaCorruption), 1u);

  Counter* rebuilt = MetricsRegistry::Instance().GetCounter("scrub.blocks_rebuilt");
  const uint64_t rebuilt_before = rebuilt->Value();
  size_t total_rebuilt = 0;
  for (int node = 0; node < 3; ++node) {
    auto n = cluster.ScrubNode(node);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    total_rebuilt += *n;
  }
  EXPECT_GE(total_rebuilt, 1u);  // exactly one replica had the bad block
  EXPECT_EQ(rebuilt->Value(), rebuilt_before + total_rebuilt);

  // After scrub every replica independently holds every row with the right
  // value — the quarantined range was re-streamed before the table dropped.
  for (int node = 0; node < 3; ++node) {
    auto rows = cluster.DebugPartitionRows(node, "t", "p");
    ASSERT_TRUE(rows.ok()) << "node " << node << ": " << rows.status().ToString();
    ASSERT_EQ(rows->size(), 60u) << "node " << node;
    for (const auto& [key, row] : *rows) {
      EXPECT_EQ(row.cells.at("v").value, "v" + std::to_string(*DecodeKey64(key)));
    }
  }
  // A second scrub finds nothing to do.
  for (int node = 0; node < 3; ++node) {
    auto n = cluster.ScrubNode(node);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0u);
  }
  EXPECT_FALSE(cluster.ScrubNode(99).ok());
}

// --- Anti-entropy ------------------------------------------------------------

TEST(AntiEntropy, RepairConvergesAReplicaThatLostItsUnsyncedTail) {
  ClusterOptions copts = ThreeNodes();
  copts.engine.commitlog_sync_every_appends = 1000;  // whole log unsynced
  FaultInjector injector(0xAE01);
  copts.fault_injector = &injector;
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(k), ValueRow("v" + std::to_string(k))).ok());
  }
  // Node 2 crashes with everything in the unsynced tail: the writes were
  // delivered (no hints), so nothing but anti-entropy can close the gap.
  ASSERT_TRUE(cluster.CrashNode(2).ok());
  ASSERT_TRUE(cluster.RestartNode(2).ok());
  EXPECT_EQ(cluster.PendingHints(2), 0u);
  auto before = cluster.DebugPartitionRows(2, "t", "p");
  ASSERT_TRUE(before.ok());
  ASSERT_LT(before->size(), 40u) << "crash should have lost the unsynced tail";

  Counter* streamed = MetricsRegistry::Instance().GetCounter("repair.rows_streamed");
  const uint64_t streamed_before = streamed->Value();
  ASSERT_TRUE(cluster.AntiEntropyRepair("t").ok());
  EXPECT_GT(streamed->Value(), streamed_before);

  for (int node = 0; node < 3; ++node) {
    auto rows = cluster.DebugPartitionRows(node, "t", "p");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 40u) << "node " << node;
    for (const auto& [key, row] : *rows) {
      EXPECT_EQ(row.cells.at("v").value, "v" + std::to_string(*DecodeKey64(key)));
    }
  }
  // Converged replicas: a second pass streams nothing.
  const uint64_t streamed_mid = streamed->Value();
  ASSERT_TRUE(cluster.AntiEntropyRepair("t").ok());
  EXPECT_EQ(streamed->Value(), streamed_mid);
}

TEST(AntiEntropy, RepairPropagatesTombstonesNotJustLiveRows) {
  ClusterOptions copts = ThreeNodes();
  copts.engine.commitlog_sync_every_appends = 1000;
  // Seeded so node 0's crash draw tears at least one byte: any tear loses the
  // tail record, which below is the unsynced tombstone.
  FaultInjector injector(0xAE02);
  copts.fault_injector = &injector;
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("live")).ok());
  ASSERT_TRUE(cluster.FlushAll().ok());  // the live row is at rest everywhere
  Row tomb;
  tomb.cells["v"] = Cell{"", 0, true};
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), tomb).ok());
  // Land the tombstone's background legs first: a leg to node 0 still in
  // flight at the crash would divert to a hint, and RestartNode's hint replay
  // would then deliver the tombstone instead of leaving the row resurrected.
  cluster.Quiesce();
  // Node 0 loses the (unsynced, memtable-only) tombstone in a crash.
  ASSERT_TRUE(cluster.CrashNode(0).ok());
  ASSERT_TRUE(cluster.RestartNode(0).ok());
  auto rows = cluster.DebugPartitionRows(0, "t", "p");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u) << "node 0 should have resurrected the row pre-repair";
  // Anti-entropy must stream the tombstone, not skip the "deleted" row.
  ASSERT_TRUE(cluster.AntiEntropyRepair("t").ok());
  rows = cluster.DebugPartitionRows(0, "t", "p");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty()) << "tombstone did not propagate to node 0";
}

}  // namespace
}  // namespace minicrypt
