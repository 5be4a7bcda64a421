// Elastic-topology tests: online bootstrap/decommission/rebalance, the
// persisted membership state machine, crash-resume at every persist edge
// (scripted kTopologyPersist faults), stream-interrupt resume, rollback via
// CancelTopology, and the dual-apply window that keeps acked writes durable
// across ownership flips.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/coding.h"
#include "src/kvstore/cluster.h"
#include "src/kvstore/fault_injector.h"

namespace minicrypt {
namespace {

Row ValueRow(std::string value) {
  Row row;
  row.cells["v"] = Cell{std::move(value), 0, false};
  return row;
}

ClusterOptions Nodes(int n, int rf, Consistency consistency = Consistency::kOne) {
  ClusterOptions o = ClusterOptions::ForTest();
  o.node_count = n;
  o.replication_factor = rf;
  o.consistency = consistency;
  return o;
}

std::string Part(int i) { return "p" + std::to_string(i); }

void Preload(Cluster* cluster, int partitions) {
  ASSERT_TRUE(cluster->CreateTable("t").ok());
  for (int i = 0; i < partitions; ++i) {
    ASSERT_TRUE(cluster->Write("t", Part(i), EncodeKey64(0), ValueRow("v" + std::to_string(i))).ok());
  }
  cluster->Quiesce();  // settle straggler replica legs before CL=ONE reads
}

// Preload with engineered skew: partitions whose primary owner is `hot_node`
// get ~2KB values, everyone else ~10 bytes, so `hot_node` carries ~50x the
// byte load of its peers regardless of how evenly the token ranges spread.
// Returns the expected value per partition for post-rebalance verification.
std::map<int, std::string> PreloadSkewed(Cluster* cluster, int partitions, int hot_node) {
  EXPECT_TRUE(cluster->CreateTable("t").ok());
  const HashRing ring = cluster->RingSnapshot();
  std::map<int, std::string> expected;
  for (int i = 0; i < partitions; ++i) {
    std::string value = "v" + std::to_string(i);
    if (ring.PrimaryOwner(Part(i)) == hot_node) {
      value += std::string(2048, 'x');
    }
    EXPECT_TRUE(cluster->Write("t", Part(i), EncodeKey64(0), ValueRow(value)).ok());
    expected[i] = std::move(value);
  }
  cluster->Quiesce();  // settle straggler replica legs before CL=ONE reads
  return expected;
}

void ExpectAllMatch(Cluster* cluster, const std::map<int, std::string>& expected) {
  for (const auto& [i, value] : expected) {
    auto row = cluster->Read("t", Part(i), EncodeKey64(0));
    ASSERT_TRUE(row.ok()) << "partition " << i << ": " << row.status().message();
    EXPECT_EQ(row->cells.at("v").value, value);
  }
}

void ExpectAllReadable(Cluster* cluster, int partitions) {
  for (int i = 0; i < partitions; ++i) {
    auto row = cluster->Read("t", Part(i), EncodeKey64(0));
    ASSERT_TRUE(row.ok()) << "partition " << i << ": " << row.status().message();
    EXPECT_EQ(row->cells.at("v").value, "v" + std::to_string(i));
  }
}

TEST(Topology, BootstrapAddsServingNodeAndStreamsItsRanges) {
  Cluster cluster(Nodes(3, 3));
  Preload(&cluster, 50);
  ASSERT_EQ(cluster.NodeCount(), 3u);

  auto id = cluster.BootstrapNode();
  ASSERT_TRUE(id.ok()) << id.status().message();
  EXPECT_EQ(*id, 3);
  EXPECT_EQ(cluster.NodeCount(), 4u);
  EXPECT_EQ(cluster.NodeMembership(3), MembershipState::kServing);
  EXPECT_EQ(cluster.ServingNodes().size(), 4u);
  EXPECT_FALSE(cluster.Topology().inflight);
  EXPECT_TRUE(cluster.RingSnapshot().Contains(3));

  // The new node serves reads for every range it acquired: down all of a
  // partition's other replicas and read (CL=ONE) from node 3 alone.
  for (int i = 0; i < 50; ++i) {
    const std::vector<int> replicas = cluster.ReplicaNodesFor(Part(i));
    if (std::find(replicas.begin(), replicas.end(), 3) == replicas.end()) {
      continue;
    }
    for (int r : replicas) {
      if (r != 3) {
        cluster.SetNodeDown(r, true);
      }
    }
    auto row = cluster.Read("t", Part(i), EncodeKey64(0));
    ASSERT_TRUE(row.ok()) << "partition " << i << " not streamed to the new node";
    EXPECT_EQ(row->cells.at("v").value, "v" + std::to_string(i));
    cluster.HealAllNodes();
  }
  ExpectAllReadable(&cluster, 50);
}

TEST(Topology, DecommissionDrainsAndRetiresNode) {
  Cluster cluster(Nodes(4, 3, Consistency::kQuorum));
  Preload(&cluster, 60);

  ASSERT_TRUE(cluster.DecommissionNode(1).ok());
  EXPECT_EQ(cluster.NodeMembership(1), MembershipState::kRemoved);
  EXPECT_EQ(cluster.ServingNodes().size(), 3u);
  EXPECT_TRUE(cluster.IsNodeDown(1));
  EXPECT_FALSE(cluster.RingSnapshot().Contains(1));
  EXPECT_FALSE(cluster.Topology().inflight);

  // Every partition is fully replicated on the survivors: quorum reads and
  // writes keep working with the retired node permanently down.
  ExpectAllReadable(&cluster, 60);
  for (int i = 0; i < 60; ++i) {
    const std::vector<int> replicas = cluster.ReplicaNodesFor(Part(i));
    EXPECT_EQ(replicas.size(), 3u);
    EXPECT_EQ(std::find(replicas.begin(), replicas.end(), 1), replicas.end());
  }
  ASSERT_TRUE(cluster.Write("t", Part(0), EncodeKey64(1), ValueRow("post")).ok());

  // A retired node never comes back.
  EXPECT_FALSE(cluster.RestartNode(1).ok());
  cluster.SetNodeDown(1, false);
  EXPECT_TRUE(cluster.IsNodeDown(1));
  cluster.HealAllNodes();
  EXPECT_TRUE(cluster.IsNodeDown(1));
}

TEST(Topology, DecommissionBelowReplicationFactorRejected) {
  Cluster cluster(Nodes(3, 3));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  const Status s = cluster.DecommissionNode(0);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(cluster.NodeMembership(0), MembershipState::kServing);
  EXPECT_FALSE(cluster.Topology().inflight);
}

TEST(Topology, RebalanceMovesTokensAndStreamsData) {
  // RF=1 makes placement skew visible (each partition lives on exactly one
  // node) and makes streaming load-bearing: if the rebalance window failed to
  // stream, every moved partition would read NotFound afterward.
  Cluster cluster(Nodes(4, 1));
  const auto expected = PreloadSkewed(&cluster, 200, /*hot_node=*/0);

  auto moves = cluster.RebalanceTokens(8);
  ASSERT_TRUE(moves.ok()) << moves.status().message();
  EXPECT_GT(*moves, 0u);  // node 0 carries ~50x its peers' bytes
  EXPECT_FALSE(cluster.Topology().inflight);
  ExpectAllMatch(&cluster, expected);

  // Token moves never change the node set.
  EXPECT_EQ(cluster.ServingNodes().size(), 4u);
  EXPECT_EQ(cluster.RingSnapshot().node_count(), 4u);
}

// --- Crash-resume at every membership state-machine edge ---------------------
//
// Script the 1st kTopologyPersist draw matching each edge's context: the
// persist fails, nothing is mutated, the operation parks at its previous
// stage. ResumeTopology then re-drives it to completion; membership is never
// left with a double-owned or unowned range (reads stay correct throughout).

struct EdgeCase {
  const char* context;
  bool node_created;     // bootstrap: was the node slot allocated before the edge?
  bool inflight_parked;  // does the op stay resumable (vs abort before starting)?
};

TEST(Topology, BootstrapResumesFromEveryPersistEdge) {
  const EdgeCase kEdges[] = {
      {"bootstrap plan", false, false},
      {"bootstrap stream", true, true},
      {"bootstrap flip", true, true},
  };
  for (const EdgeCase& edge : kEdges) {
    SCOPED_TRACE(edge.context);
    FaultInjector fi(0xBEEF);
    fi.Script(FaultPoint::kTopologyPersist, 1, edge.context);
    ClusterOptions o = Nodes(3, 3);
    o.fault_injector = &fi;
    Cluster cluster(o);
    Preload(&cluster, 30);

    auto id = cluster.BootstrapNode();
    ASSERT_FALSE(id.ok()) << "persist fault must abort the edge";
    EXPECT_EQ(cluster.NodeCount(), edge.node_created ? 4u : 3u);
    EXPECT_EQ(cluster.Topology().inflight, edge.inflight_parked);
    // The natural ring never holds a node that has not finished streaming:
    // no unowned or double-owned range at any parked stage.
    EXPECT_FALSE(cluster.RingSnapshot().Contains(3));
    ExpectAllReadable(&cluster, 30);

    ASSERT_TRUE(cluster.ResumeTopology().ok());
    EXPECT_FALSE(cluster.Topology().inflight);
    if (edge.inflight_parked) {
      EXPECT_EQ(cluster.NodeMembership(3), MembershipState::kServing);
      EXPECT_TRUE(cluster.RingSnapshot().Contains(3));
    }
    ExpectAllReadable(&cluster, 30);
  }
}

TEST(Topology, DecommissionResumesFromEveryPersistEdge) {
  const EdgeCase kEdges[] = {
      {"decommission plan", false, false},
      {"decommission flip", false, true},
      {"decommission retire", false, true},
  };
  for (const EdgeCase& edge : kEdges) {
    SCOPED_TRACE(edge.context);
    FaultInjector fi(0xBEEF);
    fi.Script(FaultPoint::kTopologyPersist, 1, edge.context);
    ClusterOptions o = Nodes(4, 3, Consistency::kQuorum);
    o.fault_injector = &fi;
    Cluster cluster(o);
    Preload(&cluster, 30);

    const Status s = cluster.DecommissionNode(2);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(cluster.Topology().inflight, edge.inflight_parked);
    ExpectAllReadable(&cluster, 30);

    ASSERT_TRUE(cluster.ResumeTopology().ok());
    EXPECT_FALSE(cluster.Topology().inflight);
    if (edge.inflight_parked) {
      EXPECT_EQ(cluster.NodeMembership(2), MembershipState::kRemoved);
      EXPECT_FALSE(cluster.RingSnapshot().Contains(2));
    } else {
      EXPECT_EQ(cluster.NodeMembership(2), MembershipState::kServing);
    }
    ExpectAllReadable(&cluster, 30);
  }
}

TEST(Topology, RebalanceResumesFromEveryPersistEdge) {
  for (const char* context : {"rebalance plan", "rebalance flip"}) {
    SCOPED_TRACE(context);
    FaultInjector fi(0xBEEF);
    fi.Script(FaultPoint::kTopologyPersist, 1, context);
    ClusterOptions o = Nodes(4, 1);
    o.fault_injector = &fi;
    Cluster cluster(o);
    const auto expected = PreloadSkewed(&cluster, 200, /*hot_node=*/0);

    auto moves = cluster.RebalanceTokens(4);
    ASSERT_FALSE(moves.ok());
    ExpectAllMatch(&cluster, expected);
    ASSERT_TRUE(cluster.ResumeTopology().ok());
    EXPECT_FALSE(cluster.Topology().inflight);
    ExpectAllMatch(&cluster, expected);
  }
}

TEST(Topology, StreamInterruptLeavesStageResumable) {
  FaultInjector fi(0x5EED);
  fi.Script(FaultPoint::kStreamInterrupt, 1);
  ClusterOptions o = Nodes(3, 3);
  o.fault_injector = &fi;
  Cluster cluster(o);
  Preload(&cluster, 40);

  auto id = cluster.BootstrapNode();
  ASSERT_FALSE(id.ok());
  EXPECT_TRUE(cluster.Topology().inflight);
  EXPECT_EQ(cluster.Topology().stage, TopologyStatus::Stage::kStreaming);
  EXPECT_EQ(cluster.NodeMembership(3), MembershipState::kStreaming);

  // Re-streaming from scratch is idempotent (LWW re-apply); the resumed
  // bootstrap completes and the node serves.
  ASSERT_TRUE(cluster.ResumeTopology().ok());
  EXPECT_EQ(cluster.NodeMembership(3), MembershipState::kServing);
  ExpectAllReadable(&cluster, 40);
}

TEST(Topology, CrashedJoiningNodeBlocksResumeUntilRestart) {
  FaultInjector fi(0x5EED);
  fi.Script(FaultPoint::kTopologyPersist, 1, "bootstrap flip");
  ClusterOptions o = Nodes(3, 3);
  o.fault_injector = &fi;
  Cluster cluster(o);
  Preload(&cluster, 20);

  ASSERT_FALSE(cluster.BootstrapNode().ok());  // parked at kStreaming
  ASSERT_TRUE(cluster.CrashNode(3).ok());      // kill mid-join
  const Status blocked = cluster.ResumeTopology();
  ASSERT_FALSE(blocked.ok()) << "resume must not flip onto a dead node";
  EXPECT_TRUE(cluster.Topology().inflight);

  ASSERT_TRUE(cluster.RestartNode(3).ok());
  ASSERT_TRUE(cluster.ResumeTopology().ok());
  EXPECT_EQ(cluster.NodeMembership(3), MembershipState::kServing);
  ExpectAllReadable(&cluster, 20);
}

TEST(Topology, CancelBootstrapRollsBackCleanly) {
  FaultInjector fi(0x5EED);
  fi.Script(FaultPoint::kTopologyPersist, 1, "bootstrap flip");
  ClusterOptions o = Nodes(3, 3);
  o.fault_injector = &fi;
  Cluster cluster(o);
  Preload(&cluster, 30);

  ASSERT_FALSE(cluster.BootstrapNode().ok());  // parked before the flip
  ASSERT_TRUE(cluster.CancelTopology().ok());
  EXPECT_FALSE(cluster.Topology().inflight);
  EXPECT_EQ(cluster.NodeMembership(3), MembershipState::kRemoved);
  EXPECT_FALSE(cluster.RingSnapshot().Contains(3));
  EXPECT_EQ(cluster.ServingNodes().size(), 3u);
  ExpectAllReadable(&cluster, 30);
  ASSERT_TRUE(cluster.Write("t", Part(0), EncodeKey64(2), ValueRow("after-cancel")).ok());
}

TEST(Topology, CancelDecommissionRestoresServing) {
  FaultInjector fi(0x5EED);
  fi.Script(FaultPoint::kTopologyPersist, 1, "decommission flip");
  ClusterOptions o = Nodes(4, 3, Consistency::kQuorum);
  o.fault_injector = &fi;
  Cluster cluster(o);
  Preload(&cluster, 30);

  ASSERT_FALSE(cluster.DecommissionNode(2).ok());
  EXPECT_EQ(cluster.NodeMembership(2), MembershipState::kLeaving);
  ASSERT_TRUE(cluster.CancelTopology().ok());
  EXPECT_EQ(cluster.NodeMembership(2), MembershipState::kServing);
  EXPECT_TRUE(cluster.RingSnapshot().Contains(2));
  EXPECT_EQ(cluster.ServingNodes().size(), 4u);
  ExpectAllReadable(&cluster, 30);
}

TEST(Topology, CancelAfterFlipRejectedResumeCompletes) {
  FaultInjector fi(0x5EED);
  fi.Script(FaultPoint::kTopologyPersist, 1, "decommission retire");
  ClusterOptions o = Nodes(4, 3, Consistency::kQuorum);
  o.fault_injector = &fi;
  Cluster cluster(o);
  Preload(&cluster, 30);

  ASSERT_FALSE(cluster.DecommissionNode(2).ok());
  EXPECT_EQ(cluster.NodeMembership(2), MembershipState::kDrained);
  EXPECT_EQ(cluster.Topology().stage, TopologyStatus::Stage::kFlipped);
  EXPECT_FALSE(cluster.CancelTopology().ok()) << "ownership flipped; rollback impossible";
  ASSERT_TRUE(cluster.ResumeTopology().ok());
  EXPECT_EQ(cluster.NodeMembership(2), MembershipState::kRemoved);
  ExpectAllReadable(&cluster, 30);
}

TEST(Topology, SecondTopologyChangeRejectedWhileInflight) {
  FaultInjector fi(0x5EED);
  fi.Script(FaultPoint::kTopologyPersist, 1, "bootstrap flip");
  ClusterOptions o = Nodes(4, 3);
  o.fault_injector = &fi;
  Cluster cluster(o);
  ASSERT_TRUE(cluster.CreateTable("t").ok());

  ASSERT_FALSE(cluster.BootstrapNode().ok());  // parked
  EXPECT_FALSE(cluster.BootstrapNode().ok());
  EXPECT_FALSE(cluster.DecommissionNode(0).ok());
  EXPECT_FALSE(cluster.RebalanceTokens().ok());
  ASSERT_TRUE(cluster.ResumeTopology().ok());
  EXPECT_EQ(cluster.ServingNodes().size(), 5u);
}

TEST(Topology, DualApplyLosesNoAckedWriteAcrossBootstrapFlip) {
  // Quorum writes race a live bootstrap. Every write acked to the client must
  // be readable (at quorum) after the flip — the pending-endpoint rule makes
  // the pre-flip ack set intersect post-flip quorums.
  ClusterOptions o = Nodes(3, 3, Consistency::kQuorum);
  Cluster cluster(o);
  ASSERT_TRUE(cluster.CreateTable("t").ok());

  std::atomic<bool> stop{false};
  std::map<std::string, std::string> acked;  // partition -> last acked value
  std::mutex acked_mu;
  std::thread writer([&]() {
    int seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string partition = Part(seq % 32);
      const std::string value = "w" + std::to_string(seq);
      if (cluster.Write("t", partition, EncodeKey64(0), ValueRow(value)).ok()) {
        std::lock_guard<std::mutex> lock(acked_mu);
        acked[partition] = value;
      }
      ++seq;
    }
  });

  auto id = cluster.BootstrapNode();
  stop.store(true);
  writer.join();
  ASSERT_TRUE(id.ok()) << id.status().message();
  cluster.Quiesce();
  cluster.ReplayAllHints();

  for (const auto& [partition, value] : acked) {
    auto row = cluster.Read("t", partition, EncodeKey64(0));
    ASSERT_TRUE(row.ok()) << "acked write lost on " << partition;
    // LWW: the stored value is the last acked one or a later write that was
    // in flight when we stopped recording; it is never an earlier value.
    const std::string& stored = row->cells.at("v").value;
    const int stored_seq = std::stoi(stored.substr(1));
    const int acked_seq = std::stoi(value.substr(1));
    EXPECT_GE(stored_seq, acked_seq) << partition;
  }
}

// --- Copies come only from a partition's owners ------------------------------
//
// A node that loses a partition in a bootstrap keeps its rows: nothing cleans
// up after the flip. Once the owners compact a delete's tombstone away, that
// node holds the only trace of the deleted row, a live copy, and a stream or
// a scrub rebuild that took copies from it would bring the row back.

constexpr int kCopyRulePartitions = 60;

ClusterOptions CompactingQuorumNodes(FaultInjector* fi) {
  ClusterOptions o = Nodes(3, 3, Consistency::kQuorum);
  o.engine.compaction_trigger = 2;
  o.fault_injector = fi;
  return o;
}

void PadAndFlush(Cluster* cluster, int round) {
  for (int i = 0; i < kCopyRulePartitions; ++i) {
    ASSERT_TRUE(cluster->Write("t", Part(i), EncodeKey64(static_cast<uint64_t>(round)),
                               ValueRow("pad"))
                    .ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());
}

// Preloads key 0, bootstraps node 3 and deletes key 0 in every partition
// node 3 gained; the owners then compact the tombstone away. Returns those
// partitions.
std::vector<int> DeleteWhereNodeThreeGainedAndCompact(Cluster* cluster) {
  Preload(cluster, kCopyRulePartitions);
  EXPECT_TRUE(cluster->BootstrapNode().ok());
  std::vector<int> deleted;
  for (int i = 0; i < kCopyRulePartitions; ++i) {
    const std::vector<int> owners = cluster->ReplicaNodesFor(Part(i));
    if (std::find(owners.begin(), owners.end(), 3) != owners.end()) {
      EXPECT_TRUE(cluster->DeleteRow("t", Part(i), EncodeKey64(0), {"v"}).ok());
      deleted.push_back(i);
    }
  }
  // Every engine flushes twice; the second flush makes two tables, whose
  // full compaction drops the tombstones.
  PadAndFlush(cluster, 1);
  PadAndFlush(cluster, 2);
  return deleted;
}

bool HoldsKeyZero(Cluster* cluster, int node, int partition) {
  auto rows = cluster->DebugPartitionRows(node, "t", Part(partition));
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() && !rows->empty() && rows->front().first == EncodeKey64(0);
}

TEST(Topology, BootstrapStreamsOnlyFromOwnersSoACompactedDeleteStaysDeleted) {
  Cluster cluster(CompactingQuorumNodes(nullptr));
  const std::vector<int> deleted = DeleteWhereNodeThreeGainedAndCompact(&cluster);
  ASSERT_FALSE(deleted.empty());
  ASSERT_TRUE(cluster.BootstrapNode().ok());

  int checked = 0;
  for (int i : deleted) {
    const std::vector<int> owners = cluster.ReplicaNodesFor(Part(i));
    if (std::find(owners.begin(), owners.end(), 4) == owners.end()) {
      continue;
    }
    ++checked;
    EXPECT_FALSE(HoldsKeyZero(&cluster, 4, i)) << "node 4 resurrected key 0 in " << Part(i);
    EXPECT_TRUE(cluster.Read("t", Part(i), EncodeKey64(0)).status().IsNotFound()) << Part(i);
  }
  EXPECT_GT(checked, 0);
}

TEST(Topology, ScrubRebuildsOnlyFromOwnersSoACompactedDeleteStaysDeleted) {
  FaultInjector fi(0x5C2B);
  Cluster cluster(CompactingQuorumNodes(&fi));
  const std::vector<int> deleted = DeleteWhereNodeThreeGainedAndCompact(&cluster);
  ASSERT_FALSE(deleted.empty());
  // One corrupt block in the last flush. Its table fails the compaction that
  // flush triggers, so scrub quarantines it and rebuilds its key range.
  fi.Script(FaultPoint::kMediaCorruption, 1);
  PadAndFlush(&cluster, 3);
  ASSERT_EQ(fi.trips(FaultPoint::kMediaCorruption), 1u);
  size_t rebuilt = 0;
  for (int node = 0; node < 4; ++node) {
    auto blocks = cluster.ScrubNode(node);
    ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
    rebuilt += *blocks;
  }
  ASSERT_GE(rebuilt, 1u);

  int resurrected = 0;
  int copies = 0;
  for (int i : deleted) {
    for (int node : cluster.ReplicaNodesFor(Part(i))) {
      ++copies;
      resurrected += HoldsKeyZero(&cluster, node, i) ? 1 : 0;
    }
  }
  EXPECT_EQ(resurrected, 0) << "of " << copies << " owner copies";
  // The dropped table's rows came back from the other owners: every owner
  // copy still holds the last pad.
  for (int i = 0; i < kCopyRulePartitions; ++i) {
    for (int node : cluster.ReplicaNodesFor(Part(i))) {
      auto rows = cluster.DebugPartitionRows(node, "t", Part(i));
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ASSERT_FALSE(rows->empty());
      EXPECT_EQ(rows->back().first, EncodeKey64(3)) << "node " << node << " " << Part(i);
    }
  }
}

TEST(Topology, MembershipIntrospectionDefaults) {
  Cluster cluster(Nodes(3, 3));
  EXPECT_EQ(cluster.NodeMembership(0), MembershipState::kServing);
  EXPECT_EQ(cluster.NodeMembership(99), MembershipState::kRemoved);
  EXPECT_FALSE(cluster.Topology().inflight);
  EXPECT_TRUE(cluster.ResumeTopology().ok());   // no-op
  EXPECT_TRUE(cluster.CancelTopology().ok());   // no-op
}

}  // namespace
}  // namespace minicrypt
