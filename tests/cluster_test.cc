#include "src/kvstore/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/coding.h"
#include "src/kvstore/media.h"
#include "src/kvstore/ring.h"

namespace minicrypt {
namespace {

Row ValueRow(std::string value) {
  Row row;
  row.cells["v"] = Cell{std::move(value), 0, false};
  return row;
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : cluster_(MakeOptions()) { EXPECT_TRUE(cluster_.CreateTable("t").ok()); }

  static ClusterOptions MakeOptions() {
    ClusterOptions o = ClusterOptions::ForTest();
    o.node_count = 3;
    o.replication_factor = 3;
    // These tests read back right after writing at CL=ONE. With concurrent
    // fan-out a write returns on its first ack while its other legs still
    // run, so the read can reach a replica that has not applied it yet:
    // CL=ONE promises no read-your-writes. Synchronous fan-out applies every
    // leg before the write returns; async_cluster_test and replication_test
    // cover the concurrent path.
    o.replica_fanout_threads = 0;
    return o;
  }

  Cluster cluster_;
};

TEST_F(ClusterTest, WriteThenReadBack) {
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(1), ValueRow("hello")).ok());
  auto row = cluster_.Read("t", "p1", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "hello");
}

TEST_F(ClusterTest, ReadMissingIsNotFound) {
  EXPECT_TRUE(cluster_.Read("t", "p1", EncodeKey64(42)).status().IsNotFound());
}

TEST_F(ClusterTest, UnknownTableRejected) {
  EXPECT_EQ(cluster_.Write("nope", "p", EncodeKey64(1), ValueRow("x")).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ClusterTest, LastWriteWins) {
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(1), ValueRow("first")).ok());
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(1), ValueRow("second")).ok());
  auto row = cluster_.Read("t", "p1", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "second");
}

TEST_F(ClusterTest, InsertIfNotExistsSemantics) {
  EXPECT_TRUE(
      cluster_.WriteIf("t", "p1", EncodeKey64(7), ValueRow("a"), LwtCondition::NotExists())
          .ok());
  Row current;
  const Status second = cluster_.WriteIf("t", "p1", EncodeKey64(7), ValueRow("b"),
                                         LwtCondition::NotExists(), &current);
  EXPECT_TRUE(second.IsConditionFailed());
  EXPECT_EQ(current.cells.at("v").value, "a");
  auto row = cluster_.Read("t", "p1", EncodeKey64(7));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "a");
}

TEST_F(ClusterTest, UpdateIfCellEqualsSemantics) {
  Row initial;
  initial.cells["v"] = Cell{"val", 0, false};
  initial.cells["h"] = Cell{"hash1", 0, false};
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(9), initial).ok());

  Row update;
  update.cells["v"] = Cell{"val2", 0, false};
  update.cells["h"] = Cell{"hash2", 0, false};
  EXPECT_TRUE(cluster_
                  .WriteIf("t", "p1", EncodeKey64(9), update,
                           LwtCondition::CellEquals("h", "hash1"))
                  .ok());
  // Stale token now fails.
  EXPECT_TRUE(cluster_
                  .WriteIf("t", "p1", EncodeKey64(9), update,
                           LwtCondition::CellEquals("h", "hash1"))
                  .IsConditionFailed());
  // Fresh token succeeds.
  Row update3;
  update3.cells["v"] = Cell{"val3", 0, false};
  update3.cells["h"] = Cell{"hash3", 0, false};
  EXPECT_TRUE(cluster_
                  .WriteIf("t", "p1", EncodeKey64(9), update3,
                           LwtCondition::CellEquals("h", "hash2"))
                  .ok());
}

TEST_F(ClusterTest, UpdateIfOnMissingRowFails) {
  EXPECT_TRUE(cluster_
                  .WriteIf("t", "p1", EncodeKey64(404), ValueRow("x"),
                           LwtCondition::CellEquals("h", "whatever"))
                  .IsConditionFailed());
  EXPECT_TRUE(cluster_
                  .WriteIf("t", "p1", EncodeKey64(404), ValueRow("x"),
                           LwtCondition::RowExists())
                  .IsConditionFailed());
}

TEST_F(ClusterTest, ConcurrentLwtExactlyOneWinner) {
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Status s = cluster_.WriteIf("t", "race", EncodeKey64(1),
                                        ValueRow("winner-" + std::to_string(t)),
                                        LwtCondition::NotExists());
      if (s.ok()) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(cluster_.stats().lwt_failures.load(), static_cast<uint64_t>(kThreads - 1));
}

TEST_F(ClusterTest, ReadFloorMatchesSemantics) {
  for (uint64_t k : {100, 200, 300}) {
    ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(k), ValueRow(std::to_string(k))).ok());
  }
  auto f = cluster_.ReadFloor("t", "p1", EncodeKey64(250));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*DecodeKey64(f->first), 200u);
  EXPECT_TRUE(cluster_.ReadFloor("t", "p1", EncodeKey64(50)).status().IsNotFound());
}

TEST_F(ClusterTest, ReadRangeInclusiveAndSorted) {
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(k * 5), ValueRow("x")).ok());
  }
  auto rows = cluster_.ReadRange("t", "p1", EncodeKey64(10), EncodeKey64(50));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 9u);  // 10,15,...,50
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LT((*rows)[i - 1].first, (*rows)[i].first);
  }
}

TEST_F(ClusterTest, DeleteRowHidesCells) {
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(5), ValueRow("x")).ok());
  ASSERT_TRUE(cluster_.DeleteRow("t", "p1", EncodeKey64(5), {"v"}).ok());
  EXPECT_TRUE(cluster_.Read("t", "p1", EncodeKey64(5)).status().IsNotFound());
}

TEST_F(ClusterTest, DeletePartitionDropsEverything) {
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(cluster_.Write("t", "victim", EncodeKey64(k), ValueRow("x")).ok());
  }
  ASSERT_TRUE(cluster_.Write("t", "survivor", EncodeKey64(1), ValueRow("y")).ok());
  ASSERT_TRUE(cluster_.DeletePartition("t", "victim").ok());
  auto rows = cluster_.ReadRange("t", "victim", EncodeKey64(0), EncodeKey64(~0ULL));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  EXPECT_TRUE(cluster_.Read("t", "survivor", EncodeKey64(1)).ok());
}

TEST_F(ClusterTest, QuorumReadSeesNewestReplicaState) {
  ClusterOptions o = MakeOptions();
  o.consistency = Consistency::kQuorum;
  Cluster quorum(o);
  ASSERT_TRUE(quorum.CreateTable("t").ok());
  ASSERT_TRUE(quorum.Write("t", "p", EncodeKey64(1), ValueRow("q")).ok());
  auto row = quorum.Read("t", "p", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "q");
}

TEST_F(ClusterTest, StatsCountersAdvance) {
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(1), ValueRow("x")).ok());
  (void)cluster_.Read("t", "p1", EncodeKey64(1));
  EXPECT_GE(cluster_.stats().writes.load(), 1u);
  EXPECT_GE(cluster_.stats().reads.load(), 1u);
  EXPECT_GT(cluster_.stats().bytes_to_client.load(), 0u);
  cluster_.ResetPerfCounters();
  EXPECT_EQ(cluster_.stats().reads.load(), 0u);
}

// The client link and each media queue slot are reservation timelines: a
// charge books the next free window and sleeps to its end with no lock held.
// Booked windows never overlap on one slot, so concurrent charges still take
// at least their total divided by the slot count.
TEST(ReservationTimelines, LinkSerializesConcurrentTransfers) {
  ClusterOptions o = ClusterOptions::ForTest();  // rtt 0, zero-latency media
  o.network_bytes_per_micro = 1.0;
  Cluster cluster(o);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  constexpr int kThreads = 8;
  constexpr uint64_t kChargeMicros = 2000;
  // Column name "v" plus the value: a 2 ms transfer per write.
  const std::string value(kChargeMicros - 1, 'x');
  Clock* clock = SystemClock::Get();
  std::atomic<uint64_t> first_start{UINT64_MAX};
  std::atomic<uint64_t> last_end{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t start = clock->NowMicros();
      uint64_t seen = first_start.load();
      while (start < seen && !first_start.compare_exchange_weak(seen, start)) {
      }
      EXPECT_TRUE(cluster.Write("t", "p", "row" + std::to_string(t), ValueRow(value)).ok());
      const uint64_t end = clock->NowMicros();
      seen = last_end.load();
      while (end > seen && !last_end.compare_exchange_weak(seen, end)) {
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_GE(last_end.load() - first_start.load(), kThreads * kChargeMicros);
}

TEST(ReservationTimelines, MediaQueueDepthBoundsConcurrentCharges) {
  MediaProfile profile;
  profile.seek_micros = 2000;  // Read(0) charges the seek alone
  profile.queue_depth = 2;
  SimulatedMedia media(profile, SystemClock::Get());
  constexpr int kCharges = 8;
  const uint64_t start = SystemClock::Get()->NowMicros();
  std::vector<std::thread> threads;
  for (int t = 0; t < kCharges; ++t) {
    threads.emplace_back([&] { media.Read(0); });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_GE(SystemClock::Get()->NowMicros() - start, kCharges * 2000 / 2);
  EXPECT_EQ(media.stats().busy_micros.load(), kCharges * 2000u);
}

TEST(HashRing, ReplicasAreDistinctAndStable) {
  HashRing ring(16);
  ring.AddNode(0);
  ring.AddNode(1);
  ring.AddNode(2);
  const auto r1 = ring.Replicas("partition-a", 3);
  ASSERT_EQ(r1.size(), 3u);
  EXPECT_NE(r1[0], r1[1]);
  EXPECT_NE(r1[1], r1[2]);
  EXPECT_NE(r1[0], r1[2]);
  EXPECT_EQ(r1, ring.Replicas("partition-a", 3));  // deterministic
}

TEST(HashRing, RfLargerThanNodesReturnsAll) {
  HashRing ring(8);
  ring.AddNode(0);
  ring.AddNode(1);
  EXPECT_EQ(ring.Replicas("x", 5).size(), 2u);
}

TEST(HashRing, LoadSpreadsAcrossNodes) {
  HashRing ring(32);
  for (int n = 0; n < 4; ++n) {
    ring.AddNode(n);
  }
  std::array<int, 4> counts{};
  for (int i = 0; i < 4000; ++i) {
    counts[static_cast<size_t>(ring.Replicas("part" + std::to_string(i), 1)[0])]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 400);  // each node owns a sizeable share
  }
}

TEST(HashRing, RemoveNodeReassigns) {
  HashRing ring(16);
  ring.AddNode(0);
  ring.AddNode(1);
  ring.RemoveNode(0);
  for (int i = 0; i < 100; ++i) {
    const auto replicas = ring.Replicas("k" + std::to_string(i), 1);
    ASSERT_EQ(replicas.size(), 1u);
    EXPECT_EQ(replicas[0], 1);
  }
}

}  // namespace
}  // namespace minicrypt
