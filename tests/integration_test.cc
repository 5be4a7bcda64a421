// End-to-end integration tests: the full MiniCrypt stack (generic + append)
// over a multi-node cluster with realistic-ish settings, plus the compression
// phenomenon the whole system exists for.

#include <gtest/gtest.h>

#include "src/common/coding.h"
#include "src/core/append/append_client.h"
#include "src/core/append/em_service.h"
#include "src/core/baseline_client.h"
#include "src/core/generic_client.h"
#include "src/core/tuner.h"
#include "src/workload/datasets.h"

namespace minicrypt {
namespace {

ClusterOptions ThreeNodeOptions() {
  ClusterOptions o = ClusterOptions::ForTest();
  o.node_count = 3;
  o.replication_factor = 3;
  o.engine.memtable_flush_bytes = 64 * 1024;
  o.engine.compaction_trigger = 4;
  return o;
}

TEST(Integration, GenericClientOverThreeNodeClusterWithConvivaData) {
  Cluster cluster(ThreeNodeOptions());
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  MiniCryptOptions options;
  options.pack_rows = 50;
  GenericClient client(&cluster, options, key);
  ASSERT_TRUE(client.CreateTable().ok());

  auto dataset = MakeDataset("conviva", 99);
  const auto rows = MaterializeRows(*dataset, 600);
  ASSERT_TRUE(client.BulkLoad(rows).ok());
  ASSERT_TRUE(cluster.FlushAll().ok());

  // Every row readable through the pack path.
  for (uint64_t k = 0; k < 600; k += 37) {
    auto v = client.Get(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, rows[k].second);
  }
  // Range query crosses pack and partition boundaries.
  auto range = client.GetRange(100, 199);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 100u);

  // The headline claim: MiniCrypt's at-rest footprint is several times
  // smaller than the encrypted baseline's.
  MiniCryptOptions base_options;
  base_options.table = "baseline";
  EncryptedBaselineClient baseline(&cluster, base_options, key);
  ASSERT_TRUE(baseline.CreateTable().ok());
  ASSERT_TRUE(baseline.BulkLoad(rows).ok());
  ASSERT_TRUE(cluster.FlushAll().ok());

  const size_t mc_bytes = cluster.TableAtRestBytes(options.table);
  const size_t base_bytes = cluster.TableAtRestBytes("baseline");
  ASSERT_GT(mc_bytes, 0u);
  ASSERT_GT(base_bytes, 0u);
  EXPECT_GT(static_cast<double>(base_bytes) / static_cast<double>(mc_bytes), 2.0)
      << "pack compression should beat per-row compression by >2x on Conviva-like data";
}

TEST(Integration, AppendPipelineEndToEndOnTimeSeries) {
  SimulatedClock clock(1'000'000'000);
  Cluster cluster(ThreeNodeOptions());
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  MiniCryptOptions options;
  options.table = "timeseries";
  options.pack_rows = 25;
  options.epoch_micros = 1'000'000;
  options.t_delta_micros = 100'000;
  options.t_drift_micros = 50'000;
  options.client_timeout_micros = 100'000'000;

  EmService em(&cluster, options, "em", &clock);
  ASSERT_TRUE(em.Bootstrap().ok());
  // Bootstrap's g_epoch LWT returns once a quorum holds the row; the CL=ONE
  // reads in Tick and Register may reach the third replica, so land its leg
  // first.
  cluster.Quiesce();
  ASSERT_TRUE(em.Tick().ok());
  AppendClient writer(&cluster, options, key, "w1", &clock);
  ASSERT_TRUE(writer.Register().ok());

  auto dataset = MakeDataset("gas", 5);
  uint64_t next_key = 0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(writer.Put(next_key, dataset->Row(next_key)).ok());
      ++next_key;
    }
    clock.Advance(options.epoch_micros + 1000);
    ASSERT_TRUE(writer.HeartbeatOnce().ok());
    ASSERT_TRUE(em.Tick().ok());
    ASSERT_TRUE(writer.HeartbeatOnce().ok());
    ASSERT_TRUE(writer.MergeOnce().ok());
    ASSERT_TRUE(writer.DeleteMergedOnce().ok());
  }
  EXPECT_GT(writer.stats().epochs_merged.load(), 0u);
  EXPECT_GT(writer.stats().packs_written.load(), 0u);

  // Every key written remains readable through whichever path now holds it.
  for (uint64_t k = 0; k < next_key; k += 13) {
    auto v = writer.Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k << ": " << v.status().ToString();
    EXPECT_EQ(*v, dataset->Row(k));
  }
}

TEST(Integration, TunerPicksAReasonablePackSize) {
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  MiniCryptOptions options;
  options.hash_partitions = 2;

  auto dataset = MakeDataset("conviva", 21);
  const auto rows = MaterializeRows(*dataset, 400);
  std::vector<uint64_t> read_keys;
  for (uint64_t k = 0; k < 400; k += 3) {
    read_keys.push_back(k);
  }

  PackSizeTuner::Config config;
  config.candidate_pack_rows = {1, 10, 50};
  config.run_micros = 120'000;
  config.client_threads = 2;
  PackSizeTuner tuner(options, key, config);
  auto report = tuner.Run(
      [] {
        auto cluster = std::make_unique<Cluster>(ClusterOptions::ForTest());
        return cluster;
      },
      rows, read_keys);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->points.size(), 3u);
  for (const auto& point : report->points) {
    EXPECT_GT(point.throughput_ops_s, 0.0);
    EXPECT_GT(point.compression_ratio, 0.5);
  }
  // Ratio must improve monotonically with pack size on this data.
  EXPECT_GT(report->points[2].compression_ratio, report->points[0].compression_ratio);
  EXPECT_NE(report->best_pack_rows, 0u);
}

TEST(Integration, ClusterSurvivesManyTablesAndDrops) {
  Cluster cluster(ThreeNodeOptions());
  const SymmetricKey key = SymmetricKey::FromSeed("t");
  for (int i = 0; i < 5; ++i) {
    MiniCryptOptions options;
    options.table = "table" + std::to_string(i);
    options.pack_rows = 8;
    GenericClient client(&cluster, options, key);
    ASSERT_TRUE(client.CreateTable().ok());
    for (uint64_t k = 0; k < 50; ++k) {
      ASSERT_TRUE(client.Put(k, "x").ok());
    }
    ASSERT_TRUE(client.Get(25).ok());
  }
  ASSERT_TRUE(cluster.DropTable("table3").ok());
  MiniCryptOptions options;
  options.table = "table3";
  GenericClient client(&cluster, options, key);
  EXPECT_FALSE(client.Get(25).ok());  // table gone
  options.table = "table4";
  GenericClient alive(&cluster, options, key);
  EXPECT_TRUE(alive.Get(25).ok());  // others untouched
}

}  // namespace
}  // namespace minicrypt
