#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/common/clock.h"
#include "src/common/coding.h"
#include "src/common/histogram.h"
#include "src/common/thread_util.h"
#include "src/core/baseline_client.h"
#include "src/kvstore/media.h"
#include "src/obs/metrics.h"

namespace minicrypt {
namespace {

TEST(Histogram, MeanMinMaxCount) {
  Histogram h;
  for (uint64_t v : {10, 20, 30, 40}) {
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.Mean(), 25.0);
  EXPECT_EQ(h.Min(), 10u);
  EXPECT_EQ(h.Max(), 40u);
}

TEST(Histogram, PercentileApproximation) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Add(v);
  }
  // Bucketed percentiles land within one bucket width of the truth.
  EXPECT_NEAR(h.Percentile(0.5), 500.0, 150.0);
  EXPECT_NEAR(h.Percentile(0.99), 990.0, 250.0);
  EXPECT_LE(h.Percentile(0.0), 2.0);
}

TEST(Histogram, MergeAndReset) {
  Histogram a;
  Histogram b;
  a.Add(5);
  b.Add(500);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.Min(), 5u);
  EXPECT_EQ(a.Max(), 500u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_FALSE(a.Summary().empty());
}

TEST(SimulatedClock, AdvanceAndSleep) {
  SimulatedClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100u);
  clock.SleepMicros(50);  // advances instead of blocking
  EXPECT_EQ(clock.NowMicros(), 150u);
  clock.Advance(10);
  EXPECT_EQ(clock.NowMicros(), 160u);
}

TEST(SimulatedMedia, ChargesSeekPlusTransfer) {
  SimulatedClock clock(0);
  MediaProfile profile;
  profile.seek_micros = 100;
  profile.bytes_per_micro_read = 10.0;
  profile.bytes_per_micro_write = 10.0;
  profile.latency_scale = 1.0;
  SimulatedMedia media(profile, &clock);
  media.Read(1000);  // 100 seek + 100 transfer
  EXPECT_EQ(clock.NowMicros(), 200u);
  EXPECT_EQ(media.stats().reads.load(), 1u);
  EXPECT_EQ(media.stats().read_bytes.load(), 1000u);
  media.Write(1000, /*sequential=*/true);  // no seek
  EXPECT_EQ(clock.NowMicros(), 300u);
}

TEST(SimulatedMedia, ChargesEvenWhenMetricsDisabled) {
  // Regression: the latency charge is the simulated device, not telemetry.
  // With the metrics registry disabled (MC_OBS=0 mode) reads and writes must
  // still sleep and account busy time; only the histogram record is skipped.
  MetricsRegistry::Instance().SetEnabled(false);
  SimulatedClock clock(0);
  MediaProfile profile;
  profile.seek_micros = 100;
  profile.bytes_per_micro_read = 10.0;
  profile.bytes_per_micro_write = 10.0;
  profile.latency_scale = 1.0;
  SimulatedMedia media(profile, &clock);
  media.Read(1000);                        // 100 seek + 100 transfer
  media.Write(1000, /*sequential=*/true);  // 100 transfer
  MetricsRegistry::Instance().SetEnabled(true);
  EXPECT_EQ(clock.NowMicros(), 300u);
  EXPECT_EQ(media.stats().busy_micros.load(), 300u);
}

TEST(SimulatedMedia, LatencyScaleApplies) {
  SimulatedClock clock(0);
  MediaProfile profile;
  profile.seek_micros = 1000;
  profile.bytes_per_micro_read = 1000.0;
  profile.latency_scale = 0.1;
  SimulatedMedia media(profile, &clock);
  media.Read(0);
  EXPECT_EQ(clock.NowMicros(), 100u);
}

TEST(SimulatedMedia, DiskQueueSerializesSsdOverlaps) {
  // Two threads read concurrently. On the disk profile (queue depth 1) the
  // wall time is ~2 service times; on the SSD profile (deep queue) ~1.
  auto measure = [](MediaProfile profile) {
    SimulatedMedia media(profile, SystemClock::Get());
    const auto start = std::chrono::steady_clock::now();
    std::thread t1([&] { media.Read(0); });
    std::thread t2([&] { media.Read(0); });
    t1.join();
    t2.join();
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  MediaProfile disk;
  disk.seek_micros = 20000;
  disk.queue_depth = 1;
  MediaProfile ssd = disk;
  ssd.queue_depth = 8;
  const auto disk_us = measure(disk);
  const auto ssd_us = measure(ssd);
  EXPECT_GE(disk_us, 38000);
  EXPECT_LT(ssd_us, 38000);
}

TEST(PeriodicTask, RunsAndStops) {
  std::atomic<int> runs{0};
  {
    PeriodicTask task([&] { runs.fetch_add(1); }, 5000);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  const int after_stop = runs.load();
  EXPECT_GT(after_stop, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(runs.load(), after_stop);
}

class FacadeTest : public ::testing::Test {
 protected:
  FacadeTest() : cluster_(ClusterOptions::ForTest()), key_(SymmetricKey::FromSeed("k")) {
    options_.hash_partitions = 2;
  }

  Cluster cluster_;
  SymmetricKey key_;
  MiniCryptOptions options_;
};

TEST_F(FacadeTest, EncryptedBaselineRoundTripAndRange) {
  options_.table = "base";
  EncryptedBaselineClient client(&cluster_, options_, key_);
  ASSERT_TRUE(client.CreateTable().ok());
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(client.Put(k, "value-" + std::to_string(k)).ok());
  }
  auto v = client.Get(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "value-7");
  EXPECT_TRUE(client.Get(999).status().IsNotFound());
  auto range = client.GetRange(10, 20);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 11u);
  EXPECT_EQ(range->front().first, 10u);
}

TEST_F(FacadeTest, BaselineValuesAreEncryptedAtRest) {
  options_.table = "base2";
  EncryptedBaselineClient client(&cluster_, options_, key_);
  ASSERT_TRUE(client.CreateTable().ok());
  const std::string marker = "SECRET_MARKER_VALUE_1234567890";
  ASSERT_TRUE(client.Put(1, marker).ok());
  const std::string encoded = EncodeKey64(1);
  auto row = cluster_.Read("base2", PartitionForKey(encoded, options_.hash_partitions),
                           encoded);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value.find(marker), std::string::npos);
}

TEST_F(FacadeTest, VanillaRoundTripAndPlaintextAtRest) {
  options_.table = "van";
  VanillaClient client(&cluster_, options_);
  ASSERT_TRUE(client.CreateTable().ok());
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(client.Put(k, "plain-" + std::to_string(k)).ok());
  }
  auto v = client.Get(3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "plain-3");
  auto range = client.GetRange(0, 29);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 30u);
  // Vanilla stores plaintext (that is its point of comparison).
  const std::string encoded = EncodeKey64(3);
  auto row =
      cluster_.Read("van", PartitionForKey(encoded, options_.hash_partitions), encoded);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "plain-3");
}

}  // namespace
}  // namespace minicrypt
