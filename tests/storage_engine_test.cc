#include "src/kvstore/storage_engine.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/kvstore/fault_injector.h"
#include "src/obs/metrics.h"

namespace minicrypt {
namespace {

Row ValueRow(std::string value, uint64_t ts) {
  Row row;
  row.cells["v"] = Cell{std::move(value), ts, false};
  return row;
}

// The partition-delete marker row (row.h), written at the empty clustering key.
Row PartitionTombstone(uint64_t ts) {
  Row row;
  row.cells[std::string(kPartitionTombstoneColumn)] = Cell{"", ts, true};
  return row;
}

class StorageEngineTest : public ::testing::Test {
 protected:
  StorageEngineTest() : cache_(1 << 20) { Recreate(); }

  void Recreate(size_t flush_bytes = 16 * 1024, int compaction_trigger = 4) {
    StorageEngineOptions opts;
    opts.memtable_flush_bytes = flush_bytes;
    opts.compaction_trigger = compaction_trigger;
    opts.sstable.block_bytes = 512;
    engine_ = std::make_unique<StorageEngine>(opts, &cache_, &media_,
                                              std::make_unique<MemoryLogSink>());
  }

  BlockCache cache_;
  NullMedia media_;
  std::unique_ptr<StorageEngine> engine_;
  uint64_t ts_ = 0;
};

TEST_F(StorageEngineTest, GetFromMemtable) {
  ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(5), ValueRow("five", ++ts_)).ok());
  auto row = engine_->Get("p1", EncodeKey64(5));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "five");
  EXPECT_FALSE(engine_->Get("p1", EncodeKey64(6)).ok());
  EXPECT_FALSE(engine_->Get("p2", EncodeKey64(5)).ok());
}

TEST_F(StorageEngineTest, GetAfterFlush) {
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(
        engine_->Apply("p1", EncodeKey64(k), ValueRow("v" + std::to_string(k), ++ts_)).ok());
  }
  ASSERT_TRUE(engine_->Flush().ok());
  EXPECT_EQ(engine_->MemtableBytes(), 0u);
  EXPECT_GE(engine_->SstableCount(), 1u);
  for (uint64_t k = 0; k < 100; ++k) {
    auto row = engine_->Get("p1", EncodeKey64(k));
    ASSERT_TRUE(row.ok()) << k;
    EXPECT_EQ(row->cells.at("v").value, "v" + std::to_string(k));
  }
}

TEST_F(StorageEngineTest, NewerCellWinsAcrossFlushBoundary) {
  ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(1), ValueRow("old", ++ts_)).ok());
  ASSERT_TRUE(engine_->Flush().ok());
  ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(1), ValueRow("new", ++ts_)).ok());
  auto row = engine_->Get("p1", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "new");
  ASSERT_TRUE(engine_->Flush().ok());
  row = engine_->Get("p1", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "new");
}

TEST_F(StorageEngineTest, CompactionPreservesNewestAndDropsShadowed) {
  Recreate(/*flush_bytes=*/16 * 1024, /*compaction_trigger=*/3);
  for (int round = 0; round < 5; ++round) {
    for (uint64_t k = 0; k < 50; ++k) {
      ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(k),
                                 ValueRow("r" + std::to_string(round), ++ts_))
                      .ok());
    }
    ASSERT_TRUE(engine_->Flush().ok());
  }
  EXPECT_LT(engine_->SstableCount(), 3u);  // compaction collapsed the runs
  for (uint64_t k = 0; k < 50; ++k) {
    auto row = engine_->Get("p1", EncodeKey64(k));
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->cells.at("v").value, "r4");
  }
}

TEST_F(StorageEngineTest, TombstoneHidesRowAndSurvivesCompaction) {
  ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(1), ValueRow("x", ++ts_)).ok());
  ASSERT_TRUE(engine_->Flush().ok());
  Row tomb;
  tomb.cells["v"] = Cell{"", ++ts_, true};
  ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(1), tomb).ok());
  EXPECT_FALSE(engine_->Get("p1", EncodeKey64(1)).ok());
  ASSERT_TRUE(engine_->Flush().ok());
  EXPECT_FALSE(engine_->Get("p1", EncodeKey64(1)).ok());
}

TEST_F(StorageEngineTest, FloorBasics) {
  for (uint64_t k : {10, 20, 30}) {
    ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(k), ValueRow("v", ++ts_)).ok());
  }
  auto floor = engine_->Floor("p1", EncodeKey64(25));
  ASSERT_TRUE(floor.ok());
  EXPECT_EQ(*DecodeKey64(floor->first), 20u);
  floor = engine_->Floor("p1", EncodeKey64(30));
  ASSERT_TRUE(floor.ok());
  EXPECT_EQ(*DecodeKey64(floor->first), 30u);  // inclusive
  EXPECT_FALSE(engine_->Floor("p1", EncodeKey64(9)).ok());
  EXPECT_FALSE(engine_->Floor("p2", EncodeKey64(25)).ok());
}

TEST_F(StorageEngineTest, FloorAcrossMemtableAndSstables) {
  ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(10), ValueRow("a", ++ts_)).ok());
  ASSERT_TRUE(engine_->Flush().ok());
  ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(20), ValueRow("b", ++ts_)).ok());
  auto floor = engine_->Floor("p1", EncodeKey64(25));
  ASSERT_TRUE(floor.ok());
  EXPECT_EQ(*DecodeKey64(floor->first), 20u);  // memtable candidate wins
  floor = engine_->Floor("p1", EncodeKey64(15));
  ASSERT_TRUE(floor.ok());
  EXPECT_EQ(*DecodeKey64(floor->first), 10u);  // sstable candidate wins
}

TEST_F(StorageEngineTest, FloorSkipsFullyDeletedRows) {
  ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(10), ValueRow("keep", ++ts_)).ok());
  ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(20), ValueRow("kill", ++ts_)).ok());
  Row tomb;
  tomb.cells["v"] = Cell{"", ++ts_, true};
  ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(20), tomb).ok());
  auto floor = engine_->Floor("p1", EncodeKey64(25));
  ASSERT_TRUE(floor.ok());
  EXPECT_EQ(*DecodeKey64(floor->first), 10u);
}

TEST_F(StorageEngineTest, FloorDoesNotCrossPartitions) {
  ASSERT_TRUE(engine_->Apply("alpha", EncodeKey64(10), ValueRow("a", ++ts_)).ok());
  ASSERT_TRUE(engine_->Flush().ok());
  EXPECT_FALSE(engine_->Floor("beta", EncodeKey64(99)).ok());
}

TEST_F(StorageEngineTest, ScanOrderedAndBounded) {
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(k * 2),
                               ValueRow(std::to_string(k * 2), ++ts_))
                    .ok());
    if (k == 20) {
      ASSERT_TRUE(engine_->Flush().ok());
    }
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(engine_
                  ->Scan("p1", EncodeKey64(10), EncodeKey64(30), 0,
                         [&](std::string_view clustering, const Row& row) {
                           seen.push_back(*DecodeKey64(clustering));
                           return true;
                         })
                  .ok());
  ASSERT_EQ(seen.size(), 11u);  // 10,12,...,30 inclusive
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 10 + 2 * i);
  }
}

TEST_F(StorageEngineTest, ScanHonorsLimit) {
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(k), ValueRow("v", ++ts_)).ok());
  }
  int count = 0;
  ASSERT_TRUE(engine_
                  ->Scan("p1", EncodeKey64(0), EncodeKey64(100), 5,
                         [&](std::string_view clustering, const Row& row) {
                           ++count;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(count, 5);
}

TEST_F(StorageEngineTest, PartitionTombstoneHidesOlderData) {
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(engine_->Apply("epoch3", EncodeKey64(k), ValueRow("old", ++ts_)).ok());
  }
  ASSERT_TRUE(engine_->Flush().ok());
  ASSERT_TRUE(engine_->Apply("epoch3", "", PartitionTombstone(++ts_)).ok());
  for (uint64_t k = 0; k < 10; ++k) {
    EXPECT_FALSE(engine_->Get("epoch3", EncodeKey64(k)).ok());
  }
  int scanned = 0;
  ASSERT_TRUE(engine_
                  ->Scan("epoch3", EncodeKey64(0), EncodeKey64(100), 0,
                         [&](std::string_view clustering, const Row& row) {
                           ++scanned;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(scanned, 0);
  // Writes after the tombstone are visible again.
  ASSERT_TRUE(engine_->Apply("epoch3", EncodeKey64(4), ValueRow("new", ++ts_)).ok());
  auto row = engine_->Get("epoch3", EncodeKey64(4));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "new");
}

TEST_F(StorageEngineTest, PartitionTombstoneSurvivesFlushAndCompaction) {
  Recreate(/*flush_bytes=*/16 * 1024, /*compaction_trigger=*/2);
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(engine_->Apply("e1", EncodeKey64(k), ValueRow("old", ++ts_)).ok());
  }
  ASSERT_TRUE(engine_->Flush().ok());
  ASSERT_TRUE(engine_->Apply("e1", "", PartitionTombstone(++ts_)).ok());
  ASSERT_TRUE(engine_->Flush().ok());  // triggers compaction at 2 tables
  for (uint64_t k = 0; k < 10; ++k) {
    EXPECT_FALSE(engine_->Get("e1", EncodeKey64(k)).ok());
  }
}

TEST_F(StorageEngineTest, CommitLogReplayRestoresMemtable) {
  auto sink = std::make_unique<MemoryLogSink>();
  LogSink* raw_sink = sink.get();
  StorageEngineOptions opts;
  opts.memtable_flush_bytes = 1 << 20;
  StorageEngine first(opts, &cache_, &media_, std::move(sink));
  ASSERT_TRUE(first.Apply("p1", EncodeKey64(1), ValueRow("crashsafe", 1)).ok());
  ASSERT_TRUE(first.Apply("p1", EncodeKey64(2), ValueRow("also", 2)).ok());

  // Simulate a crash: build a second engine over a sink holding the same
  // bytes and replay.
  std::string log_bytes;
  ASSERT_TRUE(raw_sink->ReadAll(&log_bytes).ok());
  auto sink2 = std::make_unique<MemoryLogSink>();
  ASSERT_TRUE(sink2->Append(log_bytes).ok());
  StorageEngine second(opts, &cache_, &media_, std::move(sink2));
  ASSERT_TRUE(second.RecoverFromLog().ok());
  auto row = second.Get("p1", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "crashsafe");
  EXPECT_TRUE(second.Get("p1", EncodeKey64(2)).ok());
}

TEST_F(StorageEngineTest, CommitLogReplayStopsAtTornRecord) {
  auto sink = std::make_unique<MemoryLogSink>();
  LogSink* raw_sink = sink.get();
  StorageEngineOptions opts;
  opts.memtable_flush_bytes = 1 << 20;
  StorageEngine first(opts, &cache_, &media_, std::move(sink));
  ASSERT_TRUE(first.Apply("p1", EncodeKey64(1), ValueRow("intact", 1)).ok());
  ASSERT_TRUE(first.Apply("p1", EncodeKey64(2), ValueRow("torn", 2)).ok());

  std::string log_bytes;
  ASSERT_TRUE(raw_sink->ReadAll(&log_bytes).ok());
  log_bytes.resize(log_bytes.size() - 3);  // tear the tail record
  auto sink2 = std::make_unique<MemoryLogSink>();
  ASSERT_TRUE(sink2->Append(log_bytes).ok());
  StorageEngine second(opts, &cache_, &media_, std::move(sink2));
  ASSERT_TRUE(second.RecoverFromLog().ok());
  EXPECT_TRUE(second.Get("p1", EncodeKey64(1)).ok());
  EXPECT_FALSE(second.Get("p1", EncodeKey64(2)).ok());
}

TEST_F(StorageEngineTest, AutomaticFlushOnThreshold) {
  Recreate(/*flush_bytes=*/2048);
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(engine_->Apply("p1", EncodeKey64(k), ValueRow(std::string(64, 'x'), ++ts_)).ok());
  }
  EXPECT_GE(engine_->SstableCount(), 1u);
  for (uint64_t k = 0; k < 200; ++k) {
    EXPECT_TRUE(engine_->Get("p1", EncodeKey64(k)).ok()) << k;
  }
}

TEST_F(StorageEngineTest, CrashWithoutTornTailRecoversEverything) {
  StorageEngineOptions opts;
  opts.memtable_flush_bytes = 1 << 20;
  StorageEngine engine(opts, &cache_, &media_, std::make_unique<MemoryLogSink>());
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(engine.Apply("p1", EncodeKey64(k), ValueRow("v", ++ts_)).ok());
  }
  ASSERT_TRUE(engine.Crash(/*tear_draw=*/0).ok());
  // The memtable is gone until recovery replays the log.
  EXPECT_EQ(engine.MemtableBytes(), 0u);
  EXPECT_TRUE(engine.Get("p1", EncodeKey64(0)).status().IsNotFound());
  ASSERT_TRUE(engine.RecoverFromLog().ok());
  for (uint64_t k = 0; k < 20; ++k) {
    EXPECT_TRUE(engine.Get("p1", EncodeKey64(k)).ok()) << k;
  }
}

TEST_F(StorageEngineTest, CrashTearsUnsyncedTailAndRecoveryKeepsAPrefix) {
  StorageEngineOptions opts;
  opts.memtable_flush_bytes = 1 << 20;
  opts.commitlog_sync_every_appends = 1000;  // everything sits in the unsynced tail
  StorageEngine engine(opts, &cache_, &media_, std::make_unique<MemoryLogSink>());
  constexpr uint64_t kRows = 20;
  for (uint64_t k = 0; k < kRows; ++k) {
    ASSERT_TRUE(engine.Apply("p1", EncodeKey64(k), ValueRow("v", ++ts_)).ok());
  }
  // A 37-byte tear lands mid-record near the tail (records are larger than
  // 2 bytes, smaller than 37, so at least one but not all are lost).
  ASSERT_TRUE(engine.Crash(/*tear_draw=*/37).ok());
  ASSERT_TRUE(engine.RecoverFromLog().ok());
  uint64_t recovered = 0;
  while (recovered < kRows && engine.Get("p1", EncodeKey64(recovered)).ok()) {
    ++recovered;
  }
  EXPECT_GE(recovered, 1u);
  EXPECT_LT(recovered, kRows);  // the torn tail lost at least one record
  // Strictly a prefix: nothing after the first missing key survived.
  for (uint64_t k = recovered; k < kRows; ++k) {
    EXPECT_TRUE(engine.Get("p1", EncodeKey64(k)).status().IsNotFound()) << k;
  }
  // Post-recovery writes append cleanly and survive an immediate clean crash.
  ASSERT_TRUE(engine.Apply("p1", EncodeKey64(100), ValueRow("fresh", ++ts_)).ok());
  ASSERT_TRUE(engine.Crash(/*tear_draw=*/0).ok());
  ASSERT_TRUE(engine.RecoverFromLog().ok());
  EXPECT_TRUE(engine.Get("p1", EncodeKey64(100)).ok());
  EXPECT_EQ(recovered, [&] {
    uint64_t again = 0;
    while (again < kRows && engine.Get("p1", EncodeKey64(again)).ok()) ++again;
    return again;
  }());
}

TEST_F(StorageEngineTest, CorruptBlockReadsErrorAndScrubQuarantines) {
  FaultInjector injector(0xC0);
  injector.SetRate(FaultPoint::kMediaCorruption, 1.0);
  StorageEngineOptions opts;
  opts.memtable_flush_bytes = 1 << 20;
  opts.sstable.block_bytes = 512;
  opts.fault_injector = &injector;
  StorageEngine engine(opts, &cache_, &media_, std::make_unique<MemoryLogSink>());
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(engine.Apply("p1", EncodeKey64(k), ValueRow("v" + std::to_string(k), ++ts_)).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());  // rate 1.0: every block of the table is corrupted
  ASSERT_EQ(engine.SstableCount(), 1u);

  // Detection, not silence: every read of the table reports Corruption —
  // never NotFound, never bad data.
  Counter* detected = MetricsRegistry::Instance().GetCounter("storage.corruption.detected");
  const uint64_t detected_before = detected->Value();
  for (uint64_t k = 0; k < 50; ++k) {
    EXPECT_TRUE(engine.Get("p1", EncodeKey64(k)).status().IsCorruption()) << k;
  }
  EXPECT_GT(detected->Value(), detected_before);

  // Scrub phase 1 marks the table but keeps it in the read set.
  std::vector<QuarantinedRange> ranges;
  ASSERT_TRUE(engine.Scrub(&ranges).ok());
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_GT(ranges[0].blocks, 0u);
  EXPECT_EQ(ranges[0].entries, 50u);
  EXPECT_LE(ranges[0].smallest, ranges[0].largest);
  EXPECT_EQ(engine.QuarantinedCount(), 1u);
  EXPECT_EQ(engine.SstableCount(), 1u);
  EXPECT_TRUE(engine.Get("p1", EncodeKey64(0)).status().IsCorruption());

  // Phase 2 (after the cluster would have re-streamed the range) removes it.
  EXPECT_EQ(engine.DropQuarantined(), 1u);
  EXPECT_EQ(engine.QuarantinedCount(), 0u);
  EXPECT_EQ(engine.SstableCount(), 0u);

  // Scrub is idempotent on a clean engine.
  ranges.clear();
  ASSERT_TRUE(engine.Scrub(&ranges).ok());
  EXPECT_TRUE(ranges.empty());
}

TEST_F(StorageEngineTest, CompactionSkipsWhenAnInputTableIsCorrupt) {
  FaultInjector injector(0xC1);
  injector.Script(FaultPoint::kMediaCorruption, 1);  // corrupt one block of the first flush
  StorageEngineOptions opts;
  opts.memtable_flush_bytes = 1 << 20;
  opts.compaction_trigger = 2;
  opts.sstable.block_bytes = 256;
  opts.fault_injector = &injector;
  StorageEngine engine(opts, &cache_, &media_, std::make_unique<MemoryLogSink>());
  Counter* skipped = MetricsRegistry::Instance().GetCounter("engine.compaction.skipped_corrupt");
  const uint64_t skipped_before = skipped->Value();
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(engine.Apply("p1", EncodeKey64(k), ValueRow("a", ++ts_)).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  for (uint64_t k = 40; k < 80; ++k) {
    ASSERT_TRUE(engine.Apply("p1", EncodeKey64(k), ValueRow("b", ++ts_)).ok());
  }
  // This flush reaches the compaction trigger; the merge hits the corrupt
  // block and backs out without failing the flush.
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.SstableCount(), 2u);  // not compacted
  EXPECT_GT(skipped->Value(), skipped_before);
  // Rows outside the corrupt block still read fine.
  EXPECT_TRUE(engine.Get("p1", EncodeKey64(79)).ok());
}

// Parks the first Read after Arm() until Release(), so a test can act
// between a read's SSTable snapshot and its memtable lookup.
class ParkingMedia : public Media {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void Read(size_t /*bytes*/) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) {
      return;
    }
    armed_ = false;
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }
  void Write(size_t /*bytes*/, bool /*sequential*/) override {}
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool parked_ = false;
  bool released_ = false;
};

// A read snapshots the SSTable list, then reads tables and the memtable. A
// flush in between moves the memtable's rows into a table the snapshot does
// not hold; the read must still see them.
TEST(StorageEngineSnapshot, ReadRacingAFlushSeesTheFlushedRows) {
  StorageEngineOptions opts;
  opts.sstable.block_bytes = 512;
  ParkingMedia media;
  StorageEngine engine(opts, /*cache=*/nullptr, &media, std::make_unique<MemoryLogSink>());
  // An older table holding the partition marker: the read's tombstone lookup
  // fetches its block, and parks, after the snapshot.
  ASSERT_TRUE(engine.Apply("p", "", PartitionTombstone(1)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_TRUE(engine.Apply("p", EncodeKey64(7), ValueRow("seven", 2)).ok());
  media.Arm();
  Result<Row> row = Status::Internal("read never ran");
  std::thread reader([&] { row = engine.Get("p", EncodeKey64(7)); });
  media.WaitParked();
  EXPECT_TRUE(engine.Flush().ok());  // the row moves into a new table
  media.Release();
  reader.join();
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->cells.at("v").value, "seven");
}

}  // namespace
}  // namespace minicrypt
