#include "src/core/append/append_client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/common/clock.h"
#include "src/common/coding.h"
#include "src/core/append/em_service.h"
#include "src/kvstore/fault_injector.h"

namespace minicrypt {
namespace {

// APPEND-mode tests drive epochs with a simulated clock and run EM / merger
// passes synchronously, so every schedule is deterministic.
class AppendModeTest : public ::testing::Test {
 protected:
  AppendModeTest()
      : clock_(1'000'000'000),  // arbitrary epoch start
        cluster_(ClusterOptions::ForTest()),
        key_(SymmetricKey::FromSeed("tenant")) {
    options_.table = "ts_data";
    options_.pack_rows = 4;
    options_.epoch_micros = 2'000'000;
    options_.t_delta_micros = 500'000;
    options_.t_drift_micros = 200'000;
    options_.client_timeout_micros = 100'000'000;  // liveness driven manually
    EXPECT_TRUE(options_.Validate().ok());
    em_ = std::make_unique<EmService>(&cluster_, options_, "em1", &clock_);
    EXPECT_TRUE(em_->Bootstrap().ok());
    EXPECT_TRUE(em_->Tick().ok());
    EXPECT_TRUE(em_->IsMaster());
    client_ = std::make_unique<AppendClient>(&cluster_, options_, key_, "c1", &clock_);
    EXPECT_TRUE(client_->Register().ok());
  }

  // Advances time one epoch and runs the EM + client heartbeat.
  void NextEpoch() {
    clock_.Advance(options_.epoch_micros + 1000);
    ASSERT_TRUE(client_->HeartbeatOnce().ok());
    ASSERT_TRUE(em_->Tick().ok());
    ASSERT_TRUE(client_->HeartbeatOnce().ok());  // re-sync c_epoch
  }

  SimulatedClock clock_;
  Cluster cluster_;
  SymmetricKey key_;
  MiniCryptOptions options_;
  std::unique_ptr<EmService> em_;
  std::unique_ptr<AppendClient> client_;
};

TEST_F(AppendModeTest, BootstrapSeedsEpochOne) {
  auto g = em_->ReadGlobalEpoch();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(*g, 1u);
  EXPECT_EQ(client_->local_epoch(), 1u);
}

TEST_F(AppendModeTest, EpochAdvancesWithTime) {
  NextEpoch();
  EXPECT_EQ(*em_->ReadGlobalEpoch(), 2u);
  EXPECT_EQ(client_->local_epoch(), 2u);
  // No double-advance within the same epoch window.
  ASSERT_TRUE(em_->Tick().ok());
  EXPECT_EQ(*em_->ReadGlobalEpoch(), 2u);
  NextEpoch();
  EXPECT_EQ(*em_->ReadGlobalEpoch(), 3u);
}

TEST_F(AppendModeTest, PutThenGetFromOpenEpoch) {
  ASSERT_TRUE(client_->Put(42, "fresh").ok());
  auto v = client_->Get(42);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "fresh");
  EXPECT_TRUE(client_->Get(43).status().IsNotFound());
}

TEST_F(AppendModeTest, GetAfterEpochRollsUsesStatsMinKeys) {
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(client_->Put(k, "e1-" + std::to_string(k)).ok());
  }
  NextEpoch();  // epoch 1 closes; EM records its min key
  for (uint64_t k = 10; k < 20; ++k) {
    ASSERT_TRUE(client_->Put(k, "e2-" + std::to_string(k)).ok());
  }
  NextEpoch();
  // Keys of both closed epochs remain readable pre-merge.
  for (uint64_t k = 0; k < 20; ++k) {
    auto v = client_->Get(k);
    ASSERT_TRUE(v.ok()) << k << ": " << v.status().ToString();
    EXPECT_EQ(*v, (k < 10 ? "e1-" : "e2-") + std::to_string(k));
  }
}

TEST_F(AppendModeTest, MergeFoldsClosedEpochIntoPacks) {
  for (uint64_t k = 0; k < 12; ++k) {
    ASSERT_TRUE(client_->Put(k, "v" + std::to_string(k)).ok());
  }
  NextEpoch();
  for (uint64_t k = 12; k < 24; ++k) {
    ASSERT_TRUE(client_->Put(k, "v" + std::to_string(k)).ok());
  }
  NextEpoch();
  NextEpoch();  // g_epoch = 4: epochs 1, 2 are mergeable (e + 2 <= g)
  ASSERT_TRUE(client_->MergeOnce().ok());
  EXPECT_GE(client_->stats().epochs_merged.load(), 1u);
  EXPECT_GT(client_->stats().packs_written.load(), 0u);
  // Epoch 1's keys [0, kmin(2)=12) are merged; every key still readable.
  for (uint64_t k = 0; k < 24; ++k) {
    auto v = client_->Get(k);
    ASSERT_TRUE(v.ok()) << k << ": " << v.status().ToString();
    EXPECT_EQ(*v, "v" + std::to_string(k));
  }
  // Pack rows actually exist in epoch 0.
  auto packs = cluster_.ReadRange(options_.table, EpochPartition(kMergedEpoch), "",
                                  std::string(16, '\xff'));
  ASSERT_TRUE(packs.ok());
  EXPECT_GE(packs->size(), 3u);  // 12 keys / pack_rows 4
}

TEST_F(AppendModeTest, DeleteDropsFullyMergedEpochs) {
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (uint64_t k = 0; k < 8; ++k) {
      ASSERT_TRUE(client_->Put(static_cast<uint64_t>(epoch) * 8 + k, "x").ok());
    }
    NextEpoch();
  }
  NextEpoch();
  ASSERT_TRUE(client_->MergeOnce().ok());
  ASSERT_TRUE(client_->MergeOnce().ok());  // later epochs may unlock after first pass
  const uint64_t merged = client_->stats().epochs_merged.load();
  EXPECT_GE(merged, 2u);
  ASSERT_TRUE(client_->DeleteMergedOnce().ok());
  EXPECT_GE(client_->stats().epochs_deleted.load(), 1u);
  // All keys that were merged remain readable after their epochs are dropped.
  for (uint64_t k = 0; k < 16; ++k) {
    auto v = client_->Get(k);
    ASSERT_TRUE(v.ok()) << k;
  }
}

TEST_F(AppendModeTest, DuplicateMergersAreHarmless) {
  AppendClient clone(&cluster_, options_, key_, "c1", &clock_);  // same id
  ASSERT_TRUE(clone.Register().ok());
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(client_->Put(k, "v" + std::to_string(k)).ok());
  }
  NextEpoch();
  for (uint64_t k = 10; k < 20; ++k) {
    ASSERT_TRUE(client_->Put(k, "w" + std::to_string(k)).ok());
  }
  NextEpoch();
  NextEpoch();
  // Both "clients" merge the same epoch; determinism + IF NOT EXISTS make the
  // second a no-op.
  ASSERT_TRUE(client_->MergeOnce().ok());
  ASSERT_TRUE(clone.MergeOnce().ok());
  auto packs = cluster_.ReadRange(options_.table, EpochPartition(kMergedEpoch), "",
                                  std::string(16, '\xff'));
  ASSERT_TRUE(packs.ok());
  EXPECT_EQ(packs->size(), 3u);  // 10 keys / 4 per pack = 3 packs, no dupes
  for (uint64_t k = 0; k < 10; ++k) {
    auto v = client_->Get(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, "v" + std::to_string(k));
  }
}

TEST_F(AppendModeTest, EmSpreadsMergeableEpochsAcrossLiveClients) {
  AppendClient c2(&cluster_, options_, key_, "c2", &clock_);
  AppendClient c3(&cluster_, options_, key_, "c3", &clock_);
  ASSERT_TRUE(c2.Register().ok());
  ASSERT_TRUE(c3.Register().ok());
  // From g = 3 on, each tick finds one newly mergeable epoch (e + 2 <= g).
  for (int i = 0; i < 6; ++i) {
    NextEpoch();
  }
  ASSERT_EQ(*em_->ReadGlobalEpoch(), 7u);  // epochs 1..5 are assigned
  uint64_t merged = 0;
  for (AppendClient* c : {client_.get(), &c2, &c3}) {
    ASSERT_TRUE(c->MergeOnce().ok());
    EXPECT_GE(c->stats().epochs_merged.load(), 1u) << c->id() << " was assigned no epoch";
    merged += c->stats().epochs_merged.load();
  }
  EXPECT_EQ(merged, 5u);
}

TEST_F(AppendModeTest, OutOfOrderArrivalsWithinLagAreMergedCorrectly) {
  // Keys arrive slightly out of order across the epoch boundary (within
  // T_delta): a key smaller than epoch 2's min lands in epoch 2.
  for (uint64_t k : {0, 1, 2, 3, 4, 7, 9}) {
    ASSERT_TRUE(client_->Put(k, "a" + std::to_string(k)).ok());
  }
  NextEpoch();
  // Lagging writes: 8 (belongs near epoch 1's tail) then the new batch.
  ASSERT_TRUE(client_->Put(8, "late8").ok());
  for (uint64_t k = 10; k < 18; ++k) {
    ASSERT_TRUE(client_->Put(k, "b" + std::to_string(k)).ok());
  }
  NextEpoch();
  for (uint64_t k = 18; k < 26; ++k) {
    ASSERT_TRUE(client_->Put(k, "c" + std::to_string(k)).ok());
  }
  NextEpoch();
  NextEpoch();
  ASSERT_TRUE(client_->MergeOnce().ok());
  ASSERT_TRUE(client_->MergeOnce().ok());
  // Every key readable with the right value, including the laggard.
  auto v = client_->Get(8);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "late8");
  for (uint64_t k = 0; k < 5; ++k) {
    EXPECT_TRUE(client_->Get(k).ok()) << k;
  }
}

TEST_F(AppendModeTest, EmFailoverElectsNewMaster) {
  MiniCryptOptions fo = options_;
  fo.client_timeout_micros = 1'000'000;
  EmService em1(&cluster_, fo, "em-a", &clock_);
  EmService em2(&cluster_, fo, "em-b", &clock_);
  ASSERT_TRUE(em1.Bootstrap().ok());
  ASSERT_TRUE(em1.Tick().ok());
  // em1 holds mastership over the existing master row or becomes one of the
  // candidates; run em2 — it must defer while em1 is fresh.
  ASSERT_TRUE(em2.Tick().ok());
  EXPECT_FALSE(em1.IsMaster() && em2.IsMaster());

  // Let the active master's heartbeat go stale; the standby takes over.
  EmService* master = em1.IsMaster() ? &em1 : &em2;
  EmService* standby = em1.IsMaster() ? &em2 : &em1;
  (void)master;
  clock_.Advance(fo.client_timeout_micros * 3);
  ASSERT_TRUE(standby->Tick().ok());
  EXPECT_TRUE(standby->IsMaster());

  // The deposed master notices on its next tick.
  ASSERT_TRUE(master->Tick().ok());
  EXPECT_FALSE(master->IsMaster());
  // Exactly one master remains, and epochs still advance.
  clock_.Advance(fo.epoch_micros + 1000);
  ASSERT_TRUE(standby->Tick().ok());
  auto g = standby->ReadGlobalEpoch();
  ASSERT_TRUE(g.ok());
  EXPECT_GE(*g, 2u);
}

TEST_F(AppendModeTest, DeadClientEpochsReassigned) {
  MiniCryptOptions fo = options_;
  fo.client_timeout_micros = 1'000'000;
  EmService em(&cluster_, fo, "em-r", &clock_);
  ASSERT_TRUE(em.Bootstrap().ok());

  AppendClient doomed(&cluster_, fo, key_, "doomed", &clock_);
  ASSERT_TRUE(doomed.Register().ok());
  for (uint64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(doomed.Put(k, "x").ok());
  }
  // Close epochs 1 and 2 while only `doomed` is alive.
  clock_.Advance(fo.epoch_micros + 1000);
  ASSERT_TRUE(doomed.HeartbeatOnce().ok());
  ASSERT_TRUE(em.Tick().ok());
  for (uint64_t k = 6; k < 12; ++k) {
    ASSERT_TRUE(doomed.Put(k, "x").ok());
  }
  clock_.Advance(fo.epoch_micros + 1000);
  ASSERT_TRUE(doomed.HeartbeatOnce().ok());
  ASSERT_TRUE(em.Tick().ok());
  clock_.Advance(fo.epoch_micros + 1000);
  ASSERT_TRUE(doomed.HeartbeatOnce().ok());
  ASSERT_TRUE(em.Tick().ok());  // epoch 1 now mergeable; assigned to doomed

  // doomed dies; a healthy client registers; after the timeout the EM
  // reassigns doomed's epochs to it.
  AppendClient healthy(&cluster_, fo, key_, "healthy", &clock_);
  clock_.Advance(fo.client_timeout_micros * 2);
  ASSERT_TRUE(healthy.Register().ok());
  ASSERT_TRUE(em.Tick().ok());
  ASSERT_TRUE(healthy.MergeOnce().ok());
  EXPECT_GE(healthy.stats().epochs_merged.load(), 1u);
  for (uint64_t k = 0; k < 6; ++k) {
    EXPECT_TRUE(healthy.Get(k).ok()) << k;
  }
}

TEST_F(AppendModeTest, RangeQuerySpansPacksAndRawEpochs) {
  // Keys 0..11 will be merged into epoch-0 packs; 12..23 stay raw in closed
  // epochs; 24..29 sit in the open epoch. A range must see all of them once.
  for (uint64_t k = 0; k < 12; ++k) {
    ASSERT_TRUE(client_->Put(k, "a" + std::to_string(k)).ok());
  }
  NextEpoch();
  for (uint64_t k = 12; k < 24; ++k) {
    ASSERT_TRUE(client_->Put(k, "b" + std::to_string(k)).ok());
  }
  NextEpoch();
  NextEpoch();
  ASSERT_TRUE(client_->MergeOnce().ok());  // merges epoch 1 (keys 0..11)
  for (uint64_t k = 24; k < 30; ++k) {
    ASSERT_TRUE(client_->Put(k, "c" + std::to_string(k)).ok());
  }

  auto range = client_->GetRange(5, 27);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_EQ(range->size(), 23u);  // 5..27 inclusive
  for (size_t i = 0; i < range->size(); ++i) {
    const uint64_t k = 5 + i;
    EXPECT_EQ((*range)[i].first, k);
    const char prefix = k < 12 ? 'a' : (k < 24 ? 'b' : 'c');
    EXPECT_EQ((*range)[i].second, std::string(1, prefix) + std::to_string(k));
  }
  // Bounds behaviour.
  auto empty = client_->GetRange(500, 600);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(client_->GetRange(10, 5).ok());
}

TEST_F(AppendModeTest, BackgroundThreadsSmoke) {
  // Exercise the real PeriodicTask wiring briefly (real clock inside the
  // tasks is fine; they just run their passes).
  client_->Start();
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(client_->Put(100 + k, "bg").ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client_->Stop();
  for (uint64_t k = 0; k < 20; ++k) {
    EXPECT_TRUE(client_->Get(100 + k).ok());
  }
}

// An acknowledged append stays readable while the merged pack that now holds
// it has reached only the two replicas its LWT acked at. Client c1 lags an
// epoch advance and appends key 16 into epoch 1 after c2 has appended 8..15
// into epoch 2, so epoch 2's merge moves 16 into a pack of its own. The third
// leg of that pack's LWT is held back, and epoch 1, which held 16's only raw
// copy, is dropped. A Get makes seven CL=ONE reads over three replicas, so
// round robin sends its first and its last epoch-0 floor read to the same
// replica, in one Get of every three the replica missing the pack; the last
// read goes to a quorum, which always meets the LWT's.
TEST(AppendReadAfterMerge, GetFindsAKeyWhoseMergedPackMissesAReplica) {
  FaultInjector faults(/*seed=*/11);
  faults.set_latency_spike_base_micros(250'000);  // a delayed leg lands 0.25-1 s late
  ClusterOptions co = ClusterOptions::ForTest();
  co.node_count = 3;
  co.replication_factor = 3;
  co.replica_fanout_threads = 4;  // legs run concurrently; the LWT acks at two
  co.fault_injector = &faults;
  Cluster cluster(co);  // real clock: the delayed leg really is pending
  SimulatedClock clock(1'000'000'000);
  MiniCryptOptions options;
  options.table = "ts_data";
  options.pack_rows = 4;
  options.epoch_micros = 2'000'000;
  options.t_delta_micros = 500'000;
  options.t_drift_micros = 200'000;
  options.client_timeout_micros = 100'000'000;
  ASSERT_TRUE(options.Validate().ok());
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  EmService em(&cluster, options, "em1", &clock);
  ASSERT_TRUE(em.Bootstrap().ok());
  ASSERT_TRUE(em.Tick().ok());
  AppendClient c1(&cluster, options, key, "c1", &clock);
  AppendClient c2(&cluster, options, key, "c2", &clock);
  ASSERT_TRUE(c1.Register().ok());
  ASSERT_TRUE(c2.Register().ok());
  // Every write lands on every replica before the next EM or merge pass
  // reads it, so only the scripted leg below ever lags.
  auto next_epoch = [&](std::initializer_list<AppendClient*> syncing) {
    cluster.Quiesce();
    clock.Advance(options.epoch_micros + 1000);
    ASSERT_TRUE(em.Tick().ok());
    cluster.Quiesce();
    for (AppendClient* c : syncing) {
      ASSERT_TRUE(c->HeartbeatOnce().ok());
    }
    cluster.Quiesce();
  };
  auto put = [](AppendClient* c, uint64_t first, uint64_t last) {
    for (uint64_t k = first; k <= last; ++k) {
      ASSERT_TRUE(c->Put(k, "v" + std::to_string(k)).ok()) << k;
    }
  };
  put(&c2, 0, 7);
  next_epoch({&c2});  // g = 2; c1 still appends into epoch 1
  put(&c2, 8, 15);
  put(&c1, 16, 16);
  next_epoch({&c1, &c2});  // g = 3: epoch 1 merges keys [0, 8)
  put(&c2, 24, 31);
  ASSERT_TRUE(c1.MergeOnce().ok());
  ASSERT_TRUE(c2.MergeOnce().ok());
  next_epoch({&c1, &c2});  // g = 4: epoch 2 merges [8, 24), 16 from epoch 1
  ASSERT_EQ(c1.local_epoch(), 4u);
  ASSERT_EQ(c2.local_epoch(), 4u);

  // Epoch 2's merge writes packs {8..11}, {12..15} and {16}, one LWT of three
  // legs each: the ninth leg is the third replica's copy of {16}.
  faults.Script(FaultPoint::kReplicaDelay, 9);
  ASSERT_TRUE(c1.MergeOnce().ok());
  ASSERT_TRUE(c2.MergeOnce().ok());
  ASSERT_EQ(faults.trips(FaultPoint::kReplicaDelay), 1u);
  // Epoch 1 goes once a stats read sees epoch 2 MERGED.
  for (int i = 0; i < 1000 && c2.stats().epochs_deleted.load() == 0; ++i) {
    ASSERT_TRUE(c2.DeleteMergedOnce().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(c2.stats().epochs_deleted.load(), 1u);
  // Let the partition delete's (undelayed) legs land.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  for (int i = 0; i < 6; ++i) {
    auto v = c2.Get(16);
    EXPECT_EQ(v.ok() ? *v : v.status().ToString(), "v16") << "get " << i;
    // A range starting at a pack ID skips the boundary floor read, so only
    // the epoch-0 range read can find 16.
    auto range = c2.GetRange(8, 16);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_EQ(range->size(), 9u) << "range " << i;
    EXPECT_EQ(range->back(), std::make_pair(uint64_t{16}, std::string("v16"))) << "range " << i;
  }
  cluster.Quiesce();
  auto v = c2.Get(16);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "v16");
}

// Two clients that both see an epoch MERGED both try to drop it; the status
// flip is an LWT, so one of them owns the drop and counts it. The third leg
// of the first client's flip is held back, so one of the second client's
// next three CL=ONE stats reads, which round robin starts at each replica in
// turn, still sees MERGED.
TEST(AppendDeleteMerged, OneClientOwnsEachEpochDrop) {
  FaultInjector faults(/*seed=*/12);
  faults.set_latency_spike_base_micros(250'000);  // a delayed leg lands 0.25-1 s late
  ClusterOptions co = ClusterOptions::ForTest();
  co.node_count = 3;
  co.replication_factor = 3;
  co.replica_fanout_threads = 4;
  co.fault_injector = &faults;
  Cluster cluster(co);  // real clock: the delayed leg really is pending
  SimulatedClock clock(1'000'000'000);
  MiniCryptOptions options;
  options.table = "ts_data";
  options.pack_rows = 4;
  options.epoch_micros = 2'000'000;
  options.t_delta_micros = 500'000;
  options.t_drift_micros = 200'000;
  options.client_timeout_micros = 100'000'000;
  ASSERT_TRUE(options.Validate().ok());
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  EmService em(&cluster, options, "em1", &clock);
  ASSERT_TRUE(em.Bootstrap().ok());
  ASSERT_TRUE(em.Tick().ok());
  AppendClient c1(&cluster, options, key, "c1", &clock);
  AppendClient c2(&cluster, options, key, "c2", &clock);
  ASSERT_TRUE(c1.Register().ok());
  ASSERT_TRUE(c2.Register().ok());
  for (uint64_t first : {0, 8, 16}) {
    for (uint64_t k = first; k < first + 8; ++k) {
      ASSERT_TRUE(c1.Put(k, "v" + std::to_string(k)).ok()) << k;
    }
    cluster.Quiesce();
    clock.Advance(options.epoch_micros + 1000);
    ASSERT_TRUE(em.Tick().ok());
    cluster.Quiesce();
    ASSERT_TRUE(c1.HeartbeatOnce().ok());
    ASSERT_TRUE(c2.HeartbeatOnce().ok());
  }
  // g = 4: epochs 1 and 2 merge, one to each client; epoch 1 can then go.
  ASSERT_TRUE(c1.MergeOnce().ok());
  ASSERT_TRUE(c2.MergeOnce().ok());
  ASSERT_EQ(c1.stats().epochs_merged.load() + c2.stats().epochs_merged.load(), 2u);
  cluster.Quiesce();

  faults.Script(FaultPoint::kReplicaDelay, 3, options.table + ".meta");
  ASSERT_TRUE(c1.DeleteMergedOnce().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(c2.DeleteMergedOnce().ok());
  }
  cluster.Quiesce();
  ASSERT_EQ(faults.trips(FaultPoint::kReplicaDelay), 1u);
  EXPECT_EQ(c1.stats().epochs_deleted.load() + c2.stats().epochs_deleted.load(), 1u);
  EXPECT_EQ(c1.stats().keys_deleted.load() + c2.stats().keys_deleted.load(), 8u);
  auto rows = cluster.ReadRange(options.table, EpochPartition(1), "", std::string(16, '\xff'));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(rows->empty());
}

}  // namespace
}  // namespace minicrypt
