#include "src/core/generic_client.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/crypto/ope.h"

namespace minicrypt {
namespace {

class GenericClientTest : public ::testing::Test {
 protected:
  GenericClientTest()
      : cluster_(ClusterOptions::ForTest()), key_(SymmetricKey::FromSeed("tenant")) {
    options_.pack_rows = 4;          // small packs so splits happen fast
    options_.hash_partitions = 2;
    client_ = std::make_unique<GenericClient>(&cluster_, options_, key_);
    EXPECT_TRUE(client_->CreateTable().ok());
  }

  Cluster cluster_;
  SymmetricKey key_;
  MiniCryptOptions options_;
  std::unique_ptr<GenericClient> client_;
};

TEST_F(GenericClientTest, PutGetRoundTrip) {
  ASSERT_TRUE(client_->Put(1, "one").ok());
  ASSERT_TRUE(client_->Put(2, "two").ok());
  auto v = client_->Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "one");
  v = client_->Get(2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "two");
}

TEST_F(GenericClientTest, GetMissingKeyIsNotFound) {
  ASSERT_TRUE(client_->Put(10, "x").ok());
  EXPECT_TRUE(client_->Get(11).status().IsNotFound());
  EXPECT_TRUE(client_->Get(9).status().IsNotFound());
}

TEST_F(GenericClientTest, OverwriteUpdatesValue) {
  ASSERT_TRUE(client_->Put(5, "v1").ok());
  ASSERT_TRUE(client_->Put(5, "v2").ok());
  auto v = client_->Get(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v2");
}

TEST_F(GenericClientTest, DeleteRemovesKeyButPackRemains) {
  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(client_->Put(k, "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(client_->Delete(2).ok());
  EXPECT_TRUE(client_->Get(2).status().IsNotFound());
  EXPECT_TRUE(client_->Get(1).ok());
  EXPECT_TRUE(client_->Get(3).ok());
  // Deleting a key whose pack does not exist is a no-op.
  EXPECT_TRUE(client_->Delete(999999).ok());
}

TEST_F(GenericClientTest, DeleteEntirePackLeavesEmptyPackReadable) {
  // Paper §5.3: packs are never removed, even when empty.
  for (uint64_t k = 100; k < 104; ++k) {
    ASSERT_TRUE(client_->Put(k, "x").ok());
  }
  for (uint64_t k = 100; k < 104; ++k) {
    ASSERT_TRUE(client_->Delete(k).ok());
  }
  for (uint64_t k = 100; k < 104; ++k) {
    EXPECT_TRUE(client_->Get(k).status().IsNotFound());
  }
  // New inserts into the (empty but present) pack work.
  ASSERT_TRUE(client_->Put(102, "back").ok());
  auto v = client_->Get(102);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "back");
}

TEST_F(GenericClientTest, ManyInsertsTriggerSplitsAndStayReadable) {
  const uint64_t n = 500;
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(client_->Put(k * 7 % n, "val-" + std::to_string(k * 7 % n)).ok());
  }
  EXPECT_GT(client_->stats().splits.load(), 0u);
  for (uint64_t k = 0; k < n; ++k) {
    auto v = client_->Get(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, "val-" + std::to_string(k));
  }
}

TEST_F(GenericClientTest, BulkLoadThenReadEverything) {
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 300; ++k) {
    rows.emplace_back(k, "bulk-" + std::to_string(k));
  }
  ASSERT_TRUE(client_->BulkLoad(rows).ok());
  for (uint64_t k = 0; k < 300; ++k) {
    auto v = client_->Get(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, "bulk-" + std::to_string(k));
  }
}

// A cacheless client's Get opens its pack only through the key (a point
// decode). That prefix pack must never reach a pack cache or a seal:
// re-sealing it would drop every row after the key. A cacheless and a cached
// client share the cluster and, pack by pack, each alternates a Get of the
// pack's first key with a Put of its last; every key must then read back.
TEST_F(GenericClientTest, PointReadPrefixesNeverReachACacheOrASeal) {
  Rng rng(29);
  std::map<uint64_t, std::string> expected;
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 120; ++k) {
    // Incompressible values, so a pack spans several inflate steps.
    expected[k] = "v0-" + rng.Bytes(600);
    rows.emplace_back(k, expected[k]);
  }
  ASSERT_TRUE(client_->BulkLoad(rows).ok());
  MiniCryptOptions cached_options = options_;
  cached_options.cache_capacity_bytes = 4 << 20;
  GenericClient cached(&cluster_, cached_options, key_);
  ASSERT_NE(cached.pack_cache(), nullptr);
  ASSERT_EQ(client_->pack_cache(), nullptr);

  // Every pack's first and last key, as the server holds them.
  PackCrypter crypter(options_, key_);
  std::vector<std::pair<uint64_t, uint64_t>> packs;
  for (int p = 0; p < options_.hash_partitions; ++p) {
    auto stored = cluster_.ReadRange(options_.table, PartitionLabel(p), "", std::string(9, '\xff'));
    ASSERT_TRUE(stored.ok());
    for (const auto& [pack_id, row] : *stored) {
      auto pack = crypter.Open(row.cells.at("v").value, pack_id);
      ASSERT_TRUE(pack.ok()) << pack.status().ToString();
      ASSERT_FALSE(pack->empty());
      packs.emplace_back(*DecodeKey64(pack->entries().front().key),
                         *DecodeKey64(pack->entries().back().key));
    }
  }
  ASSERT_GT(packs.size(), 10u);

  int round = 0;
  for (const auto& [first, last] : packs) {
    for (GenericClient* c : {client_.get(), &cached}) {
      auto v = c->Get(first);
      ASSERT_TRUE(v.ok()) << first << ": " << v.status().ToString();
      EXPECT_EQ(*v, expected[first]) << first;
      expected[last] = "v" + std::to_string(++round) + "-" + rng.Bytes(600);
      ASSERT_TRUE(c->Put(last, expected[last]).ok()) << last;
    }
  }
  for (GenericClient* c : {client_.get(), &cached}) {
    for (const auto& [k, value] : expected) {
      auto v = c->Get(k);
      ASSERT_TRUE(v.ok()) << k << ": " << v.status().ToString();
      EXPECT_EQ(*v, value) << k;
    }
  }
}

TEST_F(GenericClientTest, RangeQueryInclusiveBounds) {
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 200; ++k) {
    rows.emplace_back(k, std::to_string(k));
  }
  ASSERT_TRUE(client_->BulkLoad(rows).ok());
  auto out = client_->GetRange(50, 120);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 71u);
  EXPECT_EQ(out->front().first, 50u);
  EXPECT_EQ(out->back().first, 120u);
  for (size_t i = 1; i < out->size(); ++i) {
    EXPECT_EQ((*out)[i].first, (*out)[i - 1].first + 1);  // sorted, contiguous
  }
}

TEST_F(GenericClientTest, RangeQueryPartialOverlapAndEmpty) {
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 100; k < 150; ++k) {
    rows.emplace_back(k, "x");
  }
  ASSERT_TRUE(client_->BulkLoad(rows).ok());
  auto out = client_->GetRange(0, 105);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 6u);  // 100..105
  out = client_->GetRange(500, 600);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_FALSE(client_->GetRange(10, 5).ok());
}

TEST_F(GenericClientTest, RangeAfterMutationsSeesLatest) {
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 50; ++k) {
    rows.emplace_back(k, "old");
  }
  ASSERT_TRUE(client_->BulkLoad(rows).ok());
  ASSERT_TRUE(client_->Put(25, "new").ok());
  ASSERT_TRUE(client_->Delete(26).ok());
  auto out = client_->GetRange(20, 30);
  ASSERT_TRUE(out.ok());
  std::map<uint64_t, std::string> got(out->begin(), out->end());
  EXPECT_EQ(got.at(25), "new");
  EXPECT_EQ(got.count(26), 0u);
  EXPECT_EQ(got.size(), 10u);
}

// The paper's central write-safety property (§5.1): concurrent clients
// updating different keys in the same pack must not overwrite each other.
TEST_F(GenericClientTest, ConcurrentPutsToSamePackNoLostUpdates) {
  // Preload one pack's worth of keys so every writer lands in one pack.
  options_.pack_rows = 64;
  options_.hash_partitions = 1;
  GenericClient loader(&cluster_, options_, key_);
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 16; ++k) {
    rows.emplace_back(k, "initial");
  }
  ASSERT_TRUE(loader.BulkLoad(rows).ok());

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      GenericClient writer(&cluster_, options_, key_);
      ASSERT_TRUE(writer.Put(static_cast<uint64_t>(t), "from-" + std::to_string(t)).ok());
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    auto v = loader.Get(static_cast<uint64_t>(t));
    ASSERT_TRUE(v.ok()) << t;
    EXPECT_EQ(*v, "from-" + std::to_string(t)) << "lost update for key " << t;
  }
  for (uint64_t k = kThreads; k < 16; ++k) {
    auto v = loader.Get(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "initial");
  }
}

TEST_F(GenericClientTest, ConcurrentMixedMutationsConverge) {
  options_.pack_rows = 8;
  options_.hash_partitions = 2;
  GenericClient loader(&cluster_, options_, key_);
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 64; ++k) {
    rows.emplace_back(k, "init");
  }
  ASSERT_TRUE(loader.BulkLoad(rows).ok());

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      GenericClient worker(&cluster_, options_, key_);
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int op = 0; op < 60; ++op) {
        const uint64_t key = rng.Uniform(96);  // includes fresh inserts
        if (rng.Bernoulli(0.8)) {
          ASSERT_TRUE(worker.Put(key, "t" + std::to_string(t)).ok());
        } else {
          ASSERT_TRUE(worker.Delete(key).ok());
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Convergence check: every key is either readable or NotFound, and reads
  // are self-consistent across two passes (no torn packs).
  for (uint64_t k = 0; k < 96; ++k) {
    auto first = loader.Get(k);
    auto second = loader.Get(k);
    EXPECT_EQ(first.ok(), second.ok()) << k;
    if (first.ok()) {
      EXPECT_EQ(*first, *second);
    } else {
      EXPECT_TRUE(first.status().IsNotFound());
    }
  }
}

// Paper §5.2: a client dying between the right-insert and the left-update
// leaves the store fully readable, and the next writer completes the split.
TEST_F(GenericClientTest, ClientCrashMidSplitIsRecoverable) {
  options_.pack_rows = 4;
  options_.hash_partitions = 1;
  GenericClient writer(&cluster_, options_, key_);
  // Fill one pack past max_keys (6) without triggering a split: bulk load
  // puts everything in one pack when pack_rows is raised for the loader.
  MiniCryptOptions big = options_;
  big.pack_rows = 16;
  GenericClient loader(&cluster_, big, key_);
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 8; ++k) {
    rows.emplace_back(k, "v" + std::to_string(k));
  }
  ASSERT_TRUE(loader.BulkLoad(rows).ok());

  // The next put sees size 8 > max_keys 6 and starts a split that "crashes"
  // after inserting the right half.
  writer.set_split_fail_point(GenericClient::SplitFailPoint::kAfterRightInsert);
  EXPECT_TRUE(writer.Put(3, "during-crash").IsAborted());
  writer.set_split_fail_point(GenericClient::SplitFailPoint::kNone);

  // Every key is still readable (right-half keys now come from the new pack;
  // left-half keys from the stale original).
  for (uint64_t k = 0; k < 8; ++k) {
    auto v = writer.Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k << " lost after crashed split";
    EXPECT_EQ(*v, "v" + std::to_string(k));
  }
  // A healthy writer completes the split and the update.
  ASSERT_TRUE(writer.Put(3, "after-recovery").ok());
  auto v = writer.Get(3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "after-recovery");
  for (uint64_t k = 0; k < 8; ++k) {
    if (k != 3) {
      auto other = writer.Get(k);
      ASSERT_TRUE(other.ok());
      EXPECT_EQ(*other, "v" + std::to_string(k));
    }
  }
}

// While a crashed split leaves the right half duplicated in the original
// pack, range queries must route every key to its authoritative pack (the
// one a floor query would pick) — otherwise they surface stale values and
// resurrect deleted keys from the shadowed copy.
TEST_F(GenericClientTest, RangeQueryIgnoresStaleShadowsAfterCrashedSplit) {
  options_.pack_rows = 4;
  options_.hash_partitions = 1;
  GenericClient writer(&cluster_, options_, key_);
  MiniCryptOptions big = options_;
  big.pack_rows = 16;
  GenericClient loader(&cluster_, big, key_);
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 8; ++k) {
    rows.emplace_back(k, "v" + std::to_string(k));
  }
  ASSERT_TRUE(loader.BulkLoad(rows).ok());

  writer.set_split_fail_point(GenericClient::SplitFailPoint::kAfterRightInsert);
  EXPECT_TRUE(writer.Put(3, "during-crash").IsAborted());
  writer.set_split_fail_point(GenericClient::SplitFailPoint::kNone);

  // Mutate only right-half keys so the stale left pack stays untouched:
  // update one key and delete another. Both route to the new right pack,
  // leaving outdated copies shadowed in the original.
  ASSERT_TRUE(writer.Put(6, "fresh").ok());
  ASSERT_TRUE(writer.Delete(7).ok());

  auto range = writer.GetRange(0, 7);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_EQ(range->size(), 7u) << "range leaked shadowed duplicates";
  for (uint64_t k = 0; k < 7; ++k) {
    EXPECT_EQ((*range)[k].first, k);
    EXPECT_EQ((*range)[k].second, k == 6 ? "fresh" : "v" + std::to_string(k));
  }
}

TEST_F(GenericClientTest, ConcurrentSplittersProduceOneConsistentOutcome) {
  options_.pack_rows = 4;
  options_.hash_partitions = 1;
  MiniCryptOptions big = options_;
  big.pack_rows = 32;
  GenericClient loader(&cluster_, big, key_);
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 12; ++k) {
    rows.emplace_back(k, "v");
  }
  ASSERT_TRUE(loader.BulkLoad(rows).ok());

  // Several writers race; each first sees the oversized pack and splits.
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      GenericClient worker(&cluster_, options_, key_);
      ASSERT_TRUE(worker.Put(static_cast<uint64_t>(t), "w" + std::to_string(t)).ok());
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (uint64_t k = 0; k < 12; ++k) {
    auto v = loader.Get(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, k < 6 ? "w" + std::to_string(k) : "v");
  }
}

TEST_F(GenericClientTest, EncryptedPackIdsMode) {
  MiniCryptOptions enc = options_;
  enc.table = "enc_table";
  enc.encrypt_pack_ids = true;
  enc.packid_bucket_width = 10;
  GenericClient client(&cluster_, enc, key_);
  ASSERT_TRUE(client.CreateTable().ok());

  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 100; ++k) {
    rows.emplace_back(k, "e" + std::to_string(k));
  }
  ASSERT_TRUE(client.BulkLoad(rows).ok());
  for (uint64_t k = 0; k < 100; ++k) {
    auto v = client.Get(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, "e" + std::to_string(k));
  }
  // Writes (including fresh keys) work through the PRF ids.
  ASSERT_TRUE(client.Put(42, "updated").ok());
  ASSERT_TRUE(client.Put(250, "fresh-bucket").ok());
  EXPECT_EQ(*client.Get(42), "updated");
  EXPECT_EQ(*client.Get(250), "fresh-bucket");
  // Range queries are refused in this mode (paper §2.5).
  EXPECT_FALSE(client.GetRange(0, 10).ok());
  // Stored clustering keys must not reveal key order: check that the stored
  // ids for adjacent buckets are not byte-adjacent (PRF output).
  auto r1 = cluster_.ReadRange("enc_table", PartitionLabel(0), "", std::string(64, '\xff'));
  ASSERT_TRUE(r1.ok());
  for (const auto& [id, row] : *r1) {
    EXPECT_EQ(id.size(), kSha256Bytes);  // PRF images, not 8-byte keys
  }
}

TEST_F(GenericClientTest, OpePackIdsModeSupportsEverythingIncludingRanges) {
  MiniCryptOptions ope = options_;
  ope.table = "ope_table";
  ope.ope_pack_ids = true;
  ope.pack_rows = 4;
  GenericClient client(&cluster_, ope, key_);
  ASSERT_TRUE(client.CreateTable().ok());

  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 120; ++k) {
    rows.emplace_back(k, "o" + std::to_string(k));
  }
  ASSERT_TRUE(client.BulkLoad(rows).ok());
  for (uint64_t k = 0; k < 120; k += 7) {
    auto v = client.Get(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, "o" + std::to_string(k));
  }
  // Mutations, including inserts that trigger splits, keep working.
  for (uint64_t k = 200; k < 230; ++k) {
    ASSERT_TRUE(client.Put(k, "new" + std::to_string(k)).ok());
  }
  EXPECT_EQ(*client.Get(215), "new215");
  ASSERT_TRUE(client.Delete(210).ok());
  EXPECT_TRUE(client.Get(210).status().IsNotFound());

  // Range queries work on OPE images (the §2.5 OPE trade-off).
  auto range = client.GetRange(50, 69);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 20u);
  EXPECT_EQ(range->front().first, 50u);
  EXPECT_EQ(range->back().first, 69u);

  // Stored packIDs are 12-byte OPE images, not plaintext keys.
  auto stored = cluster_.ReadRange("ope_table", PartitionLabel(0), "",
                                   std::string(16, '\xff'));
  ASSERT_TRUE(stored.ok());
  ASSERT_FALSE(stored->empty());
  for (const auto& [id, row] : *stored) {
    EXPECT_EQ(id.size(), kOpeCiphertextBytes);
  }
}

TEST_F(GenericClientTest, MultiGetMatchesSequentialGetsAcrossPacks) {
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 300; ++k) {
    rows.emplace_back(k, "m" + std::to_string(k));
  }
  ASSERT_TRUE(client_->BulkLoad(rows).ok());  // pack_rows=4: many packs

  // A batch that spans pack (and partition) boundaries in arbitrary order.
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 300; k += 13) {
    keys.push_back(k);
  }
  keys.push_back(299);
  keys.push_back(0);
  auto out = client_->MultiGet(keys);
  ASSERT_EQ(out.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto expect = client_->Get(keys[i]);
    ASSERT_TRUE(out[i].ok()) << "key " << keys[i];
    EXPECT_EQ(*out[i], *expect) << "key " << keys[i];
  }
  EXPECT_EQ(client_->stats().multigets.load(), 1u);
}

TEST_F(GenericClientTest, MultiGetDuplicateAndMissingKeys) {
  ASSERT_TRUE(client_->Put(100, "x").ok());
  ASSERT_TRUE(client_->Put(200, "y").ok());

  // Empty batch: empty result, nothing fetched.
  EXPECT_TRUE(client_->MultiGet({}).empty());

  // Duplicates share one lookup but each slot gets its own answer; keys
  // below the smallest pack and absent from their pack are both NotFound,
  // exactly like sequential Gets.
  std::vector<uint64_t> keys = {100, 5, 100, 150, 200, 200, 99999};
  auto out = client_->MultiGet(keys);
  ASSERT_EQ(out.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto expect = client_->Get(keys[i]);
    ASSERT_EQ(out[i].ok(), expect.ok()) << "key " << keys[i];
    if (expect.ok()) {
      EXPECT_EQ(*out[i], *expect) << "key " << keys[i];
    } else {
      EXPECT_TRUE(out[i].status().IsNotFound()) << "key " << keys[i];
    }
  }
}

// A crashed split leaves the right half duplicated in the original pack;
// MultiGet's descending floor descent must route every key to the pack a
// sequential Get would pick, never the stale shadow.
TEST_F(GenericClientTest, MultiGetAfterCrashedSplitMatchesSequentialGets) {
  options_.pack_rows = 4;
  options_.hash_partitions = 1;
  GenericClient writer(&cluster_, options_, key_);
  MiniCryptOptions big = options_;
  big.pack_rows = 16;
  GenericClient loader(&cluster_, big, key_);
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 8; ++k) {
    rows.emplace_back(k, "v" + std::to_string(k));
  }
  ASSERT_TRUE(loader.BulkLoad(rows).ok());

  writer.set_split_fail_point(GenericClient::SplitFailPoint::kAfterRightInsert);
  EXPECT_TRUE(writer.Put(3, "during-crash").IsAborted());
  writer.set_split_fail_point(GenericClient::SplitFailPoint::kNone);
  // Mutations routed to the new right pack leave shadowed stale copies in
  // the original; key 9 has never existed.
  ASSERT_TRUE(writer.Put(6, "fresh").ok());
  ASSERT_TRUE(writer.Delete(7).ok());

  std::vector<uint64_t> keys = {0, 1, 2, 3, 4, 5, 6, 7, 9};
  auto out = writer.MultiGet(keys);
  ASSERT_EQ(out.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto expect = writer.Get(keys[i]);
    ASSERT_EQ(out[i].ok(), expect.ok()) << "key " << keys[i];
    if (expect.ok()) {
      EXPECT_EQ(*out[i], *expect) << "key " << keys[i];
    } else {
      EXPECT_TRUE(out[i].status().IsNotFound()) << "key " << keys[i];
    }
  }
}

TEST_F(GenericClientTest, MultiGetEncryptedPackIdsMode) {
  MiniCryptOptions enc = options_;
  enc.table = "enc_mget";
  enc.encrypt_pack_ids = true;
  enc.packid_bucket_width = 10;
  GenericClient client(&cluster_, enc, key_);
  ASSERT_TRUE(client.CreateTable().ok());
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 60; ++k) {
    rows.emplace_back(k, "e" + std::to_string(k));
  }
  ASSERT_TRUE(client.BulkLoad(rows).ok());

  // One batch over several buckets, with duplicates and a key from an empty
  // bucket (bucket 10 was never written).
  std::vector<uint64_t> keys = {3, 17, 17, 42, 59, 105};
  auto out = client.MultiGet(keys);
  ASSERT_EQ(out.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto expect = client.Get(keys[i]);
    ASSERT_EQ(out[i].ok(), expect.ok()) << "key " << keys[i];
    if (expect.ok()) {
      EXPECT_EQ(*out[i], *expect) << "key " << keys[i];
    } else {
      EXPECT_TRUE(out[i].status().IsNotFound()) << "key " << keys[i];
    }
  }
}

// Pins the stats contract: CreateTable starts a fresh counter epoch, and
// put_retries counts every scheduled retry under one convention whether the
// trigger was contention, a split, or a transient Unavailable.
TEST_F(GenericClientTest, StatsResetOnCreateTableAndUnifiedPutRetries) {
  ASSERT_TRUE(client_->Put(1, "a").ok());
  ASSERT_TRUE(client_->Put(2, "b").ok());
  (void)client_->Get(1);
  (void)client_->MultiGet({1, 2});
  EXPECT_GT(client_->stats().puts.load(), 0u);
  EXPECT_GT(client_->stats().gets.load(), 0u);
  EXPECT_GT(client_->stats().multigets.load(), 0u);

  // Re-creating the table wipes the data *and* the counters.
  ASSERT_TRUE(client_->CreateTable().ok());
  EXPECT_EQ(client_->stats().puts.load(), 0u);
  EXPECT_EQ(client_->stats().gets.load(), 0u);
  EXPECT_EQ(client_->stats().multigets.load(), 0u);
  EXPECT_EQ(client_->stats().put_retries.load(), 0u);
  EXPECT_EQ(client_->stats().splits.load(), 0u);

  // Force a split-then-retry: an oversized pack makes the next Put split
  // first and go around the mutate loop again. That scheduled retry must
  // land in put_retries (the same counter contention retries use).
  options_.table = "stats_retry";
  options_.pack_rows = 4;
  options_.hash_partitions = 1;
  MiniCryptOptions big = options_;
  big.pack_rows = 16;
  GenericClient loader(&cluster_, big, key_);
  ASSERT_TRUE(loader.CreateTable().ok());
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (uint64_t k = 0; k < 8; ++k) {
    rows.emplace_back(k, "v" + std::to_string(k));
  }
  ASSERT_TRUE(loader.BulkLoad(rows).ok());
  GenericClient writer(&cluster_, options_, key_);
  ASSERT_TRUE(writer.Put(3, "post-split").ok());
  EXPECT_GT(writer.stats().splits.load(), 0u);
  EXPECT_GE(writer.stats().put_retries.load(), 1u);
}

TEST_F(GenericClientTest, OptionsValidation) {
  MiniCryptOptions bad;
  bad.pack_rows = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = MiniCryptOptions();
  bad.codec = "not-a-codec";
  EXPECT_FALSE(bad.Validate().ok());
  bad = MiniCryptOptions();
  bad.epoch_micros = 1;
  EXPECT_FALSE(bad.Validate().ok());
  MiniCryptOptions good;
  EXPECT_TRUE(good.Validate().ok());
  EXPECT_EQ(good.EffectiveMaxKeys(), 75u);  // ceil(1.5 * 50)
}

}  // namespace
}  // namespace minicrypt
