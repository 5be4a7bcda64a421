// Unit + end-to-end coverage for the client-side decrypted-pack cache:
// capacity eviction, version-mismatch revalidation, invalidate-on-ambiguous
// LWT outcomes, cross-client sharing, the TTL fast path, and APPEND-mode
// merged-pack reads.

#include "src/core/pack_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/coding.h"
#include "src/core/append/append_client.h"
#include "src/core/append/epoch.h"
#include "src/core/generic_client.h"
#include "src/core/key_codec.h"
#include "src/core/pack_crypter.h"
#include "src/crypto/keyring.h"
#include "src/kvstore/cluster.h"
#include "src/kvstore/fault_injector.h"

namespace minicrypt {
namespace {

std::shared_ptr<const Pack> OneKeyPack(uint64_t key, std::string value) {
  auto pack = Pack::FromSorted({Pack::Entry{EncodeKey64(key), std::move(value)}});
  EXPECT_TRUE(pack.ok());
  return std::make_shared<const Pack>(std::move(*pack));
}

// --- Pure unit tests ---------------------------------------------------------

TEST(PackCache, DisabledCacheNoOps) {
  SimulatedClock clock;
  PackCache cache(/*capacity_bytes=*/0, /*ttl_micros=*/0, &clock);
  EXPECT_FALSE(cache.enabled());
  cache.Put("t", "p", EncodeKey64(1), OneKeyPack(1, "v"), "h1");
  EXPECT_EQ(cache.ValidateAndGet("t", "p", EncodeKey64(1), "h1"), nullptr);
  EXPECT_FALSE(cache.Floor("t", "p", EncodeKey64(1), false).has_value());
  EXPECT_EQ(cache.Stats().bytes_used, 0u);
}

TEST(PackCache, FloorRoutesWithinScopeOnly) {
  SimulatedClock clock;
  PackCache cache(1 << 20, 0, &clock, /*shards=*/1);
  cache.Put("t", "p0", EncodeKey64(10), OneKeyPack(10, "a"), "h10");
  cache.Put("t", "p0", EncodeKey64(20), OneKeyPack(20, "b"), "h20");

  // Floor picks the greatest cached packID <= the key.
  auto f = cache.Floor("t", "p0", EncodeKey64(15), false);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->first, EncodeKey64(10));
  f = cache.Floor("t", "p0", EncodeKey64(25), false);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->first, EncodeKey64(20));
  // Below the smallest cached id: no candidate.
  EXPECT_FALSE(cache.Floor("t", "p0", EncodeKey64(5), false).has_value());
  // Other partitions and tables never bleed into this scope.
  EXPECT_FALSE(cache.Floor("t", "p1", EncodeKey64(15), false).has_value());
  EXPECT_FALSE(cache.Floor("u", "p0", EncodeKey64(15), false).has_value());
}

TEST(PackCache, CapacityEvictionDropsLeastRecentlyUsed) {
  SimulatedClock clock;
  // Room for roughly two single-entry packs (one shard: deterministic LRU).
  PackCache cache(512, 0, &clock, /*shards=*/1);
  cache.Put("t", "p", EncodeKey64(1), OneKeyPack(1, "a"), "h1");
  cache.Put("t", "p", EncodeKey64(2), OneKeyPack(2, "b"), "h2");
  // Touch pack 1 so pack 2 becomes the LRU victim.
  ASSERT_NE(cache.ValidateAndGet("t", "p", EncodeKey64(1), "h1"), nullptr);
  cache.Put("t", "p", EncodeKey64(3), OneKeyPack(3, "c"), "h3");

  const PackCacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_used, 512u);
  // The victim is gone; recently used/inserted entries survive.
  EXPECT_EQ(cache.ValidateAndGet("t", "p", EncodeKey64(2), "h2"), nullptr);
  EXPECT_NE(cache.ValidateAndGet("t", "p", EncodeKey64(1), "h1"), nullptr);
  EXPECT_NE(cache.ValidateAndGet("t", "p", EncodeKey64(3), "h3"), nullptr);
}

TEST(PackCache, ValidateAndGetDropsVersionMismatch) {
  SimulatedClock clock;
  PackCache cache(1 << 20, 0, &clock);
  cache.Put("t", "p", EncodeKey64(1), OneKeyPack(1, "old"), "h-old");

  // Matching hash: hit + revalidation.
  EXPECT_NE(cache.ValidateAndGet("t", "p", EncodeKey64(1), "h-old"), nullptr);
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_EQ(cache.Stats().revalidations, 1u);

  // Server moved to a newer version: mismatch drops the entry.
  EXPECT_EQ(cache.ValidateAndGet("t", "p", EncodeKey64(1), "h-new"), nullptr);
  EXPECT_EQ(cache.Stats().invalidations, 1u);
  EXPECT_EQ(cache.Stats().misses, 1u);
  // Entry is really gone — even the old hash cannot bring it back.
  EXPECT_EQ(cache.ValidateAndGet("t", "p", EncodeKey64(1), "h-old"), nullptr);
  EXPECT_FALSE(cache.Floor("t", "p", EncodeKey64(1), false).has_value());
}

TEST(PackCache, TtlFreshnessFollowsClock) {
  SimulatedClock clock;
  PackCache cache(1 << 20, /*ttl_micros=*/1000, &clock);
  cache.Put("t", "p", EncodeKey64(1), OneKeyPack(1, "v"), "h1");

  EXPECT_TRUE(cache.Floor("t", "p", EncodeKey64(1), /*only_fresh=*/true).has_value());
  clock.Advance(1001);
  EXPECT_FALSE(cache.Floor("t", "p", EncodeKey64(1), /*only_fresh=*/true).has_value());
  // A revalidation refreshes the TTL stamp.
  EXPECT_NE(cache.ValidateAndGet("t", "p", EncodeKey64(1), "h1"), nullptr);
  EXPECT_TRUE(cache.Floor("t", "p", EncodeKey64(1), /*only_fresh=*/true).has_value());
}

// --- End-to-end through GenericClient ---------------------------------------

MiniCryptOptions CachedOptions() {
  MiniCryptOptions o;
  o.pack_rows = 4;
  o.hash_partitions = 1;  // all keys share a partition: deterministic routing
  o.cache_capacity_bytes = 1 << 20;
  return o;
}

TEST(PackCacheClient, RepeatGetsHitAndShipFewerBytes) {
  Cluster cluster(ClusterOptions::ForTest());
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  GenericClient client(&cluster, CachedOptions(), key);
  ASSERT_TRUE(client.CreateTable().ok());
  ASSERT_NE(client.pack_cache(), nullptr);

  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(client.Put(k, "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(client.Get(0).ok());  // ensures the pack is cached + validated
  const uint64_t bytes_before = cluster.stats().bytes_to_client.load();
  for (int i = 0; i < 8; ++i) {
    auto v = client.Get(2);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v2");
  }
  const uint64_t probe_bytes = cluster.stats().bytes_to_client.load() - bytes_before;
  const PackCacheStats stats = client.pack_cache()->Stats();
  EXPECT_GE(stats.hits, 8u);
  EXPECT_GE(stats.revalidations, 8u);
  // 8 probes shipped ~8 * (floor id + hash) — far less than one envelope.
  EXPECT_LT(probe_bytes, 8 * 100u);
}

TEST(PackCacheClient, StaleCacheRevalidatesAfterForeignWrite) {
  Cluster cluster(ClusterOptions::ForTest());
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  GenericClient cached(&cluster, CachedOptions(), key);
  // A writer with no cache of its own, standing in for "another machine".
  MiniCryptOptions plain = CachedOptions();
  plain.cache_capacity_bytes = 0;
  GenericClient writer(&cluster, plain, key);
  ASSERT_TRUE(cached.CreateTable().ok());

  ASSERT_TRUE(cached.Put(1, "v1").ok());
  ASSERT_TRUE(cached.Get(1).ok());  // warm

  ASSERT_TRUE(writer.Put(1, "v2").ok());  // moves the pack's LWT version

  auto v = cached.Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v2");  // the probe caught the mismatch and refetched
  const PackCacheStats stats = cached.pack_cache()->Stats();
  EXPECT_GE(stats.invalidations, 1u);

  // The refreshed entry now revalidates cleanly.
  const uint64_t hits_before = stats.hits;
  ASSERT_TRUE(cached.Get(1).ok());
  EXPECT_GT(cached.pack_cache()->Stats().hits, hits_before);
}

TEST(PackCacheClient, AmbiguousLwtInvalidatesThenRecovers) {
  FaultInjector injector(0xCAC4E);
  ClusterOptions copts = ClusterOptions::ForTest();
  copts.fault_injector = &injector;
  Cluster cluster(copts);
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  GenericClient client(&cluster, CachedOptions(), key);
  ASSERT_TRUE(client.CreateTable().ok());

  ASSERT_TRUE(client.Put(1, "first").ok());
  ASSERT_TRUE(client.Get(1).ok());  // warm the cache

  // The conditional update applies but the coordinator reports a timeout:
  // the client must drop its cached image before re-reading.
  injector.Script(FaultPoint::kLwtAmbiguous, 1);
  ASSERT_TRUE(client.Put(1, "second").ok());
  EXPECT_EQ(injector.trips(FaultPoint::kLwtAmbiguous), 1u);
  EXPECT_GE(client.pack_cache()->Stats().invalidations, 1u);

  auto v = client.Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "second");
}

TEST(PackCacheClient, TwoClientsShareOneCache) {
  Cluster cluster(ClusterOptions::ForTest());
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  const MiniCryptOptions options = CachedOptions();
  auto shared = std::make_shared<PackCache>(options.cache_capacity_bytes,
                                            options.cache_ttl_micros,
                                            cluster.options().clock);
  GenericClient a(&cluster, options, key, shared);
  GenericClient b(&cluster, options, key, shared);
  ASSERT_TRUE(a.CreateTable().ok());
  ASSERT_EQ(a.pack_cache().get(), b.pack_cache().get());

  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(a.Put(k, "from-a").ok());
  }
  // a's writes populated the shared cache; b's first read revalidates the
  // shared entry instead of fetching the envelope.
  const PackCacheStats before = shared->Stats();
  auto v = b.Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "from-a");
  EXPECT_GT(shared->Stats().hits, before.hits);

  // Coherence flows both ways: b's write updates the shared entry, a reads it.
  ASSERT_TRUE(b.Put(1, "from-b").ok());
  v = a.Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "from-b");
}

TEST(PackCacheClient, TtlServesWithoutTouchingTheServer) {
  SimulatedClock clock;
  ClusterOptions copts = ClusterOptions::ForTest();
  copts.clock = &clock;
  Cluster cluster(copts);
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  MiniCryptOptions options = CachedOptions();
  options.cache_ttl_micros = 1'000'000;
  GenericClient client(&cluster, options, key);
  ASSERT_TRUE(client.CreateTable().ok());

  ASSERT_TRUE(client.Put(1, "v").ok());
  ASSERT_TRUE(client.Get(1).ok());  // validated-now entry

  const uint64_t reads_before = cluster.stats().reads.load();
  for (int i = 0; i < 5; ++i) {
    auto v = client.Get(1);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v");
  }
  // TTL-fresh serves perform zero server reads.
  EXPECT_EQ(cluster.stats().reads.load(), reads_before);
  EXPECT_GE(client.pack_cache()->Stats().ttl_hits, 5u);

  // Past the TTL the client probes again.
  clock.Advance(options.cache_ttl_micros + 1);
  ASSERT_TRUE(client.Get(1).ok());
  EXPECT_GT(cluster.stats().reads.load(), reads_before);

  // A TTL-fresh pack must not answer NotFound for a key it never covered
  // without confirming against the server: key 2 was written by a peer the
  // cache never saw.
  MiniCryptOptions plain = options;
  plain.cache_capacity_bytes = 0;
  plain.cache_ttl_micros = 0;
  GenericClient writer(&cluster, plain, key);
  ASSERT_TRUE(client.Get(1).ok());  // re-validate so the entry is TTL-fresh
  ASSERT_TRUE(writer.Put(2, "new").ok());
  auto v = client.Get(2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "new");
}

// --- Cache coherence across key rotation -------------------------------------

TEST(PackCacheClient, RotationResealIsAMissAndRefetchNeverStalePlaintext) {
  Cluster cluster(ClusterOptions::ForTest());
  auto ring = Keyring::FromMaster(SymmetricKey::FromSeed("tenant"));
  GenericClient cached(&cluster, CachedOptions(), ring);
  ASSERT_TRUE(cached.CreateTable().ok());
  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(cached.Put(k, "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(cached.Get(1).ok());  // warm + validated

  // The stored pack before rotation: capture its envelope hash.
  auto rows = cluster.ReadRange(CachedOptions().table, PartitionLabel(0), "",
                                std::string(64, '\xff'));
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  const std::string pack_id = (*rows)[0].first;
  const std::string old_hash = (*rows)[0].second.cells.at("h").value;
  EXPECT_EQ(PackCrypter::EnvelopeEpoch((*rows)[0].second.cells.at("v").value), 0u);

  // Rotate through a cacheless peer sharing the keyring (the usual shape:
  // the rotator is an operator job, not the serving client).
  MiniCryptOptions plain = CachedOptions();
  plain.cache_capacity_bytes = 0;
  GenericClient rotator(&cluster, plain, ring);
  ASSERT_TRUE(rotator.RotateKeys().ok());

  // The re-seal moved the envelope hash and the epoch.
  auto after = cluster.Read(CachedOptions().table, PartitionLabel(0), pack_id);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->cells.at("h").value, old_hash);
  EXPECT_EQ(PackCrypter::EnvelopeEpoch(after->cells.at("v").value), 1u);

  // The cached client's next read probes, sees the hash mismatch, and
  // refetches — it can never serve the retired-epoch entry as current.
  const PackCacheStats before = cached.pack_cache()->Stats();
  auto v = cached.Get(1);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "v1");
  const PackCacheStats stats = cached.pack_cache()->Stats();
  EXPECT_GT(stats.invalidations, before.invalidations);
  // The refreshed (epoch-1) entry revalidates cleanly from here on.
  const uint64_t hits_before = stats.hits;
  ASSERT_TRUE(cached.Get(1).ok());
  EXPECT_GT(cached.pack_cache()->Stats().hits, hits_before);
}

TEST(PackCacheClient, RotatorsOwnCacheStaysCoherentWhileResealing) {
  // The rotator itself may run with a cache: CacheAfterWrite on every
  // re-seal keeps its entries in lockstep with the stored hash, so reads
  // right after rotation revalidate instead of refetching envelopes.
  Cluster cluster(ClusterOptions::ForTest());
  auto ring = Keyring::FromMaster(SymmetricKey::FromSeed("tenant"));
  GenericClient client(&cluster, CachedOptions(), ring);
  ASSERT_TRUE(client.CreateTable().ok());
  for (uint64_t k = 0; k < 12; ++k) {
    ASSERT_TRUE(client.Put(k, "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(client.RotateKeys().ok());
  const uint64_t misses_before = client.pack_cache()->Stats().misses;
  for (uint64_t k = 0; k < 12; ++k) {
    auto v = client.Get(k);
    ASSERT_TRUE(v.ok()) << k << ": " << v.status().ToString();
    EXPECT_EQ(*v, "v" + std::to_string(k));
  }
  EXPECT_EQ(client.pack_cache()->Stats().misses, misses_before);
}

// --- End-to-end through AppendClient's merged-pack reads ---------------------

// Seals `entries` into one pack and writes it the way MergeEpoch does: into
// epoch 0 under its min key, sealed with an empty AAD context. A second call
// with the same min key stands in for a foreign rewrite of that pack row.
void WriteMergedPack(Cluster* cluster, const MiniCryptOptions& options, const SymmetricKey& key,
                     std::vector<Pack::Entry> entries) {
  auto pack = Pack::FromSorted(std::move(entries));
  ASSERT_TRUE(pack.ok());
  const PackCrypter crypter(options, key);  // outlives the seal's epoch pin
  auto sealed = crypter.Seal(*pack);
  ASSERT_TRUE(sealed.ok());
  Row row;
  row.cells["v"] = Cell{sealed->envelope, 0, false};
  row.cells["h"] = Cell{sealed->hash, 0, false};
  ASSERT_TRUE(cluster
                  ->Write(options.table, EpochPartition(kMergedEpoch),
                          std::string(*pack->MinKey()), row)
                  .ok());
}

TEST(PackCacheAppend, MergedReadsRevalidateAndRefetchOnce) {
  Cluster cluster(ClusterOptions::ForTest());
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  const MiniCryptOptions options = CachedOptions();
  ASSERT_TRUE(cluster.CreateTable(options.table, /*server_compression=*/false).ok());
  AppendClient client(&cluster, options, key, "reader", cluster.options().clock);
  ASSERT_NE(client.pack_cache(), nullptr);
  WriteMergedPack(&cluster, options, key,
                  {{EncodeKey64(1), "a"}, {EncodeKey64(2), "b"}, {EncodeKey64(3), "c"}});

  auto v = client.Get(2);  // nothing cached yet: full floor fetch, fills the cache
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "b");

  // A second read is a probe-confirmed hit: no envelope fetched.
  PackCacheStats before = client.pack_cache()->Stats();
  v = client.Get(2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "b");
  PackCacheStats after = client.pack_cache()->Stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.revalidations, before.revalidations + 1);
  EXPECT_EQ(after.misses, before.misses);

  // A foreign rewrite moves the stored hash: the probe catches the mismatch
  // and the client refetches the probed pack, counted as one miss.
  WriteMergedPack(&cluster, options, key,
                  {{EncodeKey64(1), "a"}, {EncodeKey64(2), "B"}, {EncodeKey64(3), "c"}});
  before = client.pack_cache()->Stats();
  v = client.Get(2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "B");
  after = client.pack_cache()->Stats();
  EXPECT_EQ(after.invalidations, before.invalidations + 1);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses + 1);

  // The refetched pack was cached: the next read revalidates it.
  before = after;
  v = client.Get(2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "B");
  EXPECT_EQ(client.pack_cache()->Stats().hits, before.hits + 1);
}

TEST(PackCacheAppend, TtlFreshPackLackingKeyStillFindsItInNewerPack) {
  SimulatedClock clock;
  ClusterOptions copts = ClusterOptions::ForTest();
  copts.clock = &clock;
  Cluster cluster(copts);
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  MiniCryptOptions options = CachedOptions();
  options.cache_ttl_micros = 1'000'000;
  ASSERT_TRUE(cluster.CreateTable(options.table, /*server_compression=*/false).ok());
  AppendClient client(&cluster, options, key, "reader", &clock);
  WriteMergedPack(&cluster, options, key, {{EncodeKey64(1), "a"}, {EncodeKey64(2), "b"}});
  ASSERT_TRUE(client.Get(1).ok());  // caches pack 1, validated now

  // A later merge lands a newer pack the cache never saw. The TTL-fresh
  // pack 1 is the cache's floor for key 5 but lacks it; the read must go
  // to the server rather than answer from pack 1.
  WriteMergedPack(&cluster, options, key, {{EncodeKey64(5), "e"}});
  ASSERT_TRUE(cluster.Read(options.table, EpochPartition(kMergedEpoch), EncodeKey64(5)).ok());
  auto v = client.Get(5);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "e");
  // Pack 1 itself is still served from the TTL-fresh entry.
  v = client.Get(2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "b");
}

}  // namespace
}  // namespace minicrypt
