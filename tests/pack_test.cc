#include "src/core/pack.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/core/pack_crypter.h"
#include "src/obs/metrics.h"
#include "src/workload/datasets.h"

namespace minicrypt {
namespace {

Pack MakePack(std::initializer_list<uint64_t> keys) {
  std::vector<Pack::Entry> entries;
  for (uint64_t k : keys) {
    entries.push_back({EncodeKey64(k), "val-" + std::to_string(k)});
  }
  auto pack = Pack::FromSorted(std::move(entries));
  EXPECT_TRUE(pack.ok());
  return std::move(pack).value();
}

TEST(Pack, SerializeDeserializeRoundTrip) {
  const Pack pack = MakePack({1, 5, 9, 100, 1ULL << 40});
  auto back = Pack::FromSerialized(pack.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 5u);
  for (uint64_t k : {1ULL, 5ULL, 9ULL, 100ULL, 1ULL << 40}) {
    auto v = back->Find(EncodeKey64(k));
    ASSERT_TRUE(v.has_value()) << k;
    EXPECT_EQ(*v, "val-" + std::to_string(k));
  }
}

TEST(Pack, EmptyPackRoundTrip) {
  Pack empty;
  auto back = Pack::FromSerialized(empty.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
  EXPECT_FALSE(back->MinKey().has_value());
}

TEST(Pack, FromSortedRejectsDisorder) {
  std::vector<Pack::Entry> bad = {{EncodeKey64(5), "a"}, {EncodeKey64(3), "b"}};
  EXPECT_FALSE(Pack::FromSorted(std::move(bad)).ok());
  std::vector<Pack::Entry> dup = {{EncodeKey64(5), "a"}, {EncodeKey64(5), "b"}};
  EXPECT_FALSE(Pack::FromSorted(std::move(dup)).ok());
}

TEST(Pack, DeserializeRejectsCorruption) {
  const Pack pack = MakePack({1, 2, 3});
  std::string bytes = pack.Serialize();
  EXPECT_FALSE(Pack::FromSerialized(bytes.substr(0, bytes.size() - 2)).ok());
  bytes += "extra";
  EXPECT_FALSE(Pack::FromSerialized(std::string(bytes)).ok());
}

TEST(Pack, UpsertKeepsOrderAndOverwrites) {
  Pack pack = MakePack({10, 30});
  EXPECT_TRUE(pack.Upsert(EncodeKey64(20), "twenty"));
  EXPECT_FALSE(pack.Upsert(EncodeKey64(20), "twenty-two"));
  EXPECT_EQ(pack.size(), 3u);
  EXPECT_EQ(*pack.Find(EncodeKey64(20)), "twenty-two");
  // Order invariant held.
  auto back = Pack::FromSerialized(pack.Serialize());
  ASSERT_TRUE(back.ok());
}

TEST(Pack, EraseAndMinKeyStability) {
  Pack pack = MakePack({10, 20, 30});
  EXPECT_EQ(*DecodeKey64(*pack.MinKey()), 10u);
  EXPECT_TRUE(pack.Erase(EncodeKey64(10)));
  EXPECT_FALSE(pack.Erase(EncodeKey64(10)));
  // The pack's smallest key changes, but the stored packID (kept by the
  // client layer) does not — Erase only mutates contents.
  EXPECT_EQ(*DecodeKey64(*pack.MinKey()), 20u);
  EXPECT_TRUE(pack.Erase(EncodeKey64(20)));
  EXPECT_TRUE(pack.Erase(EncodeKey64(30)));
  EXPECT_TRUE(pack.empty());
}

TEST(Pack, SplitDeterministicHalves) {
  const Pack pack = MakePack({1, 2, 3, 4, 5});
  auto halves = pack.SplitDeterministic();
  ASSERT_TRUE(halves.ok());
  EXPECT_EQ(halves->first.size(), 3u);  // ceil(5/2)
  EXPECT_EQ(halves->second.size(), 2u);
  EXPECT_EQ(*DecodeKey64(*halves->first.MinKey()), 1u);
  EXPECT_EQ(*DecodeKey64(*halves->second.MinKey()), 4u);
  // Identical re-split (determinism demanded by paper §5.2).
  auto again = pack.SplitDeterministic();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->first.Serialize(), halves->first.Serialize());
  EXPECT_EQ(again->second.Serialize(), halves->second.Serialize());
}

TEST(Pack, SplitRejectsTinyPacks) {
  EXPECT_FALSE(MakePack({1}).SplitDeterministic().ok());
  EXPECT_TRUE(MakePack({1, 2}).SplitDeterministic().ok());
}

TEST(Pack, FindIsExactMatchOnly) {
  const Pack pack = MakePack({10, 20});
  EXPECT_FALSE(pack.Find(EncodeKey64(15)).has_value());
  EXPECT_FALSE(pack.Find(EncodeKey64(5)).has_value());
  EXPECT_FALSE(pack.Find(EncodeKey64(25)).has_value());
}

TEST(Pack, RandomizedMutationProperty) {
  Rng rng(71);
  Pack pack;
  std::map<uint64_t, std::string> model;
  for (int op = 0; op < 2000; ++op) {
    const uint64_t key = rng.Uniform(200);
    if (rng.Bernoulli(0.7)) {
      const std::string value = "v" + std::to_string(rng.Next() & 0xFFF);
      pack.Upsert(EncodeKey64(key), value);
      model[key] = value;
    } else {
      EXPECT_EQ(pack.Erase(EncodeKey64(key)), model.erase(key) > 0);
    }
  }
  EXPECT_EQ(pack.size(), model.size());
  for (const auto& [key, value] : model) {
    auto found = pack.Find(EncodeKey64(key));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, value);
  }
  // Serialization still canonical.
  auto back = Pack::FromSerialized(pack.Serialize());
  ASSERT_TRUE(back.ok());
}

// `rows` conviva rows under keys 10, 20, 30, ...: every gap holds a key.
Pack ConvivaPack(size_t rows) {
  const auto dataset = MakeDataset("conviva", 3);
  std::vector<Pack::Entry> entries;
  for (size_t i = 0; i < rows; ++i) {
    entries.push_back({EncodeKey64(10 * (i + 1)), dataset->Row(i)});
  }
  auto pack = Pack::FromSorted(std::move(entries));
  EXPECT_TRUE(pack.ok());
  return std::move(pack).value();
}

// What a point read of ConvivaPack(rows) may ask for: every key, one below
// the first, one between each neighbouring pair and one above the last.
std::vector<uint64_t> ProbeKeys(size_t rows) {
  std::vector<uint64_t> keys = {5};
  for (uint64_t i = 1; i <= rows; ++i) {
    keys.push_back(10 * i);
    keys.push_back(10 * i + 5);
  }
  return keys;
}

class PackCrypterTest : public ::testing::Test {
 protected:
  PackCrypterTest() : key_(SymmetricKey::FromSeed("tenant")), crypter_(MakeOptions(), key_) {}

  static MiniCryptOptions MakeOptions() {
    MiniCryptOptions o;
    o.codec = "zlib";
    return o;
  }

  SymmetricKey key_;
  PackCrypter crypter_;
};

TEST_F(PackCrypterTest, SealOpenRoundTrip) {
  const Pack pack = MakePack({1, 2, 3, 4, 5, 6, 7, 8});
  auto sealed = crypter_.Seal(pack);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->hash, Sha256(sealed->envelope));
  auto back = crypter_.Open(sealed->envelope);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->Serialize(), pack.Serialize());
}

TEST_F(PackCrypterTest, EnvelopeIsEncrypted) {
  Pack pack;
  const std::string marker = "PLAINTEXT_MARKER_THAT_MUST_NOT_LEAK";
  pack.Upsert(EncodeKey64(1), marker);
  auto sealed = crypter_.Seal(pack);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->envelope.find(marker), std::string::npos);
}

TEST_F(PackCrypterTest, DifferentTableKeysDoNotInterop) {
  MiniCryptOptions other = MakeOptions();
  other.table = "other_table";
  PackCrypter other_crypter(other, key_);
  auto sealed = crypter_.Seal(MakePack({1, 2}));
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(other_crypter.Open(sealed->envelope).ok());
}

TEST_F(PackCrypterTest, PaddingTiersQuantizeEnvelopeSizes) {
  MiniCryptOptions padded = MakeOptions();
  padded.padding = PaddingTiers::Exponential(1024, 6);
  PackCrypter crypter(padded, key_);
  std::set<size_t> sizes;
  Rng rng(5);
  for (int n = 1; n <= 30; ++n) {
    Pack pack;
    for (int i = 0; i < n; ++i) {
      pack.Upsert(EncodeKey64(static_cast<uint64_t>(i)), rng.Bytes(64));
    }
    auto sealed = crypter.Seal(pack);
    ASSERT_TRUE(sealed.ok());
    sizes.insert(sealed->envelope.size());
    auto back = crypter.Open(sealed->envelope);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->size(), static_cast<size_t>(n));
  }
  // 30 distinct pack populations must land on a handful of visible sizes.
  EXPECT_LE(sizes.size(), 4u);
}

TEST_F(PackCrypterTest, SingleValueSealOpen) {
  auto sealed = crypter_.SealValue("row value bytes");
  ASSERT_TRUE(sealed.ok());
  auto back = crypter_.OpenValue(*sealed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "row value bytes");
}

TEST_F(PackCrypterTest, EveryRegisteredCodecWorksEndToEnd) {
  for (std::string_view codec : AllCompressorNames()) {
    MiniCryptOptions o = MakeOptions();
    o.codec = std::string(codec);
    PackCrypter crypter(o, key_);
    const Pack pack = MakePack({10, 20, 30, 40});
    auto sealed = crypter.Seal(pack);
    ASSERT_TRUE(sealed.ok()) << codec;
    auto back = crypter.Open(sealed->envelope);
    ASSERT_TRUE(back.ok()) << codec;
    EXPECT_EQ(back->Serialize(), pack.Serialize()) << codec;
  }
}

// A point decode answers every key as the whole open does, under every
// codec: zlib streams and stops early, the others decode whole and stop the
// parse.
TEST_F(PackCrypterTest, PointDecodeFindsWhatTheWholeOpenFinds) {
  for (std::string_view codec : AllCompressorNames()) {
    MiniCryptOptions o = MakeOptions();
    o.codec = std::string(codec);
    PackCrypter crypter(o, key_);
    for (size_t rows : {1, 2, 50, 75}) {
      const Pack pack = ConvivaPack(rows);
      auto sealed = crypter.Seal(pack, "pack-id");
      ASSERT_TRUE(sealed.ok()) << codec;
      auto whole = crypter.Open(sealed->envelope, "pack-id");
      ASSERT_TRUE(whole.ok()) << codec;
      for (uint64_t k : ProbeKeys(rows)) {
        const std::string key = EncodeKey64(k);
        auto point = crypter.Open(sealed->envelope, "pack-id", key);
        ASSERT_TRUE(point.ok()) << codec << " rows=" << rows << " key=" << k << ": "
                                << point.status().ToString();
        EXPECT_EQ(point->Find(key), whole->Find(key))
            << codec << " rows=" << rows << " key=" << k;
        EXPECT_LE(point->size(), whole->size());
      }
    }
  }
}

// GCM authenticates the whole envelope before the point decode inflates a
// byte: one flipped bit anywhere in the body or the tag fails the open.
TEST_F(PackCrypterTest, PointDecodeRejectsAFlippedBit) {
  auto sealed = crypter_.Seal(ConvivaPack(50), "pack-id");
  ASSERT_TRUE(sealed.ok());
  const std::string& envelope = sealed->envelope;
  const std::string first_key = EncodeKey64(10);
  constexpr size_t kHeaderBytes = 12;  // "MCE2" || key epoch
  constexpr size_t kTagBytes = 16;
  for (size_t pos : {kHeaderBytes, kHeaderBytes + 40, envelope.size() / 2,
                     envelope.size() - kTagBytes - 1, envelope.size() - kTagBytes,
                     envelope.size() - 1}) {
    std::string flipped = envelope;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x01);
    auto r = crypter_.Open(flipped, "pack-id", first_key);
    ASSERT_FALSE(r.ok()) << "pos=" << pos;
    EXPECT_TRUE(r.status().IsCorruption()) << "pos=" << pos << ": " << r.status().ToString();
  }
}

// pack.open.bytes_raw counts the frame's declared size on a point read too,
// and pack.open.bytes_skipped the part the read did not inflate.
TEST_F(PackCrypterTest, PointReadCountsDeclaredAndSkippedBytes) {
  const Pack pack = ConvivaPack(50);
  const size_t declared = pack.Serialize().size();
  auto sealed = crypter_.Seal(pack);
  ASSERT_TRUE(sealed.ok());
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.SetEnabled(true);  // MC_OBS=0 would turn the counters off
  Counter* bytes_raw = registry.GetCounter("pack.open.bytes_raw");
  Counter* bytes_skipped = registry.GetCounter("pack.open.bytes_skipped");
  const uint64_t raw_before = bytes_raw->Value();
  const uint64_t skipped_before = bytes_skipped->Value();
  auto point = crypter_.Open(sealed->envelope, {}, EncodeKey64(10));
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->size(), 1u);
  // The prefix pack adopts exactly the bytes that were inflated.
  const size_t inflated = point->ArenaBytes();
  EXPECT_LT(inflated, declared);
  EXPECT_EQ(bytes_raw->Value() - raw_before, declared);
  EXPECT_EQ(bytes_skipped->Value() - skipped_before, declared - inflated);
}

}  // namespace
}  // namespace minicrypt
