#include "src/crypto/crypto.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/crypto/padding.h"

namespace minicrypt {
namespace {

TEST(SymmetricKey, DeterministicFromSeed) {
  const SymmetricKey a = SymmetricKey::FromSeed("customer-secret");
  const SymmetricKey b = SymmetricKey::FromSeed("customer-secret");
  EXPECT_EQ(0, memcmp(a.data(), b.data(), a.size()));
  const SymmetricKey c = SymmetricKey::FromSeed("other-secret");
  EXPECT_NE(0, memcmp(a.data(), c.data(), a.size()));
}

TEST(SymmetricKey, DerivedKeysAreDomainSeparated) {
  const SymmetricKey root = SymmetricKey::FromSeed("root");
  const SymmetricKey pack = root.Derive("pack:t1");
  const SymmetricKey prf = root.Derive("packid:t1");
  const SymmetricKey other_table = root.Derive("pack:t2");
  EXPECT_NE(0, memcmp(pack.data(), prf.data(), pack.size()));
  EXPECT_NE(0, memcmp(pack.data(), other_table.data(), pack.size()));
  EXPECT_NE(0, memcmp(pack.data(), root.data(), pack.size()));
}

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// Known-answer vector: pins the envelope layout of docs/FORMATS.md
// (IV || ciphertext || tag) and the cipher, so envelopes sealed by any earlier
// build keep opening. Sealed once with the fixed IV below.
TEST(Aes, GcmKnownAnswerOpens) {
  const SymmetricKey key = SymmetricKey::FromSeed("gcm-kat");
  const std::string iv = FromHex("cafebabefacedbaddecaf888");
  const std::string plaintext =
      "MiniCrypt seals each pack with AES-256-GCM; this is the KAT.";
  const std::string aad = std::string("table") + '\0' + "pack-42";
  const std::string envelope = FromHex(
      "cafebabefacedbaddecaf888"
      "20de933836b77e39722ccc6535c1725c8c96f4fc31e4973d3f835335818f21fc"
      "70b4ad28c18f7e3e0196f82aa01e4d1dcac7ea4b31ba4bc02461af03"
      "99c9a1a0cebfca5321cf2fd21988c7f9");
  ASSERT_EQ(envelope.size(), kAesGcmIvBytes + plaintext.size() + kAesGcmTagBytes);
  ASSERT_EQ(envelope.substr(0, kAesGcmIvBytes), iv);

  auto opened = AesGcmDecrypt(key, envelope, aad);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(*opened, plaintext);
  // One flipped bit in the IV, the body, or the tag fails the tag check.
  for (size_t pos : {size_t{0}, kAesGcmIvBytes + 20, envelope.size() - 1}) {
    std::string flipped = envelope;
    flipped[pos] ^= 0x01;
    EXPECT_TRUE(AesGcmDecrypt(key, flipped, aad).status().IsCorruption()) << "pos " << pos;
  }
}

TEST(Aes, RoundTripVariousSizes) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  Rng rng(1);
  // Sizes straddle the 16-byte block and multi-block boundaries.
  for (size_t n : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u, 100u, 255u,
                   1000u, 4096u, 65536u, 100000u}) {
    const std::string plaintext = rng.Bytes(n);
    auto envelope = AesGcmEncrypt(key, plaintext);
    ASSERT_TRUE(envelope.ok());
    EXPECT_EQ(envelope->size(), kAesGcmIvBytes + n + kAesGcmTagBytes);
    auto back = AesGcmDecrypt(key, *envelope);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, plaintext) << "size " << n;
  }
}

TEST(Aes, SemanticSecuritySameplaintextDifferentCiphertext) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  const std::string plaintext = "the same pack bytes";
  std::set<std::string> envelopes;
  for (int i = 0; i < 16; ++i) {
    auto envelope = AesGcmEncrypt(key, plaintext);
    ASSERT_TRUE(envelope.ok());
    envelopes.insert(*envelope);
  }
  EXPECT_EQ(envelopes.size(), 16u);  // fresh IV each time
}

TEST(Aes, WrongKeyFails) {
  auto envelope = AesGcmEncrypt(SymmetricKey::FromSeed("a"), "secret data here");
  ASSERT_TRUE(envelope.ok());
  auto out = AesGcmDecrypt(SymmetricKey::FromSeed("b"), *envelope);
  EXPECT_TRUE(out.status().IsCorruption());
}

// The AAD is covered by the tag: lengths straddle the 16-byte GHASH block, and
// the embedded-NUL AAD mirrors the pack AAD's table/context delimiters.
TEST(Aes, GcmAadRoundTripAndMismatchRejected) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  Rng rng(9);
  std::vector<std::string> aads = {std::string("table") + '\0' + "pack-17"};
  for (size_t aad_len : {1u, 15u, 16u, 17u, 63u, 64u, 65u, 300u}) {
    aads.push_back(rng.Bytes(aad_len));
  }
  for (const std::string& aad : aads) {
    for (size_t n : {0u, 1u, 31u, 64u, 100u, 1000u, 5000u}) {
      const std::string pt = rng.Bytes(n);
      auto env = AesGcmEncrypt(key, pt, aad);
      ASSERT_TRUE(env.ok());
      auto out = AesGcmDecrypt(key, *env, aad);
      ASSERT_TRUE(out.ok()) << "aad " << aad.size() << " pt " << n;
      EXPECT_EQ(*out, pt);
      // A truncated, perturbed or missing AAD fails the tag check.
      std::string flipped = aad;
      flipped[aad.size() / 2] ^= 1;
      EXPECT_TRUE(AesGcmDecrypt(key, *env, aad.substr(0, aad.size() - 1)).status().IsCorruption());
      EXPECT_TRUE(AesGcmDecrypt(key, *env, flipped).status().IsCorruption());
      EXPECT_TRUE(AesGcmDecrypt(key, *env).status().IsCorruption());
    }
  }
}

TEST(Aes, GcmAadBindsTheContext) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  auto env = AesGcmEncrypt(key, "payload", "context-A");
  ASSERT_TRUE(env.ok());
  auto ok = AesGcmDecrypt(key, *env, "context-A");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "payload");
  // Different AAD, AAD dropped, or AAD invented: all fail the tag check.
  EXPECT_TRUE(AesGcmDecrypt(key, *env, "context-B").status().IsCorruption());
  EXPECT_TRUE(AesGcmDecrypt(key, *env).status().IsCorruption());
  auto bare = AesGcmEncrypt(key, "payload");
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(AesGcmDecrypt(key, *bare, "context-A").status().IsCorruption());
  EXPECT_TRUE(AesGcmDecrypt(key, *bare).ok());
}

TEST(Aes, MalformedEnvelopeLengthsRejected) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  EXPECT_TRUE(AesGcmDecrypt(key, "").status().IsCorruption());
  EXPECT_TRUE(AesGcmDecrypt(key, "short").status().IsCorruption());
  const size_t min_size = kAesGcmIvBytes + kAesGcmTagBytes;
  EXPECT_TRUE(AesGcmDecrypt(key, std::string(min_size - 1, 'x')).status().IsCorruption());
  // Long enough to parse, but no tag verifies.
  EXPECT_TRUE(AesGcmDecrypt(key, std::string(min_size, 'x')).status().IsCorruption());
  EXPECT_TRUE(AesGcmDecrypt(key, std::string(min_size + 33, 'x')).status().IsCorruption());
}

TEST(Sha256, KnownProperties) {
  const std::string h1 = Sha256("abc");
  const std::string h2 = Sha256("abc");
  const std::string h3 = Sha256("abd");
  EXPECT_EQ(h1.size(), kSha256Bytes);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
}

TEST(Hmac, DeterministicPerKey) {
  const SymmetricKey k1 = SymmetricKey::FromSeed("1");
  const SymmetricKey k2 = SymmetricKey::FromSeed("2");
  EXPECT_EQ(HmacSha256(k1, "packid-5"), HmacSha256(k1, "packid-5"));
  EXPECT_NE(HmacSha256(k1, "packid-5"), HmacSha256(k2, "packid-5"));
  EXPECT_NE(HmacSha256(k1, "packid-5"), HmacSha256(k1, "packid-6"));
}

TEST(ConstantTimeEqual, Basics) {
  EXPECT_TRUE(ConstantTimeEqual("same", "same"));
  EXPECT_FALSE(ConstantTimeEqual("same", "s4me"));
  EXPECT_FALSE(ConstantTimeEqual("short", "longer"));
  EXPECT_TRUE(ConstantTimeEqual("", ""));
}

TEST(Padding, TierSelection) {
  const PaddingTiers tiers = PaddingTiers::SmallMediumLarge(1024, 4096, 16384);
  EXPECT_EQ(tiers.TierFor(1), 1024u);
  EXPECT_EQ(tiers.TierFor(1024), 1024u);
  EXPECT_EQ(tiers.TierFor(1025), 4096u);
  EXPECT_EQ(tiers.TierFor(16384), 16384u);
  // Above the top tier: multiples of the top tier.
  EXPECT_EQ(tiers.TierFor(16385), 32768u);
  EXPECT_EQ(tiers.TierFor(40000), 49152u);
}

TEST(Padding, ExponentialTiers) {
  const PaddingTiers tiers = PaddingTiers::Exponential(512, 4);  // 512,1k,2k,4k
  EXPECT_EQ(tiers.tiers().size(), 4u);
  EXPECT_EQ(tiers.TierFor(600), 1024u);
}

TEST(Padding, PadUnpadRoundTrip) {
  const PaddingTiers tiers = PaddingTiers::Exponential(256, 6);
  Rng rng(3);
  for (size_t n : {size_t{0}, size_t{1}, size_t{255}, size_t{256}, size_t{1000},
                   size_t{50000}}) {
    const std::string payload = rng.Bytes(n);
    const std::string padded = tiers.Pad(payload);
    EXPECT_GE(padded.size(), payload.size());
    EXPECT_EQ(padded.size(), tiers.TierFor(payload.size() + VarintLength(payload.size())));
    auto back = PaddingTiers::Unpad(padded);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, payload);
  }
}

TEST(Padding, SizesCollapseToTiers) {
  // The security point: many distinct payload sizes map to few visible sizes.
  const PaddingTiers tiers = PaddingTiers::SmallMediumLarge(1024, 4096, 16384);
  std::set<size_t> visible;
  for (size_t n = 0; n < 4000; n += 37) {
    visible.insert(tiers.Pad(std::string(n, 'x')).size());
  }
  EXPECT_LE(visible.size(), 2u);
}

TEST(Padding, DisabledPassThrough) {
  const PaddingTiers none = PaddingTiers::None();
  EXPECT_FALSE(none.enabled());
  const std::string payload(100, 'z');
  const std::string framed = none.Pad(payload);
  EXPECT_EQ(framed.size(), payload.size() + VarintLength(payload.size()));
  auto back = PaddingTiers::Unpad(framed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

TEST(Padding, TruncatedFrameRejected) {
  const PaddingTiers none = PaddingTiers::None();
  const std::string framed = none.Pad(std::string(100, 'z'));
  EXPECT_FALSE(PaddingTiers::Unpad(std::string_view(framed.data(), 50)).ok());
}

}  // namespace
}  // namespace minicrypt
