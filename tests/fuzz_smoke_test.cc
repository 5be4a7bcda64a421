// Decoder robustness: every parser in the system must survive arbitrary
// bytes — returning Corruption (or, rarely, a spurious success whose output
// is at least well-formed) rather than crashing or over-allocating. These are
// deterministic fuzz-smoke sweeps, not coverage-guided fuzzing, but they run
// thousands of adversarial inputs through each decoder.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/compress/compressor.h"
#include "src/core/pack.h"
#include "src/crypto/crypto.h"
#include "src/crypto/ope.h"
#include "src/crypto/padding.h"
#include "src/kvstore/commit_log.h"
#include "src/kvstore/row.h"

namespace minicrypt {
namespace {

std::string RandomGarbage(Rng* rng, size_t max_len) {
  return rng->Bytes(rng->Uniform(max_len + 1));
}

// Random bytes with a plausible-looking header (more likely to get past the
// first parse stage and exercise deeper code).
std::string SeededGarbage(Rng* rng, std::string_view valid_prefix, size_t max_tail) {
  std::string out(valid_prefix.substr(0, rng->Uniform(valid_prefix.size() + 1)));
  out += rng->Bytes(rng->Uniform(max_tail + 1));
  return out;
}

TEST(FuzzSmoke, CodecDecompressSurvivesGarbage) {
  Rng rng(11);
  for (std::string_view name : AllCompressorNames()) {
    const Compressor* codec = FindCompressor(name);
    const std::string valid = *codec->Compress("some perfectly ordinary payload data");
    for (int i = 0; i < 400; ++i) {
      const std::string input = i % 2 == 0 ? RandomGarbage(&rng, 300)
                                           : SeededGarbage(&rng, valid, 100);
      auto out = codec->Decompress(input);
      if (out.ok()) {
        EXPECT_LE(out->size(), 1u << 20) << name;  // no absurd allocation
      }
    }
  }
}

TEST(FuzzSmoke, PackDeserializeSurvivesGarbage) {
  Rng rng(13);
  Pack pack;
  pack.Upsert(EncodeKey64(1), "one");
  pack.Upsert(EncodeKey64(2), "two");
  const std::string valid = pack.Serialize();
  for (int i = 0; i < 1000; ++i) {
    std::string input =
        i % 2 == 0 ? RandomGarbage(&rng, 200) : SeededGarbage(&rng, valid, 60);
    auto out = Pack::FromSerialized(std::move(input));
    if (out.ok()) {
      // A spurious parse must still satisfy the sorted-unique invariant.
      const auto& entries = out->entries();
      for (size_t j = 1; j < entries.size(); ++j) {
        EXPECT_LT(entries[j - 1].key, entries[j].key);
      }
    }
  }
}

// Whole versus point decode: whenever the whole decode accepts an input, a
// point decode stopping at any of its keys accepts it too and returns the
// same entries through that key — both from the whole buffer and from the
// first prefix a PointScan, fed the buffer as it grows, calls enough. Every
// third input is a random valid pack, so the comparison always has inputs.
TEST(FuzzSmoke, PackPointDecodeMatchesWholeOnGarbage) {
  Rng rng(47);
  Pack pack;
  for (uint64_t k = 1; k <= 4; ++k) {
    pack.Upsert(EncodeKey64(k), std::string(k * 5, static_cast<char>('a' + k)));
  }
  const std::string valid = pack.Serialize();
  int accepted = 0;
  for (int i = 0; i < 600; ++i) {
    std::string input;
    if (i % 3 == 0) {
      input = RandomGarbage(&rng, 200);
    } else if (i % 3 == 1) {
      input = SeededGarbage(&rng, valid, 60);
    } else {
      Pack random_pack;
      for (uint64_t n = rng.Uniform(8); n > 0; --n) {
        random_pack.Upsert(EncodeKey64(rng.Uniform(64)), rng.Bytes(rng.Uniform(40)));
      }
      input = random_pack.Serialize();
    }
    const auto whole = Pack::FromSerialized(std::string(input));
    if (!whole.ok()) {
      // A point decode may accept what the whole decode rejects past its
      // stop, but must not crash on it.
      (void)Pack::FromSerialized(std::string(input), EncodeKey64(2));
      continue;
    }
    ++accepted;
    const auto& entries = whole->entries();
    for (size_t stop = 0; stop < entries.size(); ++stop) {
      const std::string key(entries[stop].key);
      Pack::PointScan scan(key);
      size_t len = 0;
      while (len < input.size() && !scan.Reached(std::string_view(input.data(), len))) {
        len = std::min(input.size(), len + 1 + rng.Uniform(8));
      }
      for (std::string bytes : {input, input.substr(0, len)}) {
        const auto point = Pack::FromSerialized(std::move(bytes), key);
        ASSERT_TRUE(point.ok()) << point.status().ToString();
        ASSERT_EQ(point->entries().size(), stop + 1);
        for (size_t j = 0; j <= stop; ++j) {
          EXPECT_EQ(point->entries()[j].key, entries[j].key);
          EXPECT_EQ(point->entries()[j].value, entries[j].value);
        }
      }
    }
  }
  EXPECT_GE(accepted, 200);
}

TEST(FuzzSmoke, RowDecodeSurvivesGarbage) {
  Rng rng(17);
  Row row;
  row.cells["v"] = Cell{"value", 3, false};
  std::string valid;
  EncodeRow(row, &valid);
  for (int i = 0; i < 1000; ++i) {
    const std::string input =
        i % 2 == 0 ? RandomGarbage(&rng, 120) : SeededGarbage(&rng, valid, 60);
    std::string_view view = input;
    auto out = DecodeRow(&view);
    (void)out;  // must simply not crash / overallocate
  }
}

// GCM is authenticated: random envelopes, with or without AAD, must fail
// cleanly (forging a 128-bit tag by chance "essentially never" happens).
TEST(FuzzSmoke, AesDecryptSurvivesGarbage) {
  Rng rng(19);
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  for (int i = 0; i < 300; ++i) {
    const std::string garbage = RandomGarbage(&rng, 256);
    EXPECT_FALSE(AesGcmDecrypt(key, garbage).ok());
    EXPECT_FALSE(AesGcmDecrypt(key, garbage, "aad").ok());
  }
}

// Every truncation and random byte mutation of a real envelope must fail.
TEST(FuzzSmoke, AesGcmDecryptSurvivesGarbage) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  const std::string envelope = *AesGcmEncrypt(key, "an authenticated payload");
  Rng rng(43);
  for (size_t cut = 0; cut < envelope.size(); ++cut) {
    EXPECT_FALSE(AesGcmDecrypt(key, envelope.substr(0, cut)).ok());
  }
  for (int i = 0; i < 200; ++i) {
    std::string mutated = envelope;
    mutated[rng.Uniform(mutated.size())] ^= static_cast<char>(1 + rng.Uniform(255));
    EXPECT_FALSE(AesGcmDecrypt(key, mutated).ok());
  }
}

TEST(FuzzSmoke, PaddingUnpadSurvivesGarbage) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    auto out = PaddingTiers::Unpad(RandomGarbage(&rng, 100));
    (void)out;
  }
}

TEST(FuzzSmoke, OpeDecryptSurvivesGarbage) {
  Rng rng(29);
  OpeCipher ope(SymmetricKey::FromSeed("k"));
  for (int i = 0; i < 200; ++i) {
    auto out = ope.Decrypt(RandomGarbage(&rng, 16));
    (void)out;
  }
}

TEST(FuzzSmoke, CommitLogReplaySurvivesGarbage) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    auto sink = std::make_unique<MemoryLogSink>();
    ASSERT_TRUE(sink->Append(RandomGarbage(&rng, 400)).ok());
    CommitLog log(std::move(sink), nullptr);
    int replayed = 0;
    ASSERT_TRUE(log.Replay([&](std::string_view key, const Row& row) { ++replayed; }).ok());
    // Garbage should essentially never pass the CRC.
    EXPECT_LE(replayed, 1);
  }
}

TEST(FuzzSmoke, VarintDecodersSurviveGarbage) {
  Rng rng(37);
  for (int i = 0; i < 2000; ++i) {
    const std::string input = RandomGarbage(&rng, 24);
    std::string_view v1 = input;
    (void)GetVarint64(&v1);
    std::string_view v2 = input;
    (void)GetLengthPrefixed(&v2);
    std::string_view v3 = input;
    (void)GetFixed64(&v3);
    (void)DecodeRowKey(input);
  }
}

}  // namespace
}  // namespace minicrypt
