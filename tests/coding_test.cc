#include "src/common/coding.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/common/crc32c.h"
#include "src/common/random.h"

namespace minicrypt {
namespace {

TEST(Varint, RoundTripBoundaries) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ULL << 32) - 1,
                            1ULL << 32,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v));
    std::string_view in = buf;
    auto out = GetVarint64(&in);
    ASSERT_TRUE(out.ok()) << v;
    EXPECT_EQ(*out, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(Varint, RoundTripRandom) {
  Rng rng(42);
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    // Mix magnitudes so every encoded length is hit.
    const uint64_t v = rng.Next() >> (rng.Uniform(64));
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  std::string_view in = buf;
  for (uint64_t expected : values) {
    auto out = GetVarint64(&in);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, expected);
  }
  EXPECT_TRUE(in.empty());
}

TEST(Varint, TruncatedIsCorruption) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  for (size_t cut = 0; cut + 1 < buf.size(); ++cut) {
    std::string_view in(buf.data(), cut);
    EXPECT_TRUE(GetVarint64(&in).status().IsCorruption()) << cut;
  }
}

TEST(Varint, OverlongIsCorruption) {
  // 11 continuation bytes can never be a valid 64-bit varint.
  std::string buf(11, '\x80');
  std::string_view in = buf;
  EXPECT_TRUE(GetVarint64(&in).status().IsCorruption());
}

TEST(Fixed, RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  std::string_view in = buf;
  auto a = GetFixed32(&in);
  auto b = GetFixed64(&in);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0xdeadbeefu);
  EXPECT_EQ(*b, 0x0123456789abcdefULL);
  EXPECT_TRUE(in.empty());
}

TEST(LengthPrefixed, RoundTripIncludingBinary) {
  std::string buf;
  const std::string payload("\x00\x01\xff hello \x80", 11);
  PutLengthPrefixed(&buf, payload);
  PutLengthPrefixed(&buf, "");
  std::string_view in = buf;
  auto a = GetLengthPrefixed(&in);
  auto b = GetLengthPrefixed(&in);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, payload);
  EXPECT_TRUE(b->empty());
}

TEST(LengthPrefixed, DeclaredLengthBeyondInputIsCorruption) {
  std::string buf;
  PutVarint64(&buf, 100);
  buf += "short";
  std::string_view in = buf;
  EXPECT_TRUE(GetLengthPrefixed(&in).status().IsCorruption());
}

TEST(Key64, OrderPreserving) {
  Rng rng(7);
  uint64_t prev_v = 0;
  std::string prev_e = EncodeKey64(0);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.Next();
    const std::string e = EncodeKey64(v);
    EXPECT_EQ(e.size(), 8u);
    EXPECT_EQ((v < prev_v), (e < prev_e)) << v << " vs " << prev_v;
    EXPECT_EQ((v == prev_v), (e == prev_e));
    auto back = DecodeKey64(e);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    prev_v = v;
    prev_e = e;
  }
}

TEST(Key64, WrongSizeRejected) {
  EXPECT_TRUE(DecodeKey64("1234567").status().IsCorruption());
  EXPECT_TRUE(DecodeKey64("123456789").status().IsCorruption());
}

TEST(Crc32c, KnownVector) {
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

// On SSE4.2 hosts Crc32c runs the CRC32 instruction; the slice-by-8 walk must
// agree at every size around its 8-byte chunking.
TEST(Crc32c, ScalarMatchesHardware) {
  Rng rng(99);
  for (size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u,
                   63u, 64u, 65u, 255u, 256u, 1000u, 4096u, 65536u}) {
    const std::string data = rng.Bytes(n);
    EXPECT_EQ(Crc32cScalar(data), Crc32c(data)) << "size " << n;
  }
}

TEST(Crc32c, ExtendComposes) {
  Rng rng(100);
  const std::string a = rng.Bytes(1000);
  const std::string b = rng.Bytes(313);
  EXPECT_EQ(Crc32c(a + b), Crc32cExtend(Crc32c(a), b));
  EXPECT_EQ(Crc32c(a), Crc32cScalar(a));
}

}  // namespace
}  // namespace minicrypt
