#include "src/compress/compressor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/compress/strawman.h"
#include "src/workload/datasets.h"

namespace minicrypt {
namespace {

// Parameterized round-trip suite covering every general-purpose codec plus
// the RLE strawman.
class CodecRoundTrip : public ::testing::TestWithParam<std::string> {
 protected:
  const Compressor* codec() const {
    const Compressor* c = FindCompressor(GetParam());
    EXPECT_NE(c, nullptr);
    return c;
  }

  void ExpectRoundTrip(const std::string& input) {
    auto compressed = codec()->Compress(input);
    ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
    auto restored = codec()->Decompress(*compressed);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(*restored, input);
    // A prefix decode that never has enough decodes the whole frame.
    uint64_t full_size = 0;
    auto streamed = codec()->DecompressPrefix(
        *compressed, [](std::string_view) { return false; }, &full_size);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(*streamed, input);
    EXPECT_EQ(full_size, input.size());
  }
};

TEST_P(CodecRoundTrip, Empty) { ExpectRoundTrip(""); }

TEST_P(CodecRoundTrip, SingleByte) { ExpectRoundTrip("x"); }

TEST_P(CodecRoundTrip, AllByteValues) {
  std::string input;
  for (int rep = 0; rep < 3; ++rep) {
    for (int b = 0; b < 256; ++b) {
      input.push_back(static_cast<char>(b));
    }
  }
  ExpectRoundTrip(input);
}

TEST_P(CodecRoundTrip, LongRun) { ExpectRoundTrip(std::string(100000, 'a')); }

TEST_P(CodecRoundTrip, AlternatingRuns) {
  std::string input;
  for (int i = 0; i < 5000; ++i) {
    input.append(i % 2 == 0 ? "aaaabbbb" : "ccc");
  }
  ExpectRoundTrip(input);
}

TEST_P(CodecRoundTrip, RandomIncompressible) {
  Rng rng(101);
  ExpectRoundTrip(rng.Bytes(64 * 1024));
}

TEST_P(CodecRoundTrip, RandomSizesProperty) {
  Rng rng(202);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = rng.Uniform(3000);
    std::string input;
    // Mixed compressibility: runs, random bytes, repeated motifs.
    while (input.size() < n) {
      switch (rng.Uniform(3)) {
        case 0:
          input.append(rng.Uniform(40) + 1, static_cast<char>('a' + rng.Uniform(4)));
          break;
        case 1:
          input += rng.Bytes(rng.Uniform(30) + 1);
          break;
        default:
          input += "the quick brown fox ";
          break;
      }
    }
    input.resize(n);
    ExpectRoundTrip(input);
  }
}

TEST_P(CodecRoundTrip, DatasetSamples) {
  for (std::string_view name : {"conviva", "wiki"}) {
    auto dataset = MakeDataset(name, 77);
    std::string input;
    for (int i = 0; i < 30; ++i) {
      input += dataset->Row(static_cast<uint64_t>(i));
    }
    ExpectRoundTrip(input);
  }
}

TEST_P(CodecRoundTrip, TruncatedInputNeverYieldsWrongData) {
  const std::string input = std::string(1000, 'q') + "tail entropy 123";
  auto compressed = codec()->Compress(input);
  ASSERT_TRUE(compressed.ok());
  // Every strict prefix must fail — or, when the dropped bytes were pure
  // framing slack (possible for range-coder flush bytes), still decode to
  // exactly the original. Silent wrong output is the only forbidden outcome.
  for (size_t cut : {size_t{0}, size_t{1}, compressed->size() / 2, compressed->size() - 1}) {
    const std::string_view truncated(compressed->data(), cut);
    auto out = codec()->Decompress(truncated);
    if (out.ok()) {
      EXPECT_EQ(*out, input) << "cut=" << cut << " silently decoded to wrong data";
    }
    uint64_t full_size = 0;
    auto streamed = codec()->DecompressPrefix(
        truncated, [](std::string_view) { return false; }, &full_size);
    if (streamed.ok()) {
      EXPECT_EQ(*streamed, input) << "cut=" << cut << " silently decoded to wrong data";
    }
  }
}

// Shapes that stress an LZ match finder and its overlap copies: sizes around
// 8/16/32-byte boundaries, single-byte runs, short periods (match offset
// smaller than match length), a repeated phrase, a motif straddling literal
// runs, and a large buffer of random back-references.
TEST_P(CodecRoundTrip, MatchFinderShapes) {
  Rng rng(20260808);
  std::vector<std::string> inputs;
  for (size_t n : {2u, 3u, 4u, 7u, 8u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u,
                   65u, 127u, 255u, 256u, 1000u, 4096u}) {
    inputs.push_back(rng.Bytes(n));
  }
  inputs.emplace_back(5, 'x');
  inputs.emplace_back(100, 'x');
  inputs.emplace_back(70000, 'x');
  for (size_t period : {2u, 3u, 5u, 7u, 11u, 15u, 16u, 17u, 31u}) {
    std::string s;
    while (s.size() < 3000) {
      for (size_t i = 0; i < period; ++i) {
        s.push_back(static_cast<char>('a' + (i % 26)));
      }
    }
    inputs.push_back(std::move(s));
  }
  {
    std::string s = rng.Bytes(300);
    for (int i = 0; i < 200; ++i) {
      s += "the quick brown fox jumps over the lazy dog ";
    }
    inputs.push_back(std::move(s));
  }
  {
    std::string s;
    const std::string motif = rng.Bytes(48);
    for (int i = 0; i < 100; ++i) {
      s += rng.Bytes(rng.Uniform(90) + 1);
      s += motif;
    }
    inputs.push_back(std::move(s));
  }
  {
    // Offsets up to the whole buffer, matches past 64 bytes.
    std::string s = "a";
    while (s.size() < 256 * 1024) {
      if (rng.Bernoulli(0.5)) {
        s += rng.Bytes(rng.Uniform(200) + 1);
      } else {
        const size_t off = rng.Uniform(s.size()) + 1;
        const size_t len = rng.Uniform(300) + 4;
        const size_t start = s.size() - off;
        for (size_t i = 0; i < len; ++i) {
          s.push_back(s[start + (i % off)]);
        }
      }
    }
    inputs.push_back(std::move(s));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i) + " size " + std::to_string(inputs[i].size()));
    ExpectRoundTrip(inputs[i]);
  }
}

TEST_P(CodecRoundTrip, CompressibleDataShrinks) {
  auto dataset = MakeDataset("conviva", 3);
  std::string input;
  for (int i = 0; i < 100; ++i) {
    input += dataset->Row(static_cast<uint64_t>(i));
  }
  auto compressed = codec()->Compress(input);
  ASSERT_TRUE(compressed.ok());
  if (GetParam() != "rle") {  // byte-RLE legitimately cannot compress this
    // Conviva-like rows are ~12% incompressible tokens; even the fast LZ
    // codecs must still recover the cross-row field-name redundancy.
    EXPECT_LT(static_cast<double>(compressed->size()),
              static_cast<double>(input.size()) * 0.6)
        << GetParam() << " ratio too poor on pack-like data";
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::Values("snappylike", "lz4like", "zlib", "zlib9",
                                           "bzip2like", "lzmalike", "rle"),
                         [](const auto& info) { return info.param; });

// A prefix decode stops at the first step after which `enough` holds, and
// what it returns is the start of the payload.
TEST(ZlibPrefix, StopsEarlyWithAPrefixOfThePayload) {
  Rng rng(9);
  std::string input;
  for (int i = 0; i < 2000; ++i) {
    input += "row " + std::to_string(rng.Uniform(1000)) + " of many; ";
  }
  const Compressor* zlib = FindCompressor("zlib");
  auto compressed = zlib->Compress(input);
  ASSERT_TRUE(compressed.ok());
  uint64_t full_size = 0;
  int steps = 0;
  auto prefix = zlib->DecompressPrefix(
      *compressed,
      [&](std::string_view out) {
        ++steps;
        return out.size() >= 1000;
      },
      &full_size);
  ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
  EXPECT_EQ(full_size, input.size());
  EXPECT_GE(prefix->size(), 1000u);
  EXPECT_LT(prefix->size(), input.size());
  EXPECT_EQ(*prefix, input.substr(0, prefix->size()));
  EXPECT_GE(steps, 1);
}

// The frame header declares the raw size. One compressed byte inflates to at
// most 1032, so a larger claim is rejected before the buffer is allocated.
TEST(ZlibPrefix, OversizedDeclaredSizeIsRejectedBeforeAllocating) {
  std::string frame;
  PutVarint64(&frame, 1ULL << 30);  // 1 GiB
  frame += std::string(20, '\x5a');
  const Compressor* zlib = FindCompressor("zlib");
  auto whole = zlib->Decompress(frame);
  ASSERT_FALSE(whole.ok());
  EXPECT_TRUE(whole.status().IsCorruption());
  EXPECT_NE(whole.status().message().find("oversized payload"), std::string::npos)
      << whole.status().ToString();
  uint64_t full_size = 0;
  auto prefix = zlib->DecompressPrefix(
      frame, [](std::string_view) { return true; }, &full_size);
  ASSERT_FALSE(prefix.ok());
  EXPECT_NE(prefix.status().message().find("oversized payload"), std::string::npos)
      << prefix.status().ToString();
  // A real frame near the bound still decodes: 10 MB of zeros deflate ~1027:1.
  const std::string zeros(10 << 20, '\0');
  auto packed = zlib->Compress(zeros);
  ASSERT_TRUE(packed.ok());
  auto unpacked = zlib->Decompress(*packed);
  ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  EXPECT_EQ(*unpacked, zeros);
}

TEST(Registry, KnownNamesResolve) {
  for (std::string_view name : AllCompressorNames()) {
    const Compressor* c = FindCompressor(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->Name(), name);
  }
  EXPECT_EQ(FindCompressor("nope"), nullptr);
  EXPECT_NE(DefaultCompressor(), nullptr);
  EXPECT_EQ(DefaultCompressor()->Name(), "zlib");
}

TEST(Registry, SurveyOrderHasFiveCodecs) {
  // Figure 2 examines exactly five algorithms.
  EXPECT_EQ(AllCompressorNames().size(), 5u);
}

TEST(CodecComparison, BwtFamilyBeatsFastLzOnText) {
  auto dataset = MakeDataset("wiki", 5);
  std::string input;
  for (int i = 0; i < 60; ++i) {
    input += dataset->Row(static_cast<uint64_t>(i));
  }
  auto bwt = FindCompressor("bzip2like")->Compress(input);
  auto fast = FindCompressor("snappylike")->Compress(input);
  ASSERT_TRUE(bwt.ok());
  ASSERT_TRUE(fast.ok());
  // The slow/high-ratio end of the survey must actually deliver more ratio.
  EXPECT_LT(bwt->size(), fast->size());
}

TEST(Dictionary, InternEncodeDecode) {
  DictionaryEncoder dict;
  const uint32_t a = dict.Intern("female");
  const uint32_t b = dict.Intern("male");
  EXPECT_EQ(dict.Intern("female"), a);  // idempotent
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.DistinctValues(), 2u);
  auto code = dict.Encode("female");
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code->size(), dict.CodeWidth());
  auto value = dict.Decode(*code);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "female");
  EXPECT_TRUE(dict.Encode("unknown").status().IsNotFound());
}

TEST(Dictionary, CodeWidthGrowsWithCardinality) {
  DictionaryEncoder dict;
  for (int i = 0; i < 300; ++i) {
    dict.Intern("value-" + std::to_string(i));
  }
  EXPECT_EQ(dict.CodeWidth(), 2u);
  EXPECT_GT(dict.TableBytes(), 300u * 8);  // table carries every distinct value
}

TEST(Dictionary, PoorRatioOnHighCardinalityData) {
  // Paper §2.4: dictionary encoding achieved only ~1.6 overall on Conviva
  // because most columns are high-cardinality. Model one such column.
  DictionaryEncoder dict;
  auto dataset = MakeDataset("conviva", 9);
  size_t raw = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string row = dataset->Row(static_cast<uint64_t>(i));
    raw += row.size();
    dict.Intern(row);  // every row distinct -> table ~= data
  }
  // Encoded data shrinks to code width, but the client-held table is as big
  // as the data itself — the paper's "80% of the compressed data" problem.
  EXPECT_GT(dict.TableBytes(), raw / 2);
}

}  // namespace
}  // namespace minicrypt
