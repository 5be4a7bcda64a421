#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/thread_util.h"

namespace minicrypt {
namespace {

// The registry is a process-wide singleton shared by every test in this
// binary, so each test uses its own metric names and resets values up front.

TEST(MetricsRegistry, InternsStablePointers) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  Counter* a = registry.GetCounter("obs_test.intern.a");
  Counter* b = registry.GetCounter("obs_test.intern.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, registry.GetCounter("obs_test.intern.a"));
  EXPECT_EQ(registry.GetGauge("obs_test.intern.g"), registry.GetGauge("obs_test.intern.g"));
  EXPECT_EQ(registry.GetHistogram("obs_test.intern.h"),
            registry.GetHistogram("obs_test.intern.h"));

  // ResetAll zeroes values but keeps registrations and pointers valid.
  a->Add(7);
  registry.ResetAll();
  EXPECT_EQ(a, registry.GetCounter("obs_test.intern.a"));
  EXPECT_EQ(a->Value(), 0u);
  a->Add(3);
  EXPECT_EQ(a->Value(), 3u);
}

TEST(MetricsRegistry, ConcurrentCounterIncrements) {
  Counter* counter = MetricsRegistry::Instance().GetCounter("obs_test.concurrent");
  counter->Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Add(1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(MetricsRegistry, ConcurrentHistogramRecords) {
  LatencyHistogram* hist = MetricsRegistry::Instance().GetHistogram("obs_test.conc_hist");
  hist->Reset();
  constexpr int kThreads = 6;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist, t] {
      for (uint64_t i = 1; i <= kPerThread; ++i) {
        hist->Record(i + static_cast<uint64_t>(t));  // values in [1, kPerThread+5]
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  Histogram snapshot = hist->Snapshot();
  EXPECT_EQ(snapshot.count(), kThreads * kPerThread);
  EXPECT_EQ(snapshot.Min(), 1u);
  EXPECT_EQ(snapshot.Max(), kPerThread + kThreads - 1);
  // Mean of ~uniform [1, 20000] per thread, small per-thread offset.
  EXPECT_NEAR(snapshot.Mean(), kPerThread / 2.0, kPerThread * 0.01);
}

TEST(Histogram, MergePreservesPercentiles) {
  // Two disjoint-range histograms merged must reproduce the percentiles of
  // one histogram fed the union of the samples.
  Histogram low;
  Histogram high;
  Histogram all;
  for (uint64_t v = 1; v <= 1000; ++v) {
    low.Add(v);
    all.Add(v);
  }
  for (uint64_t v = 10000; v <= 11000; ++v) {
    high.Add(v);
    all.Add(v);
  }
  Histogram merged = low;
  merged.Merge(high);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.Min(), all.Min());
  EXPECT_EQ(merged.Max(), all.Max());
  for (double p : {0.10, 0.50, 0.90, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), all.Percentile(p)) << "p=" << p;
  }
  // The low half dominates below p≈0.48, the high half above p≈0.52.
  EXPECT_LE(merged.Percentile(0.25), 1024.0);
  EXPECT_GE(merged.Percentile(0.75), 9000.0);
}

TEST(Histogram, FromBucketCountsRoundTrip) {
  Histogram direct;
  uint64_t counts[Histogram::kBucketCount] = {};
  uint64_t sum = 0;
  for (uint64_t v : {1u, 3u, 17u, 900u, 900u, 65536u}) {
    direct.Add(v);
    counts[Histogram::BucketFor(v)]++;
    sum += v;
  }
  Histogram rebuilt =
      Histogram::FromBucketCounts(counts, Histogram::kBucketCount, sum, 1, 65536);
  EXPECT_EQ(rebuilt.count(), direct.count());
  EXPECT_EQ(rebuilt.sum(), direct.sum());
  EXPECT_EQ(rebuilt.Min(), direct.Min());
  EXPECT_EQ(rebuilt.Max(), direct.Max());
  for (double p : {0.05, 0.50, 0.95}) {
    EXPECT_DOUBLE_EQ(rebuilt.Percentile(p), direct.Percentile(p)) << "p=" << p;
  }

  // Empty input yields an empty histogram with zeroed min.
  uint64_t zeros[Histogram::kBucketCount] = {};
  Histogram empty = Histogram::FromBucketCounts(zeros, Histogram::kBucketCount, 0, 0, 0);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.Min(), 0u);
}

TEST(ScopedSpan, TimingSanity) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  LatencyHistogram* hist = registry.GetHistogram("obs_test.span");
  hist->Reset();
  {
    OBS_SPAN("obs_test.span");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Histogram snapshot = hist->Snapshot();
  ASSERT_EQ(snapshot.count(), 1u);
  // Slept 5 ms: the recorded span must be at least that (scheduling can only
  // add time) and well under a second on any sane machine.
  EXPECT_GE(snapshot.Min(), 5000u);
  EXPECT_LT(snapshot.Min(), 1000000u);
}

TEST(ScopedSpan, DisabledRegistryIsInert) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  LatencyHistogram* hist = registry.GetHistogram("obs_test.disabled_span");
  Counter* counter = registry.GetCounter("obs_test.disabled_counter");
  hist->Reset();
  counter->Reset();
  registry.SetEnabled(false);
  {
    OBS_SPAN("obs_test.disabled_span");
    OBS_COUNTER_INC("obs_test.disabled_counter");
    OBS_COUNTER_ADD("obs_test.disabled_counter", 41);
  }
  registry.SetEnabled(true);
  EXPECT_EQ(hist->Snapshot().count(), 0u);
  EXPECT_EQ(counter->Value(), 0u);
  // Re-enabled: the same call sites work again (interned pointers survive).
  OBS_COUNTER_INC("obs_test.disabled_counter");
  EXPECT_EQ(counter->Value(), 1u);
}

TEST(MetricsRegistry, JsonSnapshot) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.ResetAll();
  registry.GetCounter("obs_test.json.count")->Add(42);
  registry.GetCounter("obs_test.json.zero");  // zero-valued: must be elided
  registry.GetGauge("obs_test.json.ratio")->Set(3.5);
  LatencyHistogram* hist = registry.GetHistogram("obs_test.json.lat");
  for (uint64_t i = 0; i < 100; ++i) {
    hist->Record(100);
  }

  const std::string json = registry.ToJson();

  // Structural validity: balanced braces, quotes pair up, top-level sections
  // present in order.
  int depth = 0;
  int min_depth_after_first = 1;
  size_t quotes = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '{') depth++;
    if (json[i] == '}') depth--;
    if (json[i] == '"') quotes++;
    if (i > 0 && i + 1 < json.size()) {
      min_depth_after_first = std::min(min_depth_after_first, depth);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0u);
  EXPECT_GE(min_depth_after_first, 1);  // one top-level object
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  // Round-trip of the values we wrote.
  EXPECT_NE(json.find("\"obs_test.json.count\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"obs_test.json.ratio\":3.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"obs_test.json.lat\":{\"count\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum_us\":10000"), std::string::npos) << json;
  // Zero counter elided; empty histograms elided entirely.
  EXPECT_EQ(json.find("obs_test.json.zero"), std::string::npos) << json;

  // After ResetAll the snapshot elides everything we wrote above.
  registry.ResetAll();
  const std::string after = registry.ToJson();
  EXPECT_EQ(after.find("obs_test.json.count"), std::string::npos) << after;
  EXPECT_EQ(after.find("obs_test.json.lat"), std::string::npos) << after;
}

TEST(MetricsRegistry, DerivedGaugeComputedAtSnapshotTime) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.ResetAll();
  Counter* raw = registry.GetCounter("obs_test.derived.raw");
  Counter* wire = registry.GetCounter("obs_test.derived.wire");
  // Static: the registration (and thus the lambda) outlives this test body,
  // and ToJson from any later test will invoke it again.
  static int calls;
  calls = 0;
  registry.RegisterDerivedGauge("obs_test.derived.ratio", [raw, wire] {
    ++calls;
    const uint64_t w = wire->Value();
    return w == 0 ? 0.0 : static_cast<double>(raw->Value()) / static_cast<double>(w);
  });

  // Not evaluated until a snapshot is taken; zero-valued (wire == 0) elided.
  EXPECT_EQ(calls, 0);
  std::string json = registry.ToJson();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(json.find("obs_test.derived.ratio"), std::string::npos) << json;

  raw->Add(700);
  wire->Add(200);
  json = registry.ToJson();
  EXPECT_NE(json.find("\"obs_test.derived.ratio\":3.5"), std::string::npos) << json;

  // ResetAll zeroes the source counters, so the derived value follows.
  registry.ResetAll();
  json = registry.ToJson();
  EXPECT_EQ(json.find("obs_test.derived.ratio"), std::string::npos) << json;
}

TEST(MetricsRegistry, JsonEscapesStrings) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.ResetAll();
  registry.GetCounter("obs_test.\"quoted\"\\name")->Add(1);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\\\"quoted\\\"\\\\name"), std::string::npos) << json;
  registry.ResetAll();
}

// --- docs/METRICS.md stays in step with src/ --------------------------------
//
// Every metric name src/ passes as a literal to the OBS_* macros or the
// registry needs a row in docs/METRICS.md, and every row must name something
// src/ emits. A name composed at run time ("fault." + point + ".trips") is
// compared as its literal prefix and suffix around a '*', which is also what
// a <placeholder> in a documented name reduces to.

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Copies a quoted literal starting at src[i] into *out; returns the index of
// its closing quote.
size_t CopyLiteral(const std::string& src, size_t i, std::string* out) {
  const char quote = src[i];
  *out += src[i];
  for (++i; i < src.size(); ++i) {
    *out += src[i];
    if (src[i] == '\\' && i + 1 < src.size()) {
      *out += src[++i];
    } else if (src[i] == quote) {
      break;
    }
  }
  return i;
}

// Drops // and /* */ comments; string and char literals pass through intact
// (a quote after an alphanumeric is a digit separator, as in 2'000'000).
std::string StripComments(const std::string& src) {
  std::string out;
  for (size_t i = 0; i < src.size(); ++i) {
    const bool char_literal =
        src[i] == '\'' && (i == 0 || !std::isalnum(static_cast<unsigned char>(src[i - 1])));
    if (src[i] == '"' || char_literal) {
      i = CopyLiteral(src, i, &out);
    } else if (src.compare(i, 2, "//") == 0) {
      i = std::min(src.find('\n', i), src.size()) - 1;
    } else if (src.compare(i, 2, "/*") == 0) {
      i = std::min(src.find("*/", i), src.size()) + 1;
    } else {
      out += src[i];
    }
  }
  return out;
}

// Source text of each argument of the call whose '(' is at src[open].
std::vector<std::string> CallArgs(const std::string& src, size_t open) {
  std::vector<std::string> args(1);
  int depth = 0;
  for (size_t i = open + 1; i < src.size(); ++i) {
    const char c = src[i];
    if (c == '"') {
      i = CopyLiteral(src, i, &args.back());
      continue;
    }
    if (c == '(') {
      ++depth;
    } else if (c == ')' && depth-- == 0) {
      break;
    } else if (c == ',' && depth == 0) {
      args.emplace_back();
      continue;
    }
    args.back() += c;
  }
  return args;
}

// The metric name an argument spells: the literal itself, prefix*suffix for
// literals joined with run-time parts, or "" when it holds no literal.
std::string NameOf(const std::string& arg) {
  static const std::regex kLiteral("\"([^\"]*)\"");
  std::vector<std::string> literals;
  for (std::sregex_iterator it(arg.begin(), arg.end(), kLiteral), end; it != end; ++it) {
    literals.push_back((*it)[1]);
  }
  if (literals.empty()) {
    return "";
  }
  const std::string rest = std::regex_replace(arg, std::regex("\"[^\"]*\"|\\s"), "");
  if (literals.size() == 1 && rest.empty()) {
    return literals[0];
  }
  const size_t first = arg.find_first_not_of(" \t\n");
  const size_t last = arg.find_last_not_of(" \t\n");
  const std::string prefix = arg[first] == '"' ? literals.front() : "";
  const std::string suffix = arg[last] == '"' && literals.size() > 1 ? literals.back() : "";
  return prefix + "*" + suffix;
}

// Names passed to the OBS_* macros and the registry's interning calls.
std::set<std::string> NamesUsedIn(const std::string& src) {
  static const std::regex kCall(
      "\\b(OBS_COUNTER_INC|OBS_COUNTER_ADD|OBS_GAUGE_SET|OBS_HISTOGRAM_RECORD|OBS_SPAN|"
      "GetCounter|GetGauge|GetHistogram|RegisterDerivedGauge|RatioMetrics::Intern)\\s*\\(");
  std::set<std::string> names;
  for (std::sregex_iterator it(src.begin(), src.end(), kCall), end; it != end; ++it) {
    const size_t open = static_cast<size_t>(it->position() + it->length() - 1);
    std::vector<std::string> args = CallArgs(src, open);
    // RatioMetrics::Intern names two counters and a gauge; the rest name one.
    if ((*it)[1] != "RatioMetrics::Intern") {
      args.resize(1);
    }
    for (const std::string& arg : args) {
      if (std::string name = NameOf(arg); !name.empty()) {
        names.insert(name);
      }
    }
  }
  return names;
}

// Backticked names in the first cell of each table row, <placeholder> -> '*'.
std::set<std::string> DocumentedNames(const std::string& doc) {
  static const std::regex kName("`([^`]+)`");
  std::set<std::string> names;
  std::istringstream lines(doc);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("| `", 0) != 0) {
      continue;
    }
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (std::sregex_iterator it(cell.begin(), cell.end(), kName), end; it != end; ++it) {
      names.insert(std::regex_replace((*it)[1].str(), std::regex("<[^>]+>"), "*"));
    }
  }
  return names;
}

TEST(MetricsDoc, MatchesNamesUsedInSource) {
  const std::filesystem::path root = MC_SOURCE_DIR;
  std::map<std::string, std::string> used;  // name -> first file using it
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root / "src")) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") {
      continue;
    }
    for (const std::string& name : NamesUsedIn(StripComments(ReadFile(entry.path())))) {
      used.emplace(name, entry.path().lexically_relative(root).string());
    }
  }
  const std::set<std::string> documented =
      DocumentedNames(ReadFile(root / "docs" / "METRICS.md"));
  // Guards against a scan or parse that silently matched nothing.
  ASSERT_GT(used.size(), 100u);
  ASSERT_GT(documented.size(), 100u);

  for (const auto& [name, file] : used) {
    EXPECT_TRUE(documented.count(name) > 0)
        << name << " (" << file << ") has no row in docs/METRICS.md";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(used.count(name) > 0)
        << "docs/METRICS.md documents " << name << ", which nothing under src/ emits";
  }
}

}  // namespace
}  // namespace minicrypt
