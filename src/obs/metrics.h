// Process-wide observability layer: a registry of named counters, gauges,
// and latency histograms, plus a scoped trace-span API (OBS_SPAN) that
// attributes per-operation time to named stages.
//
// Design goals (see docs/METRICS.md for the metric reference):
//  - Lock-free fast path. Counters and histograms are sharded over
//    cache-line-aligned atomics; threads hash to a shard, so concurrent
//    increments from a 12-thread bench driver never contend on one line.
//  - Negligible overhead when disabled. Every macro checks one relaxed
//    atomic bool; spans skip both clock reads when the registry is off.
//  - Stable pointers. Registration interns the metric once; call sites cache
//    the pointer in a function-local static, so the steady-state cost of a
//    counter bump is one relaxed fetch_add.
//  - Reuse of src/common/histogram.* bucket math: LatencyHistogram
//    accumulates per-bucket atomic counts and rebuilds a plain Histogram
//    (Histogram::FromBucketCounts) for percentile queries and JSON export.
//
// Metrics survive ResetAll() as registrations (values zeroed), which is what
// the bench harnesses use to scope a snapshot to one measured run.

#ifndef MINICRYPT_SRC_OBS_METRICS_H_
#define MINICRYPT_SRC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/common/histogram.h"

namespace minicrypt {

// Shard count for per-thread striping. Power of two; 16 lines = 1 KB per
// counter, small enough to register dozens of counters freely.
inline constexpr uint32_t kObsShards = 16;

// Stable per-thread shard index (round-robin assignment at first use).
inline uint32_t ObsThreadShard() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kObsShards;
  return shard;
}

// Monotonic nanoseconds for span timing. Spans always measure wall time (the
// simulated Clock sleeps for real, so wall time is simulation time too).
inline uint64_t ObsNowNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Monotonic event counter (ops, bytes, retries). Add is one relaxed
// fetch_add on the calling thread's shard.
class Counter {
 public:
  void Add(uint64_t delta) {
    cells_[ObsThreadShard()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Cell& cell : cells_) {
      cell.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kObsShards];
};

// Last-writer-wins instantaneous value (compression ratio, bytes in use).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Concurrent latency histogram: sharded atomic buckets over the exponential
// layout of src/common/histogram.*. Record is bucket math plus four relaxed
// atomic ops on the thread's shard; Snapshot merges shards into a plain
// Histogram for percentile queries.
class LatencyHistogram {
 public:
  void Record(uint64_t value_micros) {
    Shard& shard = shards_[ObsThreadShard()];
    const int bucket = Histogram::BucketFor(value_micros);
    shard.buckets[static_cast<size_t>(bucket)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value_micros, std::memory_order_relaxed);
    AtomicMin(shard.min, value_micros);
    AtomicMax(shard.max, value_micros);
  }

  Histogram Snapshot() const {
    uint64_t counts[Histogram::kBucketCount] = {};
    uint64_t sum = 0;
    uint64_t min = ~0ULL;
    uint64_t max = 0;
    for (const Shard& shard : shards_) {
      for (int b = 0; b < Histogram::kBucketCount; ++b) {
        counts[b] += shard.buckets[static_cast<size_t>(b)].load(std::memory_order_relaxed);
      }
      sum += shard.sum.load(std::memory_order_relaxed);
      min = std::min(min, shard.min.load(std::memory_order_relaxed));
      max = std::max(max, shard.max.load(std::memory_order_relaxed));
    }
    return Histogram::FromBucketCounts(counts, Histogram::kBucketCount, sum,
                                       min == ~0ULL ? 0 : min, max);
  }

  void Reset() {
    for (Shard& shard : shards_) {
      for (auto& bucket : shard.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      shard.sum.store(0, std::memory_order_relaxed);
      shard.min.store(~0ULL, std::memory_order_relaxed);
      shard.max.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[Histogram::kBucketCount] = {};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{~0ULL};
    std::atomic<uint64_t> max{0};
  };

  static void AtomicMin(std::atomic<uint64_t>& slot, uint64_t v) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<uint64_t>& slot, uint64_t v) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  Shard shards_[kObsShards];
};

// Process-wide registry. Getters intern by name and never invalidate returned
// pointers; ResetAll zeroes values but keeps registrations, so pointers cached
// in function-local statics stay valid for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  LatencyHistogram* GetHistogram(std::string_view name);

  // Registers a gauge whose value is computed on demand at snapshot time
  // (ToJson) — e.g. a ratio derived from two counters — so hot paths pay only
  // the counter adds and never a read-modify-write of a gauge. The first
  // registration under a name wins; a derived gauge shadows a plain gauge of
  // the same name in the snapshot. `fn` must be thread-safe and must not call
  // back into the registry (ToJson invokes it under the registry lock).
  void RegisterDerivedGauge(std::string_view name, std::function<double()> fn);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  // Zeroes every metric's value; registrations (and pointers) survive.
  void ResetAll();

  // One-line JSON snapshot:
  //   {"counters":{...},"gauges":{...},"histograms":{"name":{"count":...}}}
  // Histograms with count == 0 and counters with value == 0 are elided so
  // bench output stays readable. Keys are sorted (std::map iteration).
  std::string ToJson() const;

 private:
  MetricsRegistry();

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::function<double()>, std::less<>> derived_gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>> histograms_;
  std::atomic<bool> enabled_{true};
};

// RAII stage timer. Constructed through OBS_SPAN; records elapsed micros into
// the named latency histogram on destruction. When the registry is disabled
// at construction the span is inert (no clock reads, no record).
class ScopedSpan {
 public:
  explicit ScopedSpan(LatencyHistogram* histogram)
      : histogram_(MetricsRegistry::Instance().enabled() ? histogram : nullptr),
        start_nanos_(histogram_ != nullptr ? ObsNowNanos() : 0) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (histogram_ != nullptr) {
      histogram_->Record((ObsNowNanos() - start_nanos_) / 1000);
    }
  }

 private:
  LatencyHistogram* histogram_;
  uint64_t start_nanos_;
};

}  // namespace minicrypt

// --- Instrumentation macros ---------------------------------------------------
//
// All take a string literal name (docs/METRICS.md lists every name in use).
// The metric pointer is interned once per call site via a function-local
// static; the enabled check is one relaxed load.
//
// The value argument is evaluated exactly once, BEFORE the enabled check, so
// side-effecting expressions (e.g. a simulated-latency charge) still run when
// the registry is disabled — only the record itself is gated. Keep the value
// expression cheap; disabled-mode overhead is its evaluation plus one load.

#define OBS_INTERNAL_CONCAT2(a, b) a##b
#define OBS_INTERNAL_CONCAT(a, b) OBS_INTERNAL_CONCAT2(a, b)

#define OBS_COUNTER_ADD(name, delta)                                                       \
  do {                                                                                     \
    static ::minicrypt::Counter* OBS_INTERNAL_CONCAT(obs_counter_, __LINE__) =             \
        ::minicrypt::MetricsRegistry::Instance().GetCounter(name);                         \
    const uint64_t OBS_INTERNAL_CONCAT(obs_delta_, __LINE__) = (delta);                    \
    if (::minicrypt::MetricsRegistry::Instance().enabled()) {                              \
      OBS_INTERNAL_CONCAT(obs_counter_, __LINE__)->Add(OBS_INTERNAL_CONCAT(obs_delta_,     \
                                                                           __LINE__));     \
    }                                                                                      \
  } while (0)

#define OBS_COUNTER_INC(name) OBS_COUNTER_ADD(name, 1)

#define OBS_GAUGE_SET(name, value)                                                         \
  do {                                                                                     \
    static ::minicrypt::Gauge* OBS_INTERNAL_CONCAT(obs_gauge_, __LINE__) =                 \
        ::minicrypt::MetricsRegistry::Instance().GetGauge(name);                           \
    const double OBS_INTERNAL_CONCAT(obs_value_, __LINE__) = (value);                      \
    if (::minicrypt::MetricsRegistry::Instance().enabled()) {                              \
      OBS_INTERNAL_CONCAT(obs_gauge_, __LINE__)->Set(OBS_INTERNAL_CONCAT(obs_value_,       \
                                                                         __LINE__));       \
    }                                                                                      \
  } while (0)

#define OBS_HISTOGRAM_RECORD(name, micros)                                                 \
  do {                                                                                     \
    static ::minicrypt::LatencyHistogram* OBS_INTERNAL_CONCAT(obs_hist_, __LINE__) =       \
        ::minicrypt::MetricsRegistry::Instance().GetHistogram(name);                       \
    const uint64_t OBS_INTERNAL_CONCAT(obs_micros_, __LINE__) = (micros);                  \
    if (::minicrypt::MetricsRegistry::Instance().enabled()) {                              \
      OBS_INTERNAL_CONCAT(obs_hist_, __LINE__)->Record(OBS_INTERNAL_CONCAT(obs_micros_,    \
                                                                           __LINE__));     \
    }                                                                                      \
  } while (0)

// Times the enclosing scope into histogram `name`, e.g. OBS_SPAN("pack.decrypt").
#define OBS_SPAN(name)                                                                     \
  static ::minicrypt::LatencyHistogram* OBS_INTERNAL_CONCAT(obs_span_hist_, __LINE__) =    \
      ::minicrypt::MetricsRegistry::Instance().GetHistogram(name);                         \
  ::minicrypt::ScopedSpan OBS_INTERNAL_CONCAT(obs_span_, __LINE__)(                        \
      OBS_INTERNAL_CONCAT(obs_span_hist_, __LINE__))

#endif  // MINICRYPT_SRC_OBS_METRICS_H_
