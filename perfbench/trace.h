// Outside-in tracing for the MiniCrypt client benchmark.
//
// The benchmark never edits the program to trace it. It times its own calls
// into the client (one OpSpan per Get/Put) and hands the cluster a
// RecordingClock, which sees every modelled sleep the program takes: network
// charges, media charges, retry backoff. A sleep taken while the calling
// thread is inside an op is parented to that op; a sleep on any other thread
// (replica fan-out pool, merger, EM service) is background.
//
// Spans are kept in memory and written out once, at the end of the run.

#ifndef MINICRYPT_PERFBENCH_TRACE_H_
#define MINICRYPT_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"

namespace minicrypt::perfbench {

// Monotonic wall clock and the calling thread's CPU clock, in ns.
uint64_t WallNanos();
uint64_t ThreadCpuNanos();

// One client operation as seen by the calling thread. The sleep fields are
// filled by RecordingClock while the op is current on its thread.
struct OpSpan {
  uint64_t id = 0;
  const char* name = "";
  uint32_t thread = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t sleep_calls = 0;
  uint64_t sleep_requested_us = 0;
  uint64_t sleep_actual_ns = 0;
};

// One Clock::SleepMicros call. parent == 0 means background.
struct SleepSpan {
  uint64_t parent = 0;
  uint32_t thread = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t requested_us = 0;
};

// Span buffers, one per recording thread, owned by the store so they outlive
// the pool threads that fill them. Sleep spans beyond `max_sleep_spans` are
// counted but not kept (the per-op and global sleep totals stay exact).
class SpanStore {
 public:
  explicit SpanStore(size_t max_sleep_spans) : max_sleep_spans_(max_sleep_spans) {}

  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  void AddOp(const OpSpan& span);
  void AddSleep(const SleepSpan& span);

  std::vector<OpSpan> Ops() const;
  std::vector<SleepSpan> Sleeps() const;
  uint64_t dropped_sleeps() const { return dropped_.load(std::memory_order_relaxed); }

  // Stable small id for the calling thread (bench threads register first).
  uint32_t ThreadId();

  // Tab-separated dump: kind, thread, id/parent, start/end relative to the
  // earliest span, and the sleep fields. Returns false on I/O failure.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<OpSpan> ops;
    std::vector<SleepSpan> sleeps;
  };
  Buffer* LocalBuffer();

  const size_t max_sleep_spans_;
  std::atomic<size_t> kept_sleeps_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Cumulative sleep totals, split by whether the sleeping thread was inside
// a benchmark op (foreground) or not (background).
struct SleepTotals {
  uint64_t fg_calls = 0;
  uint64_t fg_requested_us = 0;
  uint64_t fg_actual_ns = 0;
  uint64_t bg_calls = 0;
  uint64_t bg_requested_us = 0;
  uint64_t bg_actual_ns = 0;
};

// Clock passed as ClusterOptions::clock (and to the APPEND-mode services) in
// traced runs. Time and sleeps come from SystemClock; while recording is on,
// each sleep is measured and attributed.
class RecordingClock : public Clock {
 public:
  explicit RecordingClock(SpanStore* spans) : spans_(spans) {}

  uint64_t NowMicros() const override { return SystemClock::Get()->NowMicros(); }
  void SleepMicros(uint64_t micros) override;

  void SetRecording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }
  SleepTotals Totals() const;

  // Marks `span` as the calling thread's current op (nullptr clears it).
  static void SetCurrentOp(OpSpan* span);

 private:
  SpanStore* spans_;
  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> fg_calls_{0};
  std::atomic<uint64_t> fg_requested_us_{0};
  std::atomic<uint64_t> fg_actual_ns_{0};
  std::atomic<uint64_t> bg_calls_{0};
  std::atomic<uint64_t> bg_requested_us_{0};
  std::atomic<uint64_t> bg_actual_ns_{0};
};

}  // namespace minicrypt::perfbench

#endif  // MINICRYPT_PERFBENCH_TRACE_H_
