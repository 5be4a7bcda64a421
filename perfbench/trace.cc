#include "perfbench/trace.h"

#include <time.h>

#include <algorithm>
#include <cstdio>

namespace minicrypt::perfbench {
namespace {

uint64_t ClockNanos(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + static_cast<uint64_t>(ts.tv_nsec);
}

struct LocalSlot {
  const SpanStore* owner = nullptr;
  void* buffer = nullptr;
};
thread_local LocalSlot tls_slot;
thread_local OpSpan* tls_op = nullptr;

}  // namespace

uint64_t WallNanos() { return ClockNanos(CLOCK_MONOTONIC); }
uint64_t ThreadCpuNanos() { return ClockNanos(CLOCK_THREAD_CPUTIME_ID); }

SpanStore::Buffer* SpanStore::LocalBuffer() {
  if (tls_slot.owner != this) {
    auto buffer = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->thread = static_cast<uint32_t>(buffers_.size());
    tls_slot.owner = this;
    tls_slot.buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<Buffer*>(tls_slot.buffer);
}

uint32_t SpanStore::ThreadId() { return LocalBuffer()->thread; }

void SpanStore::AddOp(const OpSpan& span) { LocalBuffer()->ops.push_back(span); }

void SpanStore::AddSleep(const SleepSpan& span) {
  if (kept_sleeps_.fetch_add(1, std::memory_order_relaxed) >= max_sleep_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Buffer* buffer = LocalBuffer();
  buffer->sleeps.push_back(span);
  buffer->sleeps.back().thread = buffer->thread;
}

// Called after every recording thread has quiesced (the benchmark reads the
// store only between phases and at the end of the run).
std::vector<OpSpan> SpanStore::Ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<OpSpan> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->ops.begin(), buffer->ops.end());
  }
  return out;
}

std::vector<SleepSpan> SpanStore::Sleeps() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SleepSpan> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->sleeps.begin(), buffer->sleeps.end());
  }
  return out;
}

bool SpanStore::WriteTsv(const std::string& path) const {
  const std::vector<OpSpan> ops = Ops();
  const std::vector<SleepSpan> sleeps = Sleeps();
  uint64_t origin = ~0ULL;
  for (const OpSpan& op : ops) {
    origin = std::min(origin, op.start_ns);
  }
  for (const SleepSpan& sleep : sleeps) {
    origin = std::min(origin, sleep.start_ns);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "kind\tname\tthread\tid\tparent\tstart_ns\tend_ns\tcpu_ns\tsleep_calls\t"
                  "requested_us\tsleep_actual_ns\n");
  for (const OpSpan& op : ops) {
    std::fprintf(f, "op\t%s\t%u\t%llu\t0\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\n", op.name,
                 op.thread, static_cast<unsigned long long>(op.id),
                 static_cast<unsigned long long>(op.start_ns - origin),
                 static_cast<unsigned long long>(op.end_ns - origin),
                 static_cast<unsigned long long>(op.cpu_ns),
                 static_cast<unsigned long long>(op.sleep_calls),
                 static_cast<unsigned long long>(op.sleep_requested_us),
                 static_cast<unsigned long long>(op.sleep_actual_ns));
  }
  for (const SleepSpan& sleep : sleeps) {
    std::fprintf(f, "sleep\tclock.sleep\t%u\t0\t%llu\t%llu\t%llu\t0\t1\t%llu\t%llu\n",
                 sleep.thread, static_cast<unsigned long long>(sleep.parent),
                 static_cast<unsigned long long>(sleep.start_ns - origin),
                 static_cast<unsigned long long>(sleep.end_ns - origin),
                 static_cast<unsigned long long>(sleep.requested_us),
                 static_cast<unsigned long long>(sleep.end_ns - sleep.start_ns));
  }
  return std::fclose(f) == 0;
}

void RecordingClock::SetCurrentOp(OpSpan* span) { tls_op = span; }

void RecordingClock::SleepMicros(uint64_t micros) {
  if (!recording()) {
    SystemClock::Get()->SleepMicros(micros);
    return;
  }
  const uint64_t start = WallNanos();
  SystemClock::Get()->SleepMicros(micros);
  const uint64_t end = WallNanos();
  const uint64_t actual = end - start;
  OpSpan* op = tls_op;
  if (op != nullptr) {
    op->sleep_calls += 1;
    op->sleep_requested_us += micros;
    op->sleep_actual_ns += actual;
    fg_calls_.fetch_add(1, std::memory_order_relaxed);
    fg_requested_us_.fetch_add(micros, std::memory_order_relaxed);
    fg_actual_ns_.fetch_add(actual, std::memory_order_relaxed);
  } else {
    bg_calls_.fetch_add(1, std::memory_order_relaxed);
    bg_requested_us_.fetch_add(micros, std::memory_order_relaxed);
    bg_actual_ns_.fetch_add(actual, std::memory_order_relaxed);
  }
  spans_->AddSleep(SleepSpan{op != nullptr ? op->id : 0, 0, start, end, micros});
}

SleepTotals RecordingClock::Totals() const {
  SleepTotals t;
  t.fg_calls = fg_calls_.load(std::memory_order_relaxed);
  t.fg_requested_us = fg_requested_us_.load(std::memory_order_relaxed);
  t.fg_actual_ns = fg_actual_ns_.load(std::memory_order_relaxed);
  t.bg_calls = bg_calls_.load(std::memory_order_relaxed);
  t.bg_requested_us = bg_requested_us_.load(std::memory_order_relaxed);
  t.bg_actual_ns = bg_actual_ns_.load(std::memory_order_relaxed);
  return t;
}

}  // namespace minicrypt::perfbench
