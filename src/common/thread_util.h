// Small threading helpers shared by the cluster simulation and the
// benchmarks: reservation timelines (the modelled link and device queues), a
// latch-style start barrier, and a periodic background task runner.

#ifndef MINICRYPT_SRC_COMMON_THREAD_UTIL_H_
#define MINICRYPT_SRC_COMMON_THREAD_UTIL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/clock.h"

namespace minicrypt {

// A shared modelled resource (the client link, a device's queue slots) as
// reservation timelines, one per slot. Occupy books the slot that frees
// first for [max(now, busy_until), +micros) under a leaf mutex, then sleeps
// to the end of that window with no lock held, so a sleeper's overshoot
// never delays the next booking. Single-threaded, every window starts at
// now and the sleep is exactly `micros`.
class ReservationTimeline {
 public:
  explicit ReservationTimeline(int slots)
      : busy_until_(static_cast<size_t>(std::max(slots, 1)), 0) {}

  void Occupy(Clock* clock, uint64_t micros);

 private:
  std::mutex mu_;
  std::vector<uint64_t> busy_until_;  // end of each slot's last window
};

// One-shot start barrier: worker threads Wait(), the coordinator Release()s
// them all at once so throughput measurement starts simultaneously.
class StartGate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Runs `fn` every `period_micros` on a dedicated thread until stopped.
// Used for the EM service tick, client heartbeat, and background mergers.
class PeriodicTask {
 public:
  PeriodicTask(std::function<void()> fn, uint64_t period_micros);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Stop();

 private:
  void Loop();

  std::function<void()> fn_;
  uint64_t period_micros_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMMON_THREAD_UTIL_H_
