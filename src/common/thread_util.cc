#include "src/common/thread_util.h"

#include <chrono>

namespace minicrypt {

void ReservationTimeline::Occupy(Clock* clock, uint64_t micros) {
  uint64_t now = 0;
  uint64_t end = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    now = clock->NowMicros();
    auto slot = std::min_element(busy_until_.begin(), busy_until_.end());
    end = std::max(now, *slot) + micros;
    *slot = end;
  }
  clock->SleepMicros(end - now);
}

PeriodicTask::PeriodicTask(std::function<void()> fn, uint64_t period_micros)
    : fn_(std::move(fn)), period_micros_(period_micros), thread_([this] { Loop(); }) {}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void PeriodicTask::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::microseconds(period_micros_), [&] { return stop_; })) {
      return;
    }
    lock.unlock();
    fn_();
    lock.lock();
  }
}

}  // namespace minicrypt
