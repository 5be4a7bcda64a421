#include "src/kvstore/media.h"

#include <cmath>

#include "src/kvstore/fault_injector.h"
#include "src/obs/metrics.h"

namespace minicrypt {

void Media::ResetStats() {
  stats_.reads = 0;
  stats_.read_bytes = 0;
  stats_.writes = 0;
  stats_.write_bytes = 0;
  stats_.busy_micros = 0;
}

void NullMedia::Read(size_t bytes) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  stats_.read_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void NullMedia::Write(size_t bytes, bool sequential) {
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  stats_.write_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

MediaProfile MediaProfile::Disk(double latency_scale) {
  MediaProfile p;
  p.seek_micros = 8000;
  p.bytes_per_micro_read = 150.0;
  p.bytes_per_micro_write = 130.0;
  p.queue_depth = 1;
  p.latency_scale = latency_scale;
  return p;
}

MediaProfile MediaProfile::Ssd(double latency_scale) {
  MediaProfile p;
  p.seek_micros = 120;
  p.bytes_per_micro_read = 500.0;
  p.bytes_per_micro_write = 450.0;
  p.queue_depth = 32;
  p.latency_scale = latency_scale;
  return p;
}

SimulatedMedia::SimulatedMedia(MediaProfile profile, Clock* clock, FaultInjector* fault_injector)
    : profile_(profile),
      clock_(clock),
      fault_injector_(fault_injector),
      slots_(profile.queue_depth) {}

uint64_t SimulatedMedia::SpikeMicros() {
  if (fault_injector_ == nullptr) {
    return 0;
  }
  uint64_t draw = 0;
  if (!fault_injector_->Fire(FaultPoint::kMediaLatency, {}, &draw)) {
    return 0;
  }
  const uint64_t spike = fault_injector_->LatencySpikeMicros(draw);
  OBS_COUNTER_ADD("media.latency.injected_micros", spike);
  return spike;
}

uint64_t SimulatedMedia::Charge(uint64_t micros) {
  const auto scaled = static_cast<uint64_t>(std::llround(
      static_cast<double>(micros) * profile_.latency_scale));
  stats_.busy_micros.fetch_add(scaled, std::memory_order_relaxed);
  if (scaled > 0) {
    slots_.Occupy(clock_, scaled);
  }
  return scaled;
}

void SimulatedMedia::Read(size_t bytes) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  stats_.read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  OBS_COUNTER_INC("media.read.count");
  OBS_COUNTER_ADD("media.read.bytes", bytes);
  const auto transfer = static_cast<uint64_t>(
      static_cast<double>(bytes) / profile_.bytes_per_micro_read);
  // The charge IS the simulated device: it must sleep and account busy time
  // whether or not metrics are enabled. Only the histogram record is gated.
  const uint64_t charged = Charge(profile_.seek_micros + transfer + SpikeMicros());
  OBS_HISTOGRAM_RECORD("media.read", charged);
}

void SimulatedMedia::Write(size_t bytes, bool sequential) {
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  stats_.write_bytes.fetch_add(bytes, std::memory_order_relaxed);
  OBS_COUNTER_INC("media.write.count");
  OBS_COUNTER_ADD("media.write.bytes", bytes);
  const auto transfer = static_cast<uint64_t>(
      static_cast<double>(bytes) / profile_.bytes_per_micro_write);
  const uint64_t charged =
      Charge((sequential ? transfer : profile_.seek_micros + transfer) + SpikeMicros());
  OBS_HISTOGRAM_RECORD("media.write", charged);
}

}  // namespace minicrypt
