// Storage media latency model.
//
// The paper's Figure 9 phenomena (sharp throughput collapse when the working
// set no longer fits in memory; disks collapsing harder than SSDs) come from
// two device properties: per-access latency and device parallelism. Both are
// first-class here. A cache miss in the storage engine calls Read(); the
// calling thread books the modelled service time on the device's
// earliest-free queue slot and waits for it, so a queue-depth-1 disk
// serializes random reads while an SSD overlaps them.

#ifndef MINICRYPT_SRC_KVSTORE_MEDIA_H_
#define MINICRYPT_SRC_KVSTORE_MEDIA_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/common/clock.h"
#include "src/common/thread_util.h"

namespace minicrypt {

class FaultInjector;

struct MediaStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> busy_micros{0};
};

// Abstract device. Implementations charge (or skip) latency.
class Media {
 public:
  virtual ~Media() = default;

  // Charges one random read of `bytes`.
  virtual void Read(size_t bytes) = 0;

  // Charges a write of `bytes`; sequential writes (commit log, flush,
  // compaction) are charged at streaming bandwidth without a seek.
  virtual void Write(size_t bytes, bool sequential) = 0;

  const MediaStats& stats() const { return stats_; }
  void ResetStats();

 protected:
  MediaStats stats_;
};

// Zero-latency media for unit tests and pure-functionality runs.
class NullMedia : public Media {
 public:
  void Read(size_t bytes) override;
  void Write(size_t bytes, bool sequential) override;
};

struct MediaProfile {
  // Random-access setup latency per read (seek + rotational for disks,
  // controller latency for SSDs), microseconds at scale 1.0.
  uint64_t seek_micros = 0;
  // Streaming bandwidth, bytes per microsecond (1 = ~1 MB/s; 100 = ~100 MB/s).
  double bytes_per_micro_read = 100.0;
  double bytes_per_micro_write = 100.0;
  // Outstanding operations the device can service concurrently.
  int queue_depth = 1;
  // Global time scale so benches can run the same shape faster. All charged
  // latencies are multiplied by this.
  double latency_scale = 1.0;

  // A 7.2k-rpm magnetic disk: ~8 ms random access, ~150 MB/s streaming, one
  // head (queue depth 1).
  static MediaProfile Disk(double latency_scale);
  // A SATA/NVMe-class SSD: ~120 us random access, ~500 MB/s, deep queue.
  static MediaProfile Ssd(double latency_scale);
};

// Books the modelled service time on one timeline per queue slot
// (ReservationTimeline) and sleeps the calling thread until it ends.
class SimulatedMedia : public Media {
 public:
  // `fault_injector` (optional) adds kMediaLatency spikes on top of the
  // modelled service time.
  SimulatedMedia(MediaProfile profile, Clock* clock = SystemClock::Get(),
                 FaultInjector* fault_injector = nullptr);

  void Read(size_t bytes) override;
  void Write(size_t bytes, bool sequential) override;

  const MediaProfile& profile() const { return profile_; }

 private:
  // Returns the scaled micros actually charged (for stage attribution).
  uint64_t Charge(uint64_t micros);

  // Injected latency spike for this access, 0 when none fires.
  uint64_t SpikeMicros();

  MediaProfile profile_;
  Clock* clock_;
  FaultInjector* fault_injector_;
  ReservationTimeline slots_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_KVSTORE_MEDIA_H_
