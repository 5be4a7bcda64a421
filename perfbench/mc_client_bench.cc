// MiniCrypt client benchmark: four closed-loop workloads driven through the
// public client APIs (GenericClient, AppendClient) the way an application
// drives them, with a correctness oracle on every answer, regime guards, and
// an outside-in per-layer trace. perfbench/README.md describes the workloads
// and the metric predictions; perfbench/run.py builds and runs this binary.
//
//   mc_client_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--scale full|tiny] [--plant-wrong-value] [--trace-dir <dir>]
//
// Human-readable lines start with '#'. The last line is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). The
// exit code is 0 only when every answer was correct and every guard held.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/trace.h"
#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/core/append/append_client.h"
#include "src/core/append/em_service.h"
#include "src/core/append/epoch.h"
#include "src/core/generic_client.h"
#include "src/core/options.h"
#include "src/core/pack.h"
#include "src/core/pack_cache.h"
#include "src/core/pack_crypter.h"
#include "src/crypto/crypto.h"
#include "src/crypto/keyring.h"
#include "src/kvstore/cluster.h"
#include "src/obs/metrics.h"
#include "src/workload/datasets.h"
#include "src/workload/ycsb.h"

namespace minicrypt::perfbench {
namespace {

constexpr int kThreads = 4;        // closed-loop client threads
constexpr int kReps = 3;           // fresh clusters per run (setup_s is their median)
constexpr uint64_t kMiB = 1024 * 1024;

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool plant_wrong_value = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (flag == "--plant-wrong-value") {
      args->plant_wrong_value = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::string(v) == "1";
    } else if (flag == "--scale") {
      args->tiny = std::string(v) == "tiny";
    } else if (flag == "--trace-dir") {
      args->trace_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return false;
  }
  return !args->workload.empty();
}

// ---------------------------------------------------------------------------
// Cluster shape: the paper's 3 nodes, RF=3, CL=ONE, SSD, latency_scale 0.1.
// These values mirror PaperCluster(MediaKind::kSsd, ...) in bench/bench_util.h
// and are frozen here so the benchmark's definition cannot drift with the
// figure harnesses.

constexpr double kLatencyScale = 0.1;

// The row corpus is fixed; --seed drives the request stream (keys, op
// types, versions, retry jitter). With skewed writes a few hot packs carry
// most of the seal work, so a per-seed corpus made the seal cost, and with
// it update_mix throughput, differ by ~10% from seed to seed.
constexpr uint64_t kDatasetSeed = 1;

ClusterOptions BenchCluster(size_t cache_bytes_per_node, Clock* clock) {
  ClusterOptions o;
  o.node_count = 3;
  o.replication_factor = 3;
  o.consistency = Consistency::kOne;
  o.rtt_micros = 250;
  o.replica_hop_micros = 120;
  o.lwt_extra_round_trips = 3;
  o.network_bytes_per_micro = 120.0;
  o.latency_scale = kLatencyScale;
  o.block_cache_bytes = cache_bytes_per_node;
  MediaProfile ssd;
  ssd.seek_micros = 3'500;
  ssd.queue_depth = 1;
  ssd.bytes_per_micro_read = 500.0;
  ssd.bytes_per_micro_write = 450.0;
  ssd.latency_scale = 1.0 / kLatencyScale;  // media latencies are not scaled
  o.media = ssd;
  // Flush policy, identical for every workload (README.md).
  o.engine.memtable_flush_bytes = 4 * kMiB;
  o.engine.compaction_trigger = 6;
  o.engine.sstable.block_bytes = 8 * 1024;
  o.clock = clock;
  return o;
}

// ---------------------------------------------------------------------------
// Oracle bookkeeping shared by all workloads.

class Oracle {
 public:
  void Fail(const std::string& what) {
    if (mismatches_.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      first_ = what;
    }
  }
  uint64_t mismatches() const { return mismatches_.load(); }

  // A non-OK status is a failed op, not a wrong answer; the first few are
  // logged so a failing workload can be diagnosed.
  void NoteFailure(const char* op, uint64_t key, const Status& s) {
    if (failures_logged_.fetch_add(1) < 5) {
      std::fprintf(stderr, "%s(%" PRIu64 ") failed: %s\n", op, key, s.ToString().c_str());
    }
  }
  std::string first() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

  // --plant-wrong-value: corrupt the first value the oracle is shown, to
  // prove that a wrong answer is caught.
  void Plant(bool on) { planted_.store(on ? 1 : 0); }
  void MaybeCorrupt(std::string* value) {
    int expected = 1;
    if (!value->empty() && planted_.compare_exchange_strong(expected, 2)) {
      (*value)[value->size() / 2] ^= 0x5a;
    }
  }

 private:
  std::atomic<uint64_t> mismatches_{0};
  std::atomic<int> planted_{0};
  std::atomic<int> failures_logged_{0};
  mutable std::mutex mu_;
  std::string first_;
};

// ---------------------------------------------------------------------------
// Per-op timing. One OpTimer per client thread per phase.

enum class OpKind { kGet = 0, kPut = 1 };

struct Sample {
  uint64_t latency_ns;
  OpKind kind;
  bool ok;
};

struct ThreadLog {
  std::vector<Sample> samples;
  uint64_t user_bytes_written = 0;
};

class OpTimer {
 public:
  OpTimer(ThreadLog* log, SpanStore* spans, bool traced)
      : log_(log), spans_(spans), traced_(traced) {
    if (traced_) {
      thread_ = spans_->ThreadId();
    }
  }

  void Begin(OpKind kind) {
    kind_ = kind;
    if (traced_) {
      span_ = OpSpan{};
      span_.id = (static_cast<uint64_t>(thread_) << 40) | ++seq_;
      span_.name = kind == OpKind::kGet ? "client.get" : "client.put";
      span_.thread = thread_;
      cpu_start_ = ThreadCpuNanos();
      RecordingClock::SetCurrentOp(&span_);
    }
    start_ = WallNanos();
  }

  void End(bool ok, uint64_t user_bytes = 0) {
    const uint64_t end = WallNanos();
    log_->samples.push_back(Sample{end - start_, kind_, ok});
    if (ok) {
      log_->user_bytes_written += user_bytes;
    }
    if (traced_) {
      RecordingClock::SetCurrentOp(nullptr);
      span_.cpu_ns = ThreadCpuNanos() - cpu_start_;
      span_.start_ns = start_;
      span_.end_ns = end;
      spans_->AddOp(span_);
    }
  }

 private:
  ThreadLog* log_;
  SpanStore* spans_;
  bool traced_;
  uint32_t thread_ = 0;
  uint64_t seq_ = 0;
  OpKind kind_ = OpKind::kGet;
  uint64_t start_ = 0;
  uint64_t cpu_start_ = 0;
  OpSpan span_;
};

// ---------------------------------------------------------------------------
// Layer counters: every cumulative number the benchmark reads from outside,
// flattened into one name -> value map so deltas are taken uniformly.

using Counters = std::map<std::string, double>;

Counters Delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

void Accumulate(Counters* sum, const Counters& delta) {
  for (const auto& [name, value] : delta) {
    (*sum)[name] += value;
  }
}

double Get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

constexpr const char* kRegistryCounters[] = {
    "net.transfer.bytes",      "net.transfer.charged_micros",   "net.rtt.charged_micros",
    "cluster.lwt.attempts",    "cluster.lwt.failures",          "commitlog.group.commits",
    "commitlog.group.records", "engine.flush.count",            "engine.compaction.input_bytes",
    "pack.seal.bytes_raw",     "pack.seal.bytes_wire",
};

constexpr const char* kRegistryHistograms[] = {
    "net.transfer",    "cluster.read_floor", "cluster.read_floor.version",
    "cluster.lwt",     "engine.apply",       "commitlog.append",
    "pack.seal",       "pack.compress",      "pack.encrypt",
    "pack.open",       "pack.decompress",    "pack.decrypt",
    "append.merge",
};

void AddRegistry(Counters* c) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  for (const char* name : kRegistryCounters) {
    (*c)[std::string("reg.") + name] = static_cast<double>(registry.GetCounter(name)->Value());
  }
  for (const char* name : kRegistryHistograms) {
    (*c)[std::string("reg.") + name + ".sum_us"] =
        static_cast<double>(registry.GetHistogram(name)->Snapshot().sum());
  }
}

void AddCluster(Cluster& cluster, Counters* c) {
  const BlockCacheStats bc = cluster.CacheStats();
  (*c)["bc.hits"] = static_cast<double>(bc.hits);
  (*c)["bc.misses"] = static_cast<double>(bc.misses);
  (*c)["bc.evictions"] = static_cast<double>(bc.evictions);
  for (size_t n = 0; n < cluster.NodeCount(); ++n) {
    const MediaStats* m = cluster.NodeMediaStats(static_cast<int>(n));
    if (m == nullptr) {
      continue;
    }
    (*c)["media.reads"] += static_cast<double>(m->reads.load());
    (*c)["media.busy_us"] += static_cast<double>(m->busy_micros.load());
    (*c)["media.write_bytes"] += static_cast<double>(m->write_bytes.load());
  }
  (*c)["cluster.lwt_failures"] = static_cast<double>(cluster.stats().lwt_failures.load());
}

void AddPackCache(const PackCache* cache, Counters* c) {
  if (cache == nullptr) {
    return;
  }
  const PackCacheStats s = cache->Stats();
  (*c)["pc.hits"] = static_cast<double>(s.hits);
  (*c)["pc.misses"] = static_cast<double>(s.misses);
  (*c)["pc.invalidations"] = static_cast<double>(s.invalidations);
}

void AddClock(const RecordingClock* clock, Counters* c) {
  if (clock == nullptr) {
    return;
  }
  const SleepTotals t = clock->Totals();
  (*c)["clock.fg_calls"] = static_cast<double>(t.fg_calls);
  (*c)["clock.fg_requested_us"] = static_cast<double>(t.fg_requested_us);
  (*c)["clock.fg_actual_ns"] = static_cast<double>(t.fg_actual_ns);
  (*c)["clock.bg_calls"] = static_cast<double>(t.bg_calls);
  (*c)["clock.bg_requested_us"] = static_cast<double>(t.bg_requested_us);
  (*c)["clock.bg_actual_ns"] = static_cast<double>(t.bg_actual_ns);
}

// ---------------------------------------------------------------------------
// Workloads

struct Sizes {
  uint64_t raw_bytes;
  size_t cache_bytes_per_node;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds a fresh cluster and preloads it (preload + flush + warm), and
  // resets the oracle's per-cluster state. Called once per rep.
  virtual void Setup() = 0;
  // Starts whatever the application runs beside its client threads.
  virtual void StartBackground() {}
  virtual void StopBackground() {}
  // One closed-loop operation on client thread `t`, oracle included.
  virtual void RunOp(int t, OpTimer& timer) = 0;
  // Read-only workloads measure put latency in a probe after the window;
  // this is the probe's length as a share of --seconds (0 = no probe).
  virtual double PutProbeShare() const { return 0; }
  virtual void RunProbeOp(int t, OpTimer& timer) {}
  // Runs after the window, on a quiesced cluster: the read-back oracle.
  virtual void FinalCheck() = 0;
  // Bytes stored at rest (one replica) and raw live user bytes.
  virtual double AtRestBytes() = 0;
  virtual double LiveUserBytes() = 0;
  virtual void Collect(Counters* c) = 0;
  // Regime guard over the counter deltas from StartBackground to
  // StopBackground. Returns false (and says why) when the workload measured
  // the wrong regime.
  virtual bool Guard(const Counters& window, std::string* report) = 0;
  virtual void Teardown() = 0;

  Oracle& oracle() { return oracle_; }

 protected:
  Oracle oracle_;
};

std::string Describe(double value, const char* fmt = "%.4f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return buf;
}

// --- GENERIC mode (generic_read_mem, generic_read_spill, generic_update_mix)

class GenericWorkload : public Workload {
 public:
  enum class Mode { kReadMem, kReadSpill, kUpdateMix };

  GenericWorkload(Mode mode, const Sizes& sizes, uint64_t seed, Clock* clock)
      : mode_(mode), sizes_(sizes), seed_(seed), clock_(clock),
        dataset_(MakeDataset("conviva", kDatasetSeed)) {
    n_ = std::max<uint64_t>(kThreads * 64, sizes.raw_bytes / (dataset_->ApproxRowBytes() + 8));
    rows_ = MaterializeRows(*dataset_, n_);
    options_.table = "mc_data";
    if (mode_ == Mode::kUpdateMix) {
      options_.cache_capacity_bytes = 64 * kMiB;
      options_.cache_ttl_micros = 0;
      versions_.reset(new std::atomic<uint32_t>[n_]);
      // Popularity rank -> key, scrambled as YCSB's scrambled Zipfian does,
      // so the hot keys spread over every pack instead of filling the first
      // pack of each partition. Fixed like the corpus, so every seed
      // measures the same hot set. Thread t owns the keys with
      // k % kThreads == t, in rank order.
      hot_order_.resize(n_);
      for (uint64_t k = 0; k < n_; ++k) {
        hot_order_[k] = k;
      }
      Rng shuffle(kDatasetSeed);
      for (uint64_t i = n_ - 1; i > 0; --i) {
        std::swap(hot_order_[i], hot_order_[shuffle.Uniform(i + 1)]);
      }
      own_keys_.resize(kThreads);
      for (const uint64_t key : hot_order_) {
        own_keys_[key % kThreads].push_back(key);
      }
    }
    for (int t = 0; t < kThreads; ++t) {
      const uint64_t s = seed * 1000003ULL + static_cast<uint64_t>(t);
      rngs_.push_back(std::make_unique<Rng>(s));
      if (mode_ == Mode::kUpdateMix) {
        // Fig 10 skew knob 0.2 for both reads (any key) and overwrites of
        // the keys this thread owns.
        read_zipf_.push_back(std::make_unique<ZipfianChooser>(n_, 0.2, s ^ 0x51));
        write_zipf_.push_back(
            std::make_unique<ZipfianChooser>(own_keys_[t].size(), 0.2, s ^ 0x77));
      }
    }
  }

  void Setup() override {
    if (mode_ == Mode::kUpdateMix) {
      for (uint64_t k = 0; k < n_; ++k) {
        versions_[k].store(0);
      }
      acked_.assign(n_, 0);
      failed_max_.assign(n_, 0);
    }
    cluster_ = std::make_unique<Cluster>(BenchCluster(sizes_.cache_bytes_per_node, clock_));
    auto keyring =
        Keyring::FromMaster(SymmetricKey::FromSeed("perfbench-" + std::to_string(seed_)));
    if (mode_ == Mode::kUpdateMix) {
      cache_ = std::make_shared<PackCache>(options_.cache_capacity_bytes,
                                           options_.cache_ttl_micros, clock_);
    }
    for (int t = 0; t < kThreads; ++t) {
      MiniCryptOptions o = options_;
      o.retry_jitter_seed = seed_ * 31 + static_cast<uint64_t>(t) + 1;
      clients_.push_back(std::make_unique<GenericClient>(cluster_.get(), o, keyring, cache_));
    }
    Status s = clients_[0]->CreateTable();
    if (s.ok()) {
      s = clients_[0]->BulkLoad(rows_);
    }
    if (s.ok()) {
      s = cluster_->FlushAll();
    }
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      std::exit(2);
    }
    cluster_->WarmCaches(options_.table);
  }

  void RunOp(int t, OpTimer& timer) override {
    Rng& rng = *rngs_[t];
    if (mode_ != Mode::kUpdateMix) {
      ReadAndCheck(t, timer, rng.Uniform(n_));
      return;
    }
    if (rng.Bernoulli(0.5)) {
      ReadAndCheck(t, timer, hot_order_[read_zipf_[t]->Next()]);
      return;
    }
    const uint64_t key = own_keys_[t][write_zipf_[t]->Next()];
    const uint32_t version = versions_[key].load() + 1;
    versions_[key].store(version);  // published before the write is issued
    const std::string value = VersionedValue(key, version);
    timer.Begin(OpKind::kPut);
    const Status s = clients_[t]->Put(key, value);
    timer.End(s.ok(), value.size() + 8);
    if (s.ok()) {
      acked_[key] = version;
    } else {
      oracle_.NoteFailure("put", key, s);
      failed_max_[key] = version;  // ambiguous: may or may not have landed
    }
  }

  // Enough puts for a p99 with >= 10 samples above it; the spilled regime
  // manages only ~130 puts/s.
  double PutProbeShare() const override {
    return mode_ == Mode::kReadMem ? 0.25 : mode_ == Mode::kReadSpill ? 0.5 : 0.0;
  }

  // Rewrites a preloaded row with its own value: a real read-modify-write-if
  // through the pack path that leaves every answer unchanged.
  void RunProbeOp(int t, OpTimer& timer) override {
    const uint64_t key = rngs_[t]->Uniform(n_);
    timer.Begin(OpKind::kPut);
    const Status s = clients_[t]->Put(key, rows_[key].second);
    timer.End(s.ok(), rows_[key].second.size() + 8);
    if (!s.ok()) {
      oracle_.NoteFailure("probe put", key, s);
    }
  }

  void FinalCheck() override {
    cluster_->Quiesce();
    if (mode_ != Mode::kUpdateMix) {
      return;  // every Get was checked against the preload already
    }
    // Once the window closes, every key must read back its last acked
    // version (or a later one whose put failed ambiguously).
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([this, t] {
        for (uint64_t key = static_cast<uint64_t>(t); key < n_; key += kThreads) {
          auto r = clients_[t]->Get(key);
          uint32_t v = 0;
          if (!r.ok() || !ParseVersion(key, *r, &v)) {
            oracle_.Fail("final read of key " + std::to_string(key) + ": " +
                         (r.ok() ? "wrong value" : r.status().ToString()));
            continue;
          }
          if (v != acked_[key] && !(v > acked_[key] && v <= failed_max_[key])) {
            oracle_.Fail("final read of key " + std::to_string(key) + " returned version " +
                         std::to_string(v) + ", last acked " + std::to_string(acked_[key]));
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
  }

  double AtRestBytes() override {
    (void)cluster_->FlushAll();
    return static_cast<double>(cluster_->TableAtRestBytes(options_.table));
  }

  double LiveUserBytes() override {
    if (mode_ != Mode::kUpdateMix) {
      double bytes = 0;
      for (const auto& [k, v] : rows_) {
        bytes += static_cast<double>(v.size() + 8);
      }
      return bytes;
    }
    double bytes = 0;
    for (uint64_t key = 0; key < n_; ++key) {
      bytes += static_cast<double>(VersionedValue(key, acked_[key]).size() + 8);
    }
    return bytes;
  }

  void Collect(Counters* c) override {
    AddRegistry(c);
    AddCluster(*cluster_, c);
    AddPackCache(cache_.get(), c);
    double puts = 0, gets = 0, retries = 0, splits = 0;
    for (const auto& client : clients_) {
      puts += static_cast<double>(client->stats().puts.load());
      gets += static_cast<double>(client->stats().gets.load());
      retries += static_cast<double>(client->stats().put_retries.load());
      splits += static_cast<double>(client->stats().splits.load());
    }
    (*c)["client.puts"] = puts;
    (*c)["client.gets"] = gets;
    (*c)["client.put_retries"] = retries;
    (*c)["client.splits"] = splits;
    if (cache_ != nullptr) {
      (*c)["pc.bytes_used"] = static_cast<double>(cache_->Stats().bytes_used);
    }
  }

  bool Guard(const Counters& w, std::string* report) override {
    const double hits = Get(w, "bc.hits");
    const double lookups = hits + Get(w, "bc.misses");
    const double hit_rate = lookups > 0 ? hits / lookups : 0.0;
    switch (mode_) {
      case Mode::kReadMem:
        *report = "block_cache.hit_rate=" + Describe(hit_rate) + " (must be >= 0.99)";
        return hit_rate >= 0.99;
      case Mode::kReadSpill:
        // A Get's floor lookup also touches hot boundary blocks of the other
        // SSTables, so even a fully spilled table keeps a high hit rate;
        // the band's top proves the data blocks miss.
        *report = "block_cache.hit_rate=" + Describe(hit_rate) + " media.reads_per_get=" +
                  Describe(Ratio(Get(w, "media.reads"), Get(w, "client.gets"))) +
                  " (hit rate must lie in [0.30, 0.90]: the table spills the cache)";
        return hit_rate >= 0.30 && hit_rate <= 0.90;
      case Mode::kUpdateMix: {
        // No inserts, so no splits: see README.md ("Findings").
        const double conflicts = Get(w, "cluster.lwt_failures");
        *report = "lwt_conflicts=" + Describe(conflicts, "%.0f") + " (must be > 0)";
        return conflicts > 0;
      }
    }
    return false;
  }

  void Teardown() override {
    clients_.clear();
    cache_.reset();
    cluster_.reset();
  }

  const PackCache* cache() const { return cache_.get(); }

 private:
  std::string VersionedValue(uint64_t key, uint32_t version) const {
    if (version == 0) {
      return rows_[key].second;
    }
    char header[64];
    std::snprintf(header, sizeof(header), "mcb|k=%" PRIu64 "|v=%u|", key, version);
    return header + dataset_->Row(key + static_cast<uint64_t>(version) * n_);
  }

  // Recovers the version a stored value encodes; false if it encodes none
  // of this key's versions.
  bool ParseVersion(uint64_t key, const std::string& value, uint32_t* version) const {
    if (value == rows_[key].second) {
      *version = 0;
      return true;
    }
    uint64_t k = 0;
    unsigned v = 0;
    if (std::sscanf(value.c_str(), "mcb|k=%" SCNu64 "|v=%u|", &k, &v) != 2 || k != key ||
        v == 0) {
      return false;
    }
    *version = v;
    return value == VersionedValue(key, v);
  }

  void ReadAndCheck(int t, OpTimer& timer, uint64_t key) {
    timer.Begin(OpKind::kGet);
    auto r = clients_[t]->Get(key);
    timer.End(r.ok());
    if (!r.ok()) {
      oracle_.NoteFailure("get", key, r.status());
      return;
    }
    std::string value = std::move(*r);
    oracle_.MaybeCorrupt(&value);
    if (mode_ != Mode::kUpdateMix) {
      if (value != rows_[key].second) {
        oracle_.Fail("get(" + std::to_string(key) + ") differs from the preloaded row");
      }
      return;
    }
    uint32_t v = 0;
    // Versions are published before their put is issued, so any version a
    // read can observe is <= the published one.
    if (!ParseVersion(key, value, &v) || v > versions_[key].load()) {
      oracle_.Fail("get(" + std::to_string(key) + ") returned a value never written for it");
    }
  }

  Mode mode_;
  Sizes sizes_;
  uint64_t seed_;
  Clock* clock_;
  std::unique_ptr<Dataset> dataset_;
  uint64_t n_ = 0;
  std::vector<std::pair<uint64_t, std::string>> rows_;
  MiniCryptOptions options_;

  std::unique_ptr<Cluster> cluster_;
  std::shared_ptr<PackCache> cache_;
  std::vector<std::unique_ptr<GenericClient>> clients_;

  std::vector<std::unique_ptr<Rng>> rngs_;
  std::vector<std::unique_ptr<ZipfianChooser>> read_zipf_;
  std::vector<std::unique_ptr<ZipfianChooser>> write_zipf_;
  std::vector<uint64_t> hot_order_;               // popularity rank -> key
  std::vector<std::vector<uint64_t>> own_keys_;  // per thread, in rank order
  // update_mix oracle state. versions_ is the latest version issued per key
  // (read by every thread); acked_ / failed_max_ are written only by the
  // key's owner thread and read after the threads have joined.
  std::unique_ptr<std::atomic<uint32_t>[]> versions_;
  std::vector<uint32_t> acked_;
  std::vector<uint32_t> failed_max_;
};

// --- APPEND mode (append_ingest)

MiniCryptOptions AppendOptions() {
  // Figure 13's epoch settings: short epochs so a run covers several
  // epoch/merge cycles.
  MiniCryptOptions o;
  o.table = "ts";
  o.pack_rows = 50;
  o.epoch_micros = 400'000;
  o.t_delta_micros = 120'000;
  o.t_drift_micros = 120'000;
  o.heartbeat_micros = 120'000;
  o.client_timeout_micros = 4'000'000;
  o.merge_period_micros = 100'000;
  return o;
}

class AppendWorkload : public Workload {
 public:
  AppendWorkload(const Sizes& sizes, uint64_t window_bytes, uint64_t seed, Clock* clock)
      : sizes_(sizes), seed_(seed), clock_(clock), dataset_(MakeDataset("conviva", kDatasetSeed)),
        key_(SymmetricKey::FromSeed("perfbench-" + std::to_string(seed))),
        options_(AppendOptions()) {
    const uint64_t row_bytes = dataset_->ApproxRowBytes() + 8;
    n_ = std::max<uint64_t>(kThreads * 64, sizes.raw_bytes / row_bytes);
    window_ = std::max<uint64_t>(64, window_bytes / row_bytes);
    rows_ = MaterializeRows(*dataset_, n_);
    for (int t = 0; t < kThreads; ++t) {
      rngs_.push_back(std::make_unique<Rng>(seed * 1000003ULL + static_cast<uint64_t>(t)));
      in_flight_[t].store(kIdle);
    }
  }

  void Setup() override {
    failed_keys_.clear();
    for (auto& slot : in_flight_) {
      slot.store(kIdle);
    }
    cluster_ = std::make_unique<Cluster>(BenchCluster(sizes_.cache_bytes_per_node, clock_));
    em_ = std::make_unique<EmService>(cluster_.get(), options_, "em0", clock_);
    Status s = em_->Bootstrap();
    if (s.ok()) {
      s = em_->Tick();
    }
    if (s.ok()) {
      s = PreloadMergedPacks();
    }
    if (s.ok()) {
      s = cluster_->FlushAll();
    }
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      std::exit(2);
    }
    cluster_->WarmCaches(options_.table);
    frontier_.store(n_);
    for (uint64_t i = 0; i < kDoneRing; ++i) {
      done_ns_[i].store(0);
    }
    settled_ = n_;
  }

  void StartBackground() override {
    em_->Start(150'000);
    for (int t = 0; t < kThreads; ++t) {
      clients_.push_back(std::make_unique<AppendClient>(
          cluster_.get(), options_, key_, "client-" + std::to_string(t), clock_));
      const Status s = clients_.back()->Register();
      if (!s.ok()) {
        std::fprintf(stderr, "register failed: %s\n", s.ToString().c_str());
        std::exit(2);
      }
      clients_.back()->Start();
    }
  }

  // Lets the merger fold the window's closed epochs before stopping, so the
  // at-rest figure measures merged storage rather than where in the epoch
  // cycle the window happened to end.
  void StopBackground() override {
    std::this_thread::sleep_for(std::chrono::duration<double>(settle_s_));
    em_->Stop();
    for (auto& client : clients_) {
      client->Stop();
    }
  }

  void RunOp(int t, OpTimer& timer) override {
    Rng& rng = *rngs_[t];
    if (rng.Bernoulli(0.5)) {
      // Append at the shared frontier. The in-flight slot is set to a lower
      // bound of the key before the key is taken, so readers never pick a
      // key whose append has not been acknowledged.
      in_flight_[t].store(frontier_.load());
      const uint64_t key = frontier_.fetch_add(1);
      in_flight_[t].store(key);
      const std::string value = dataset_->Row(key);
      timer.Begin(OpKind::kPut);
      const Status s = clients_[t]->Put(key, value);
      timer.End(s.ok(), value.size() + 8);
      if (!s.ok()) {
        oracle_.NoteFailure("append put", key, s);
        std::lock_guard<std::mutex> lock(failed_mu_);
        failed_keys_.insert(key);
      }
      done_ns_[(key - n_) % kDoneRing].store(WallNanos());
      in_flight_[t].store(kIdle);
      return;
    }
    // Read-latest: uniform over the newest `window_` settled keys.
    const uint64_t hi = SettledWatermark();
    const uint64_t lo = hi > window_ ? hi - window_ : 0;
    const uint64_t key = lo + rng.Uniform(hi - lo);
    timer.Begin(OpKind::kGet);
    auto r = clients_[t]->Get(key);
    timer.End(r.ok());
    if (!r.ok()) {
      oracle_.NoteFailure("append get", key, r.status());
      return;
    }
    std::string value = std::move(*r);
    oracle_.MaybeCorrupt(&value);
    if (value != dataset_->Row(key)) {
      oracle_.Fail("get(" + std::to_string(key) + ") differs from the value appended");
    }
  }

  // Reads every appended key back with one range query (merged packs plus
  // every live epoch); point reads of ~7k keys would take longer than the
  // window itself.
  void FinalCheck() override {
    cluster_->Quiesce();
    const uint64_t end = frontier_.load();
    if (end == n_) {
      return;
    }
    auto r = clients_[0]->GetRange(n_, end - 1);
    if (!r.ok()) {
      oracle_.Fail("final range read of appended keys: " + r.status().ToString());
      return;
    }
    std::map<uint64_t, const std::string*> found;
    for (const auto& [key, value] : *r) {
      found[key] = &value;
    }
    for (uint64_t key = n_; key < end; ++key) {
      if (failed_keys_.count(key) != 0) {
        continue;
      }
      auto it = found.find(key);
      if (it == found.end() || *it->second != dataset_->Row(key)) {
        oracle_.Fail("final read of appended key " + std::to_string(key) + ": " +
                     (it == found.end() ? "missing" : "wrong value"));
      }
    }
  }

  double AtRestBytes() override {
    (void)cluster_->FlushAll();
    return static_cast<double>(cluster_->TableAtRestBytes(options_.table));
  }

  double LiveUserBytes() override {
    double bytes = 0;
    const uint64_t end = frontier_.load();
    for (uint64_t key = 0; key < end; ++key) {
      if (failed_keys_.count(key) == 0) {
        const size_t value_bytes = key < n_ ? rows_[key].second.size() : dataset_->Row(key).size();
        bytes += static_cast<double>(value_bytes + 8);
      }
    }
    return bytes;
  }

  void Collect(Counters* c) override {
    AddRegistry(c);
    AddCluster(*cluster_, c);
    double puts = 0, gets = 0, probes = 0, merged = 0, packs = 0, epochs = 0, deleted = 0;
    for (const auto& client : clients_) {
      const AppendClientStats& s = client->stats();
      puts += static_cast<double>(s.puts.load());
      gets += static_cast<double>(s.gets.load());
      probes += static_cast<double>(s.get_epoch_probes.load());
      merged += static_cast<double>(s.keys_merged.load());
      packs += static_cast<double>(s.packs_written.load());
      epochs += static_cast<double>(s.epochs_merged.load());
      deleted += static_cast<double>(s.epochs_deleted.load());
    }
    (*c)["append.puts"] = puts;
    (*c)["append.gets"] = gets;
    (*c)["append.get_epoch_probes"] = probes;
    (*c)["append.keys_merged"] = merged;
    (*c)["append.packs_written"] = packs;
    (*c)["append.epochs_merged"] = epochs;
    (*c)["append.epochs_deleted"] = deleted;
  }

  bool Guard(const Counters& w, std::string* report) override {
    const double merges = Get(w, "append.epochs_merged");
    *report = "epochs_merged=" + Describe(merges, "%.0f") + " (must be >= " +
              Describe(min_merges_, "%.0f") + ")";
    return merges >= min_merges_;
  }

  void set_min_merges(double m) { min_merges_ = m; }
  void set_settle_seconds(double s) { settle_s_ = s; }

  void Teardown() override {
    clients_.clear();
    em_.reset();
    cluster_.reset();
  }

 private:
  static constexpr uint64_t kIdle = ~0ULL;

  // Same layout the merger produces: rows packed into epoch 0.
  Status PreloadMergedPacks() {
    PackCrypter crypter(options_, key_);
    for (uint64_t i = 0; i < rows_.size(); i += options_.pack_rows) {
      std::vector<Pack::Entry> chunk;
      for (uint64_t j = i; j < std::min<uint64_t>(rows_.size(), i + options_.pack_rows); ++j) {
        chunk.push_back(Pack::Entry{EncodeKey64(rows_[j].first), rows_[j].second});
      }
      MC_ASSIGN_OR_RETURN(Pack pack, Pack::FromSorted(std::move(chunk)));
      MC_ASSIGN_OR_RETURN(SealedPack sealed, crypter.Seal(pack));
      Row row;
      row.cells["v"] = Cell{sealed.envelope, 0, false};
      row.cells["h"] = Cell{sealed.hash, 0, false};
      MC_RETURN_IF_ERROR(cluster_->Write(options_.table, EpochPartition(kMergedEpoch),
                                         EncodeKey64(rows_[i].first), row));
    }
    return Status::Ok();
  }

  uint64_t AckedWatermark() const {
    uint64_t wm = frontier_.load();
    for (const auto& slot : in_flight_) {
      wm = std::min(wm, slot.load());
    }
    return wm;
  }

  // Every key below the result was acknowledged at least kSettleNs ago. At
  // CL=ONE another client may not see an acknowledged append at once (a
  // replica that has not applied it yet, or a client whose epoch view lags):
  // reads of keys acked 1-10 ms earlier came back NotFound about once in
  // 10^4 reads. The benchmark measures read-latest, not that window.
  uint64_t SettledWatermark() {
    const uint64_t acked = AckedWatermark();
    const uint64_t cutoff = WallNanos() - kSettleNs;
    std::lock_guard<std::mutex> lock(settle_mu_);
    while (settled_ < acked && done_ns_[(settled_ - n_) % kDoneRing].load() <= cutoff) {
      ++settled_;
    }
    return settled_;
  }

  Sizes sizes_;
  uint64_t seed_;
  Clock* clock_;
  std::unique_ptr<Dataset> dataset_;
  SymmetricKey key_;
  MiniCryptOptions options_;
  uint64_t n_ = 0;
  uint64_t window_ = 0;
  double min_merges_ = 3;
  double settle_s_ = 2;
  std::vector<std::pair<uint64_t, std::string>> rows_;

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<EmService> em_;
  std::vector<std::unique_ptr<AppendClient>> clients_;
  std::vector<std::unique_ptr<Rng>> rngs_;

  std::atomic<uint64_t> frontier_{0};
  std::atomic<uint64_t> in_flight_[kThreads];
  std::mutex failed_mu_;
  std::set<uint64_t> failed_keys_;
  // When each appended key's Put returned, indexed by (key - n_) mod ring
  // size; the ring only needs to span the keys appended within kSettleNs.
  static constexpr uint64_t kDoneRing = 1 << 16;
  static constexpr uint64_t kSettleNs = 250'000'000;
  std::unique_ptr<std::atomic<uint64_t>[]> done_ns_{new std::atomic<uint64_t>[kDoneRing]};
  std::mutex settle_mu_;
  uint64_t settled_ = 0;  // guarded by settle_mu_
};

// ---------------------------------------------------------------------------
// Phases

struct PhaseResult {
  double seconds = 0;
  std::vector<ThreadLog> logs;
  Counters delta;  // layer counters over the phase
};

// Runs every client thread closed-loop for `seconds`.
PhaseResult RunPhase(Workload& w, double seconds, bool probe, bool traced, SpanStore* spans,
                     RecordingClock* rec) {
  PhaseResult result;
  result.logs.resize(kThreads);
  Counters before;
  w.Collect(&before);
  AddClock(rec, &before);
  if (rec != nullptr) {
    rec->SetRecording(traced);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const uint64_t start = WallNanos();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      OpTimer timer(&result.logs[static_cast<size_t>(t)], spans, traced);
      while (!stop.load(std::memory_order_relaxed)) {
        if (probe) {
          w.RunProbeOp(t, timer);
        } else {
          w.RunOp(t, timer);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& th : threads) {
    th.join();
  }
  result.seconds = static_cast<double>(WallNanos() - start) / 1e9;
  if (rec != nullptr) {
    rec->SetRecording(false);
  }
  Counters after;
  w.Collect(&after);
  AddClock(rec, &after);
  result.delta = Delta(after, before);
  return result;
}

// ---------------------------------------------------------------------------
// Statistics

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

std::vector<double> LatenciesUs(const std::vector<const PhaseResult*>& phases, OpKind kind) {
  std::vector<double> out;
  for (const PhaseResult* p : phases) {
    for (const ThreadLog& log : p->logs) {
      for (const Sample& s : log.samples) {
        if (s.kind == kind && s.ok) {
          out.push_back(static_cast<double>(s.latency_ns) / 1e3);
        }
      }
    }
  }
  return out;
}

struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t user_bytes = 0;
};

OpCounts Count(const std::vector<const PhaseResult*>& phases) {
  OpCounts c;
  for (const PhaseResult* p : phases) {
    for (const ThreadLog& log : p->logs) {
      c.user_bytes += log.user_bytes_written;
      for (const Sample& s : log.samples) {
        ++c.attempted;
        c.failed += s.ok ? 0 : 1;
        (s.kind == OpKind::kGet ? c.gets : c.puts) += 1;
      }
    }
  }
  return c;
}

// Resident memory, with freed heap handed back to the OS first so allocator
// retention does not count.
double ResidentMb() {
  malloc_trim(0);
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr || std::fscanf(f, "%ld %ld", &pages, &resident) != 2) {
    resident = 0;
  }
  if (f != nullptr) {
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / kMiB;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.10g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Per-layer metrics from the summed counter deltas of the traced phases.
std::vector<Metric> LayerMetrics(const Counters& d, const OpCounts& ops,
                                 const std::vector<OpSpan>& op_spans, double overhead) {
  const double gets = static_cast<double>(ops.gets);
  const double puts = static_cast<double>(ops.puts);
  const double all = gets + puts;
  const double user_bytes = static_cast<double>(ops.user_bytes);
  std::vector<Metric> m;

  // Calling thread: CPU / recorded modelled sleep / the remainder (blocked on
  // locks, queues, other threads, or the scheduler), per op type.
  for (const char* kind : {"get", "put"}) {
    const std::string name = std::string("client.") + kind;
    double n = 0, cpu = 0, sleep = 0, blocked = 0;
    for (const OpSpan& s : op_spans) {
      if (name != s.name) {
        continue;
      }
      const double wall = static_cast<double>(s.end_ns - s.start_ns);
      const double self_cpu = static_cast<double>(s.cpu_ns);
      const double slept = static_cast<double>(s.sleep_actual_ns);
      n += 1;
      cpu += self_cpu;
      sleep += slept;
      blocked += std::max(0.0, wall - self_cpu - slept);
    }
    const std::string prefix = std::string("op.") + kind;
    m.push_back({prefix + ".cpu_us", Ratio(cpu, n) / 1e3, "us/op"});
    m.push_back({prefix + ".sleep_us", Ratio(sleep, n) / 1e3, "us/op"});
    m.push_back({prefix + ".blocked_us", Ratio(blocked, n) / 1e3, "us/op"});
  }

  // Modelled time (RecordingClock).
  const double fg_calls = Get(d, "clock.fg_calls");
  const double all_calls = fg_calls + Get(d, "clock.bg_calls");
  const double requested_us = Get(d, "clock.fg_requested_us") + Get(d, "clock.bg_requested_us");
  const double actual_us = (Get(d, "clock.fg_actual_ns") + Get(d, "clock.bg_actual_ns")) / 1e3;
  m.push_back({"clock.sleep.calls_per_op", Ratio(fg_calls, all), "calls/op"});
  m.push_back({"clock.sleep.requested_us_per_op", Ratio(Get(d, "clock.fg_requested_us"), all),
               "us/op"});
  m.push_back({"clock.sleep.actual_us_per_op", Ratio(Get(d, "clock.fg_actual_ns") / 1e3, all),
               "us/op"});
  m.push_back({"clock.sleep.overshoot_us_per_call", Ratio(actual_us - requested_us, all_calls),
               "us/call"});
  m.push_back({"clock.sleep.background_us_per_op", Ratio(Get(d, "clock.bg_actual_ns") / 1e3, all),
               "us/op"});
  m.push_back({"clock.sleep.actual_over_requested", Ratio(actual_us, requested_us), "ratio"});

  // Coordinator + client link.
  m.push_back({"net.bytes_per_op", Ratio(Get(d, "reg.net.transfer.bytes"), all), "B/op"});
  m.push_back({"net.transfer.wait_us_per_op", Ratio(Get(d, "reg.net.transfer.sum_us"), all),
               "us/op"});
  m.push_back({"net.transfer.charged_us_per_op",
               Ratio(Get(d, "reg.net.transfer.charged_micros"), all), "us/op"});
  m.push_back({"net.rtt.charged_us_per_op", Ratio(Get(d, "reg.net.rtt.charged_micros"), all),
               "us/op"});
  m.push_back({"cluster.read_floor.us_per_get",
               Ratio(Get(d, "reg.cluster.read_floor.sum_us") +
                         Get(d, "reg.cluster.read_floor.version.sum_us"),
                     gets),
               "us/get"});
  m.push_back({"cluster.lwt.us_per_put", Ratio(Get(d, "reg.cluster.lwt.sum_us"), puts), "us/put"});
  m.push_back({"cluster.lwt.failures_per_attempt",
               Ratio(Get(d, "reg.cluster.lwt.failures"), Get(d, "reg.cluster.lwt.attempts")),
               "ratio"});

  // Block cache + media.
  const double hits = Get(d, "bc.hits");
  m.push_back({"block_cache.hit_rate", Ratio(hits, hits + Get(d, "bc.misses")), "ratio"});
  m.push_back({"block_cache.evictions_per_op", Ratio(Get(d, "bc.evictions"), all), "1/op"});
  m.push_back({"media.reads_per_op", Ratio(Get(d, "media.reads"), all), "1/op"});
  m.push_back({"media.busy_us_per_op", Ratio(Get(d, "media.busy_us"), all), "us/op"});

  // Storage engine + commit log.
  m.push_back({"engine.apply.us_per_put", Ratio(Get(d, "reg.engine.apply.sum_us"), puts),
               "us/put"});
  m.push_back({"commitlog.append.us_per_put", Ratio(Get(d, "reg.commitlog.append.sum_us"), puts),
               "us/put"});
  m.push_back({"commitlog.records_per_group",
               Ratio(Get(d, "reg.commitlog.group.records"), Get(d, "reg.commitlog.group.commits")),
               "ratio"});
  m.push_back({"engine.flushes", Get(d, "reg.engine.flush.count"), "count"});
  m.push_back({"engine.compaction.input_bytes_per_user_byte",
               Ratio(Get(d, "reg.engine.compaction.input_bytes"), user_bytes), "B/B"});
  m.push_back({"media.write_bytes_per_user_byte", Ratio(Get(d, "media.write_bytes"), user_bytes),
               "B/B"});

  // Pack crypter (seal = compress + encrypt; open = decrypt + decompress).
  m.push_back({"pack.seal.us_per_put", Ratio(Get(d, "reg.pack.seal.sum_us"), puts), "us/put"});
  m.push_back({"pack.compress.us_per_put", Ratio(Get(d, "reg.pack.compress.sum_us"), puts),
               "us/put"});
  m.push_back({"pack.encrypt.us_per_put", Ratio(Get(d, "reg.pack.encrypt.sum_us"), puts),
               "us/put"});
  m.push_back({"pack.open.us_per_get", Ratio(Get(d, "reg.pack.open.sum_us"), gets), "us/get"});
  m.push_back({"pack.decompress.us_per_get", Ratio(Get(d, "reg.pack.decompress.sum_us"), gets),
               "us/get"});
  m.push_back({"pack.decrypt.us_per_get", Ratio(Get(d, "reg.pack.decrypt.sum_us"), gets),
               "us/get"});
  m.push_back({"pack.seal.ratio",
               Ratio(Get(d, "reg.pack.seal.bytes_raw"), Get(d, "reg.pack.seal.bytes_wire")),
               "ratio"});

  // Generic client.
  m.push_back({"client.put_retries_per_put", Ratio(Get(d, "client.put_retries"), puts), "1/put"});
  m.push_back({"client.splits_per_put", Ratio(Get(d, "client.splits"), puts), "1/put"});

  // Client pack cache.
  const double pc_hits = Get(d, "pc.hits");
  m.push_back({"pack_cache.hit_rate", Ratio(pc_hits, pc_hits + Get(d, "pc.misses")), "ratio"});
  m.push_back({"pack_cache.invalidations_per_op", Ratio(Get(d, "pc.invalidations"), all), "1/op"});

  // APPEND mode.
  m.push_back({"append.epoch_probes_per_get",
               Ratio(Get(d, "append.get_epoch_probes"), Get(d, "append.gets")), "1/get"});
  m.push_back({"append.merged_keys_per_appended_key",
               Ratio(Get(d, "append.keys_merged"), Get(d, "append.puts")), "ratio"});
  m.push_back({"append.merge.us_per_pack",
               Ratio(Get(d, "reg.append.merge.sum_us"), Get(d, "append.packs_written")),
               "us/pack"});
  m.push_back({"append.epochs_deleted", Get(d, "append.epochs_deleted"), "count"});

  m.push_back({"trace.overhead_frac", overhead, "frac"});
  return m;
}

// ---------------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const Args& args, Clock* clock) {
  const uint64_t div = args.tiny ? 16 : 1;
  if (args.workload == "generic_read_mem") {
    return std::make_unique<GenericWorkload>(GenericWorkload::Mode::kReadMem,
                                             Sizes{8 * kMiB / div, 64 * kMiB}, args.seed, clock);
  }
  if (args.workload == "generic_read_spill") {
    return std::make_unique<GenericWorkload>(GenericWorkload::Mode::kReadSpill,
                                             Sizes{32 * kMiB / div, 3 * kMiB / div}, args.seed,
                                             clock);
  }
  if (args.workload == "generic_update_mix") {
    return std::make_unique<GenericWorkload>(GenericWorkload::Mode::kUpdateMix,
                                             Sizes{8 * kMiB / div, 64 * kMiB}, args.seed, clock);
  }
  if (args.workload == "append_ingest") {
    auto w = std::make_unique<AppendWorkload>(Sizes{16 * kMiB / div, 8 * kMiB}, 2 * kMiB / div,
                                              args.seed, clock);
    // A tiny run is too short for several epoch cycles.
    w->set_min_merges(args.tiny ? 0 : 3);
    w->set_settle_seconds(args.tiny ? 0.5 : 1.5);
    return w;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mc_client_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " [--scale full|tiny] [--plant-wrong-value] [--trace-dir <dir>]\n");
    return 2;
  }
  // Untraced runs hand the program its default clock; traced runs wrap it.
  SpanStore spans(/*max_sleep_spans=*/2'000'000);
  std::unique_ptr<RecordingClock> rec;
  Clock* clock = SystemClock::Get();
  if (args.trace) {
    rec = std::make_unique<RecordingClock>(&spans);
    clock = rec.get();
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args, clock);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Workload& w = *workload;
  w.oracle().Plant(args.plant_wrong_value);

  // Each rep builds a fresh cluster (timed: setup_s), measures 1/reps of the
  // window on it, checks every answer, and tears it down. Pooling reps
  // averages over cluster instances and keeps the in-memory commit logs of
  // write workloads bounded. Traced runs order their reps untraced, traced,
  // traced, untraced: every rep passes through the same start-up transient
  // and merge cycles, which slices of one window do not (append_ingest's
  // throughput swings 2x within a second), and the ABBA order cancels a
  // linear drift across reps out of the tracing-overhead estimate.
  const int reps = args.trace ? (args.tiny ? 2 : 4) : (args.tiny ? 1 : kReps);
  const int probe_reps = args.trace ? reps / 2 : reps;
  const double rep_window_s = args.seconds / reps;
  const double warmup_s = args.tiny ? 0.2 : 0.5;
  std::vector<double> setup_s, at_rest_ratio, cache_bytes;
  double rss_mb = 0;
  std::vector<PhaseResult> main_phases, probe_phases;
  std::vector<bool> main_traced;
  bool guard_ok = true;
  std::vector<std::string> guard_reports;
  for (int rep = 0; rep < reps; ++rep) {
    w.Teardown();
    const uint64_t t0 = WallNanos();
    w.Setup();
    setup_s.push_back(static_cast<double>(WallNanos() - t0) / 1e9);
    if (rep == 0) {
      rss_mb = ResidentMb();
    }
    w.StartBackground();
    Counters before, after;
    w.Collect(&before);
    RunPhase(w, warmup_s, false, false, &spans, rec.get());
    const bool traced = args.trace && (rep % 4 == 1 || rep % 4 == 2);  // U T T U
    main_phases.push_back(RunPhase(w, rep_window_s, false, traced, &spans, rec.get()));
    main_traced.push_back(traced);
    const uint64_t t_stop = WallNanos();
    w.StopBackground();
    w.Collect(&after);
    std::string report;
    guard_ok = w.Guard(Delta(after, before), &report) && guard_ok;
    guard_reports.push_back(report);

    const uint64_t t_check = WallNanos();
    at_rest_ratio.push_back(Ratio(w.AtRestBytes(), w.LiveUserBytes()));
    w.FinalCheck();
    const uint64_t t_checked = WallNanos();
    if (w.PutProbeShare() > 0 && traced == args.trace) {
      probe_phases.push_back(RunPhase(w, args.seconds * w.PutProbeShare() / probe_reps, true,
                                      traced, &spans, rec.get()));
    }
    Counters level;
    w.Collect(&level);
    cache_bytes.push_back(Get(level, "pc.bytes_used"));
    w.Teardown();  // joins every pool / merger / EM thread
    std::fprintf(stderr, "rep %d: setup %.2fs, stop %.2fs, check %.2fs, probe+teardown %.2fs\n",
                 rep, setup_s.back(), static_cast<double>(t_check - t_stop) / 1e9,
                 static_cast<double>(t_checked - t_check) / 1e9,
                 static_cast<double>(WallNanos() - t_checked) / 1e9);
  }

  std::vector<const PhaseResult*> measured, windows, probes;
  for (size_t i = 0; i < main_phases.size(); ++i) {
    measured.push_back(&main_phases[i]);
    if (!main_traced[i]) {
      windows.push_back(&main_phases[i]);
    }
  }
  for (const PhaseResult& p : probe_phases) {
    measured.push_back(&p);
    probes.push_back(&p);
  }
  const OpCounts counts = Count(measured);
  const uint64_t mismatches = w.oracle().mismatches();
  const bool correct = mismatches == 0 && guard_ok;

  std::printf("# workload=%s seed=%" PRIu64 " seconds=%.3g trace=%d scale=%s reps=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
              args.tiny ? "tiny" : "full", reps);
  for (size_t rep = 0; rep < guard_reports.size(); ++rep) {
    std::printf("# guard rep %zu: %s\n", rep, guard_reports[rep].c_str());
  }
  std::printf("# guards: %s\n", guard_ok ? "ok" : "FAILED");
  std::printf("# oracle: %" PRIu64 " mismatches%s%s\n", mismatches,
              mismatches > 0 ? "; first: " : "", w.oracle().first().c_str());
  std::printf("# ops: attempted=%" PRIu64 " failed=%" PRIu64 " error_frac=%.6g\n",
              counts.attempted, counts.failed,
              Ratio(static_cast<double>(counts.failed), static_cast<double>(counts.attempted)));

  std::vector<Metric> metrics;
  if (!args.trace) {
    double ok_ops = 0, secs = 0;
    for (const PhaseResult* p : windows) {
      const OpCounts c = Count({p});
      ok_ops += static_cast<double>(c.attempted - c.failed);
      secs += p->seconds;
    }
    // Each percentile is the median over reps of that rep's exact
    // percentile, so a burst of host noise inside one rep does not move it.
    // The tail metric is p95: p99 spread 0.15-0.22 from seed to seed on the
    // development VM, p95 0.01-0.03 (README.md). p99 is printed per rep.
    std::vector<double> get_p50, get_p95, put_p50, put_p95;
    for (size_t rep = 0; rep < windows.size(); ++rep) {
      const std::vector<double> g = LatenciesUs({windows[rep]}, OpKind::kGet);
      const std::vector<double> u =
          LatenciesUs({probes.empty() ? windows[rep] : probes[rep]}, OpKind::kPut);
      get_p50.push_back(Percentile(g, 0.50));
      get_p95.push_back(Percentile(g, 0.95));
      put_p50.push_back(Percentile(u, 0.50));
      put_p95.push_back(Percentile(u, 0.95));
      std::printf("# rep %zu: gets=%zu p50=%.1f p95=%.1f p99=%.1f us | puts=%zu%s p50=%.1f "
                  "p80=%.1f p90=%.1f p95=%.1f p99=%.1f us\n",
                  rep, g.size(), get_p50.back(), get_p95.back(), Percentile(g, 0.99), u.size(),
                  probes.empty() ? "" : " (probe)", put_p50.back(), Percentile(u, 0.80),
                  Percentile(u, 0.90), put_p95.back(), Percentile(u, 0.99));
    }
    metrics.push_back({"throughput_ops_s", Ratio(ok_ops, secs), "1/s"});
    metrics.push_back({"get_p50_us", Median(get_p50), "us"});
    metrics.push_back({"get_p95_us", Median(get_p95), "us"});
    metrics.push_back({"put_p50_us", Median(put_p50), "us"});
    metrics.push_back({"put_p95_us", Median(put_p95), "us"});
    metrics.push_back({"at_rest_bytes_per_user_byte", Median(at_rest_ratio), "B/B"});
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    // Taken after the first setup, before any window: once writes start, the
    // simulated in-memory commit logs dominate resident memory (README.md),
    // and later reps inherit the allocator state of earlier ones.
    metrics.push_back({"rss_mb", rss_mb, "MB"});
    for (const Metric& metric : metrics) {
      std::printf("# %-30s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    }
  } else {
    Counters traced;
    std::vector<const PhaseResult*> traced_phases = probes;
    double ops_u = 0, secs_u = 0, ops_t = 0, secs_t = 0;
    for (size_t i = 0; i < main_phases.size(); ++i) {
      const double ops = static_cast<double>(Count({&main_phases[i]}).attempted);
      if (main_traced[i]) {
        traced_phases.push_back(&main_phases[i]);
        ops_t += ops;
        secs_t += main_phases[i].seconds;
      } else {
        ops_u += ops;
        secs_u += main_phases[i].seconds;
      }
    }
    for (const PhaseResult* p : traced_phases) {
      Accumulate(&traced, p->delta);
    }
    const double overhead = 1.0 - Ratio(ops_t / secs_t, ops_u / secs_u);
    metrics = LayerMetrics(traced, Count(traced_phases), spans.Ops(), overhead);
    // Pack-cache occupancy is a level, not a flow: its value at window end.
    metrics.push_back({"pack_cache.bytes_used", Median(cache_bytes), "B"});
    std::printf("# tracing overhead: untraced %.1f ops/s, traced %.1f ops/s\n", ops_u / secs_u,
                ops_t / secs_t);
    for (const Metric& metric : metrics) {
      std::printf("# %-44s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    }
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".tsv";
      if (!spans.WriteTsv(path)) {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
        return 1;
      }
      std::printf("# spans: %zu ops, %zu sleeps kept, %" PRIu64 " sleeps dropped -> %s\n",
                  spans.Ops().size(), spans.Sleeps().size(), spans.dropped_sleeps(), path.c_str());
    }
  }
  PrintResult(correct, counts.attempted, counts.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace minicrypt::perfbench

int main(int argc, char** argv) { return minicrypt::perfbench::Main(argc, argv); }
