// Open-loop load harness: drives the async cluster API with N simulated
// Poisson clients (src/workload/loadgen.h) against the paper's 3-node RF=3
// ring at QUORUM, and emits a schema-versioned BENCH_load_<rev>.json with
// coordinated-omission-free p50/p99/p999 latency and goodput per op class.
// bench/check_regression.py gates the p99 cells against the committed
// baseline (lower is better). See docs/LOAD_TESTING.md.
//
//   load_harness [--revision=REV] [--out=PATH] [--clients=N]
//                [--duration-s=S] [--seed=N] [--nodes=N]
//                [--bootstrap-mid-load] [--rotate-mid-load] [--smoke]
//
// --smoke shrinks the run (fewer clients, shorter window, smaller keyspace)
// for the CI perf job; the full default sustains 1000 open-loop clients.
// --nodes overrides the paper's 3-node ring (e.g. 32 for the scale smoke);
// --bootstrap-mid-load adds one node halfway through the measured window, so
// the latency gate covers streaming + the dual-apply ownership flip under
// open-loop traffic (docs/LOAD_TESTING.md). --rotate-mid-load preloads a
// MiniCrypt pack table on the same ring and runs an epoch key rotation
// (announce -> repack -> verify -> retire, docs/KEY_ROTATION.md) halfway
// through the window, so the gate also covers the rotator's re-seal sweep
// competing with open-loop traffic for the same nodes and media.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "bench/bench_util.h"
#include "src/core/generic_client.h"
#include "src/crypto/keyring.h"
#include "src/kvstore/cluster.h"
#include "src/workload/loadgen.h"

namespace minicrypt {
namespace {

void JsonEscapeAppend(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// A latency cell: ns_per_op/mb_per_s are 0 so the normalized-throughput gate
// skips it; check_regression.py gates p99_us directly instead.
void AppendLatencyCell(std::string* json, const std::string& name, const Histogram& h,
                       uint64_t count, double goodput_ops_s, bool last) {
  *json += "    {\"name\": \"";
  JsonEscapeAppend(json, name);
  *json += "\", \"bytes_per_op\": 0, \"ns_per_op\": 0, \"mb_per_s\": 0";
  *json += ", \"p50_us\": " + FormatDouble(h.Percentile(0.50));
  *json += ", \"p99_us\": " + FormatDouble(h.Percentile(0.99));
  *json += ", \"p999_us\": " + FormatDouble(h.Percentile(0.999));
  *json += ", \"goodput_ops_s\": " + FormatDouble(goodput_ops_s);
  *json += ", \"iterations\": " + std::to_string(count);
  *json += last ? "}\n" : "},\n";
}

}  // namespace

int LoadHarnessMain(int argc, char** argv) {
  std::string revision = "dev";
  std::string out_path;
  bool smoke = false;
  int nodes = 0;  // 0 = the paper's 3-node ring
  bool bootstrap_mid_load = false;
  bool rotate_mid_load = false;
  LoadGenOptions lopts;
  lopts.clients = 1000;
  lopts.per_client_ops_s = 8.0;
  lopts.duration_micros = 3'000'000;
  lopts.warmup_micros = 500'000;
  lopts.keyspace = 10'000;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--revision=", 0) == 0) {
      revision = arg.substr(strlen("--revision="));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(strlen("--out="));
    } else if (arg.rfind("--clients=", 0) == 0) {
      lopts.clients = std::atoi(std::string(arg.substr(strlen("--clients="))).c_str());
    } else if (arg.rfind("--duration-s=", 0) == 0) {
      lopts.duration_micros = static_cast<uint64_t>(
          std::atof(std::string(arg.substr(strlen("--duration-s="))).c_str()) * 1e6);
    } else if (arg.rfind("--seed=", 0) == 0) {
      lopts.seed = std::strtoull(std::string(arg.substr(strlen("--seed="))).c_str(), nullptr, 0);
    } else if (arg.rfind("--nodes=", 0) == 0) {
      nodes = std::atoi(std::string(arg.substr(strlen("--nodes="))).c_str());
    } else if (arg == "--bootstrap-mid-load") {
      bootstrap_mid_load = true;
    } else if (arg == "--rotate-mid-load") {
      rotate_mid_load = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: load_harness [--revision=REV] [--out=PATH] [--clients=N] "
                   "[--duration-s=S] [--seed=N] [--nodes=N] [--bootstrap-mid-load] "
                   "[--rotate-mid-load] [--smoke]\n");
      return 2;
    }
  }
  if (smoke) {
    lopts.clients = 200;
    lopts.duration_micros = 1'000'000;
    lopts.warmup_micros = 250'000;
    lopts.keyspace = 2'000;
  }
  if (out_path.empty()) {
    out_path = "BENCH_load_" + revision + ".json";
  }

  // The paper ring at QUORUM, with the async pool sized for open-loop burst
  // absorption: arrivals keep coming while earlier ops wait on media/network,
  // so the queue bound is the overload valve, not a throughput limit.
  ClusterOptions copts = PaperCluster(MediaKind::kSsd, 64 << 20);
  copts.consistency = Consistency::kQuorum;
  copts.async_api_threads = 16;
  copts.async_queue_limit = 16'384;
  if (nodes > 0) {
    copts.node_count = nodes;
  }
  Cluster cluster(copts);
  Status s = cluster.CreateTable(lopts.table);
  if (!s.ok()) {
    std::fprintf(stderr, "create table failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Preload the exact key layout the generator probes, so reads never miss.
  const std::string value(lopts.value_bytes, 'v');
  for (uint64_t k = 0; k < lopts.keyspace; ++k) {
    Row row;
    row.cells["v"] = Cell{value, 0, false};
    s = cluster.Write(lopts.table, LoadPartitionFor(k, lopts.partitions), LoadClusteringFor(k),
                      row);
    if (!s.ok()) {
      std::fprintf(stderr, "preload failed at key %llu: %s\n",
                   static_cast<unsigned long long>(k), s.ToString().c_str());
      return 1;
    }
  }
  // A MiniCrypt pack table on the same ring for the mid-load rotation: the
  // rotator's re-seal sweep then competes with the open-loop traffic for the
  // same nodes, media queues, and async pool.
  auto ring = Keyring::FromMaster(SymmetricKey::FromSeed("load-rotate"));
  MiniCryptOptions mc_options;
  mc_options.pack_rows = 32;
  mc_options.hash_partitions = 4;
  constexpr uint64_t kPackKeyspace = 512;
  std::unique_ptr<GenericClient> rotator;
  if (rotate_mid_load) {
    rotator = std::make_unique<GenericClient>(&cluster, mc_options, ring);
    s = rotator->CreateTable();
    if (!s.ok()) {
      std::fprintf(stderr, "create pack table failed: %s\n", s.ToString().c_str());
      return 1;
    }
    for (uint64_t k = 0; k < kPackKeyspace; ++k) {
      s = rotator->Put(k, "pack-value-" + std::to_string(k));
      if (!s.ok()) {
        std::fprintf(stderr, "pack preload failed at key %llu: %s\n",
                     static_cast<unsigned long long>(k), s.ToString().c_str());
        return 1;
      }
    }
  }
  s = cluster.FlushAll();
  if (!s.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", s.ToString().c_str());
    return 1;
  }
  cluster.ResetPerfCounters();
  MetricsRegistry::Instance().ResetAll();

  std::fprintf(stderr,
               "[load] clients=%d rate=%.0f ops/s window=%.1fs warmup=%.1fs keyspace=%llu%s\n",
               lopts.clients, lopts.clients * lopts.per_client_ops_s,
               static_cast<double>(lopts.duration_micros) / 1e6,
               static_cast<double>(lopts.warmup_micros) / 1e6,
               static_cast<unsigned long long>(lopts.keyspace), smoke ? " (smoke)" : "");
  // Mid-load bootstrap: fire roughly halfway through the measured window so
  // streaming and the quiesced ownership flips overlap peak traffic. Aborted
  // writes re-resolve and retry inside the coordinator, so the open-loop
  // histogram absorbs the flip as latency, not as errors.
  std::thread bootstrapper;
  std::atomic<int> bootstrap_ok{-1};  // -1 = not requested
  if (bootstrap_mid_load) {
    bootstrapper = std::thread([&] {
      std::this_thread::sleep_for(
          std::chrono::microseconds(lopts.warmup_micros + lopts.duration_micros / 2));
      Status bs = cluster.BootstrapNode().status();
      for (int attempt = 0; attempt < 16 && cluster.Topology().inflight; ++attempt) {
        bs = cluster.ResumeTopology();
        if (bs.ok()) {
          break;
        }
      }
      bootstrap_ok.store(bs.ok() && !cluster.Topology().inflight ? 1 : 0);
    });
  }
  // Mid-load rotation: the full announce -> repack -> verify -> retire
  // protocol against live cluster contention. Unavailable pauses (foreground
  // wins the LWT gate; the rotation record is durable) are resumed in place.
  std::thread rotate_thread;
  std::atomic<int> rotate_ok{-1};  // -1 = not requested
  if (rotate_mid_load) {
    rotate_thread = std::thread([&] {
      std::this_thread::sleep_for(
          std::chrono::microseconds(lopts.warmup_micros + lopts.duration_micros / 2));
      Status rs = rotator->RotateKeys();
      for (int attempt = 0; attempt < 16 && !rs.ok(); ++attempt) {
        rs = rotator->RotateKeys();
      }
      rotate_ok.store(rs.ok() ? 1 : 0);
    });
  }
  const LoadGenResult result = RunOpenLoop(cluster, lopts);
  if (bootstrapper.joinable()) {
    bootstrapper.join();
  }
  if (rotate_thread.joinable()) {
    rotate_thread.join();
  }
  if (rotate_mid_load) {
    std::fprintf(stderr, "[load] rotation mid-load: ok=%d epoch=%llu retired_below=%llu\n",
                 rotate_ok.load(), static_cast<unsigned long long>(ring->current_epoch()),
                 static_cast<unsigned long long>(ring->retired_below()));
    if (rotate_ok.load() != 1) {
      std::fprintf(stderr, "[load] FAIL: mid-load key rotation did not complete\n");
      return 1;
    }
    // Spot-check that rotated packs still serve their preloaded rows.
    for (uint64_t k = 0; k < kPackKeyspace; k += kPackKeyspace / 8) {
      auto got = rotator->Get(k);
      if (!got.ok() || *got != "pack-value-" + std::to_string(k)) {
        std::fprintf(stderr, "[load] FAIL: key %llu unreadable after rotation: %s\n",
                     static_cast<unsigned long long>(k), got.status().ToString().c_str());
        return 1;
      }
    }
  }
  if (bootstrap_mid_load) {
    std::fprintf(stderr, "[load] bootstrap mid-load: ok=%d serving=%zu\n", bootstrap_ok.load(),
                 cluster.ServingNodes().size());
    if (bootstrap_ok.load() != 1) {
      std::fprintf(stderr, "[load] FAIL: mid-load bootstrap did not complete\n");
      return 1;
    }
  }
  std::fprintf(stderr,
               "[load] offered=%llu ok=%llu errors=%llu rejected=%llu drained=%d\n"
               "[load] goodput=%.0f ops/s p50=%.0fus p99=%.0fus p999=%.0fus\n",
               static_cast<unsigned long long>(result.offered),
               static_cast<unsigned long long>(result.ok),
               static_cast<unsigned long long>(result.errors),
               static_cast<unsigned long long>(result.rejected), result.drained ? 1 : 0,
               result.goodput_ops_s, result.P50Micros(), result.P99Micros(),
               result.P999Micros());
  if (!result.drained) {
    std::fprintf(stderr, "[load] FAIL: drain timed out with callbacks outstanding\n");
    return 1;
  }
  if (result.ok == 0) {
    std::fprintf(stderr, "[load] FAIL: no operation completed successfully\n");
    return 1;
  }

  // Calibration cell so check_regression.py accepts the file and can reason
  // about machine speed alongside the latency cells.
  CellStats cal;
  {
    const std::string src(1 << 20, 'm');
    std::string dst(1 << 20, '\0');
    cal = MeasureCell(
        [&] {
          std::memcpy(dst.data(), src.data(), src.size());
          asm volatile("" : : "r"(dst.data()) : "memory");
        },
        src.size(), /*min_seconds=*/0.1);
  }

  std::string json = "{\n";
  json += "  \"schema\": \"mc-bench-v1\",\n";
  json += "  \"revision\": \"";
  JsonEscapeAppend(&json, revision);
  json += "\",\n";
  json += "  \"nodes\": " + std::to_string(static_cast<int>(cluster.NodeCount())) + ",\n";
  json += "  \"bootstrap_ok\": " + std::to_string(bootstrap_ok.load()) + ",\n";
  json += "  \"rotate_ok\": " + std::to_string(rotate_ok.load()) + ",\n";
  json += "  \"clients\": " + std::to_string(lopts.clients) + ",\n";
  json += "  \"offered_ops\": " + std::to_string(result.offered) + ",\n";
  json += "  \"errors\": " + std::to_string(result.errors) + ",\n";
  json += "  \"rejected\": " + std::to_string(result.rejected) + ",\n";
  json += "  \"goodput_ops_s\": " + FormatDouble(result.goodput_ops_s) + ",\n";
  json += "  \"cells\": [\n";
  json += "    {\"name\": \"calibration.memcpy_1m\", \"bytes_per_op\": " +
          std::to_string(1 << 20) + ", \"ns_per_op\": " + FormatDouble(cal.ns_per_op) +
          ", \"mb_per_s\": " + FormatDouble(cal.mb_per_s) +
          ", \"p50_ns\": " + FormatDouble(cal.p50_ns) +
          ", \"p99_ns\": " + FormatDouble(cal.p99_ns) +
          ", \"allocs_per_op\": " + FormatDouble(cal.allocs_per_op) +
          ", \"iterations\": " + std::to_string(cal.iterations) + "},\n";
  AppendLatencyCell(&json, "load.latency.all", result.latency, result.ok,
                    result.goodput_ops_s, /*last=*/false);
  AppendLatencyCell(&json, "load.latency.read", result.read_latency, result.read_latency.count(),
                    0.0, /*last=*/false);
  AppendLatencyCell(&json, "load.latency.write", result.write_latency,
                    result.write_latency.count(), 0.0, /*last=*/false);
  AppendLatencyCell(&json, "load.latency.range", result.range_latency,
                    result.range_latency.count(), 0.0, /*last=*/true);
  json += "  ]\n}\n";

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace minicrypt

int main(int argc, char** argv) { return minicrypt::LoadHarnessMain(argc, argv); }
