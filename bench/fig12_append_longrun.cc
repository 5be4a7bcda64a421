// Figure 12: APPEND-mode long run. Plots cumulative inserted / merged /
// deleted key counts over time while a fleet of writers appends
// continuously, showing the merge pipeline keeping pace with insertion. A
// separate baseline run provides the reference insert curve.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/append/append_client.h"
#include "src/core/append/em_service.h"

namespace minicrypt {
namespace {

MiniCryptOptions AppendOptions() {
  MiniCryptOptions options;
  options.table = "ts";
  options.pack_rows = 50;
  options.epoch_micros = 1'000'000;
  options.t_delta_micros = 150'000;
  options.t_drift_micros = 150'000;
  options.heartbeat_micros = 150'000;
  options.client_timeout_micros = 5'000'000;
  options.merge_period_micros = 200'000;
  return options;
}

ClusterOptions LongRunCluster() {
  ClusterOptions o = PaperCluster(MediaKind::kSsd, 96 * 1024 * 1024);
  // Long ingest run: large memtables and a late compaction trigger keep the
  // (synchronous) compactions from stalling the writers mid-run.
  o.engine.memtable_flush_bytes = 24 * 1024 * 1024;
  o.engine.compaction_trigger = 16;
  return o;
}

uint64_t RunBaseline(int clients, int seconds) {
  Cluster cluster(LongRunCluster());
  MiniCryptOptions options = AppendOptions();
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  EncryptedBaselineClient baseline(&cluster, options, key);
  (void)baseline.CreateTable();
  auto dataset = MakeDataset("conviva", 1);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> next_key{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t k = next_key.fetch_add(1, std::memory_order_relaxed);
        (void)baseline.Put(k, dataset->Row(k % 4096));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  stop = true;
  for (auto& th : threads) {
    th.join();
  }
  return next_key.load();
}

int Main() {
  const double scale = BenchScale();
  const int clients = 8;
  const int seconds = static_cast<int>(20 * scale);
  const SymmetricKey key = SymmetricKey::FromSeed("tenant");
  auto dataset = MakeDataset("conviva", 1);

  std::printf("# Figure 12: APPEND-mode long run, %d writer clients, %d s (scaled from 10 min)\n",
              clients, seconds);

  Cluster cluster(LongRunCluster());
  MiniCryptOptions options = AppendOptions();
  EmService em(&cluster, options, "em0");
  (void)em.Bootstrap();
  (void)em.Tick();
  em.Start(150'000);

  std::vector<std::unique_ptr<AppendClient>> workers;
  for (int c = 0; c < clients; ++c) {
    workers.push_back(std::make_unique<AppendClient>(&cluster, options, key,
                                                     "client-" + std::to_string(c)));
    (void)workers.back()->Register();
    workers.back()->Start();
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> next_key{0};
  std::vector<std::vector<uint64_t>> acked(clients);  // per writer, keys whose Put was Ok
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      const auto i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t k = next_key.fetch_add(1, std::memory_order_relaxed);
        if (workers[i]->Put(k, dataset->Row(k % 4096)).ok()) {
          acked[i].push_back(k);
        }
      }
    });
  }

  std::printf("%-8s %-12s %-12s %-12s\n", "t_sec", "inserted", "merged", "deleted");
  uint64_t merged = 0;
  uint64_t deleted = 0;
  uint64_t inserted = 0;
  uint64_t mid_inserted = 0;
  uint64_t mid_merged = 0;
  for (int s = 1; s <= seconds; ++s) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    inserted = next_key.load();
    merged = 0;
    deleted = 0;
    for (const auto& w : workers) {
      merged += w->stats().keys_merged.load();
      deleted += w->stats().keys_deleted.load();
    }
    std::printf("%-8d %-12llu %-12llu %-12llu\n", s,
                static_cast<unsigned long long>(inserted),
                static_cast<unsigned long long>(merged),
                static_cast<unsigned long long>(deleted));
    std::fflush(stdout);
    if (s == seconds / 2) {
      mid_inserted = inserted;
      mid_merged = merged;
    }
  }
  stop = true;
  for (auto& th : threads) {
    th.join();
  }
  em.Stop();
  for (auto& w : workers) {
    w->Stop();
  }

  // Read back every acknowledged key: a miss is data loss, which a deleted
  // count above the merged one could otherwise hide.
  std::vector<uint64_t> expected;
  for (const auto& keys : acked) {
    expected.insert(expected.end(), keys.begin(), keys.end());
  }
  std::sort(expected.begin(), expected.end());
  size_t missing = 0;
  constexpr uint64_t kReadBackChunk = 4096;
  for (size_t i = 0; i < expected.size();) {
    const uint64_t hi = expected[i] + kReadBackChunk - 1;
    auto got = workers[0]->GetRange(expected[i], hi);
    size_t j = 0;
    for (; i < expected.size() && expected[i] <= hi; ++i) {
      while (got.ok() && j < got->size() && (*got)[j].first < expected[i]) {
        ++j;
      }
      const bool found = got.ok() && j < got->size() && (*got)[j].first == expected[i] &&
                         (*got)[j].second == dataset->Row(expected[i] % 4096);
      missing += found ? 0 : 1;
    }
  }
  std::printf("# read-back: %zu acknowledged keys, %zu missing\n", expected.size(), missing);

  const uint64_t baseline_inserted = RunBaseline(clients, seconds);
  std::printf("\n# baseline inserted over same window: %llu (append/baseline = %.2f)\n",
              static_cast<unsigned long long>(baseline_inserted),
              static_cast<double>(inserted) / static_cast<double>(baseline_inserted));

  // Shape checks on the steady state (the pipeline needs ~3 epochs before
  // the first merge can legally run, a visible fraction of this scaled-down
  // window): over the second half of the run, the merge rate must keep pace
  // with the insert rate, and deletions must have started and trail merges.
  const double late_inserts = static_cast<double>(inserted - mid_inserted);
  const double late_merges = static_cast<double>(merged - mid_merged);
  const bool merge_keeps_pace = late_merges > 0.5 * late_inserts;
  const bool deletion_follows = deleted > 0 && deleted <= merged;
  const double tp_fraction =
      static_cast<double>(inserted) / static_cast<double>(baseline_inserted);
  std::printf("# steady-state merge/insert rate=%.2f deleted<=merged=%s "
              "append/baseline=%.2f\n",
              late_inserts > 0 ? late_merges / late_inserts : 0.0,
              deletion_follows ? "yes" : "no", tp_fraction);
  const bool pass = merge_keeps_pace && deletion_follows && tp_fraction > 0.1 && missing == 0;
  std::printf("# shape-check: merge-keeps-pace=%s deletes-follow-merges=%s "
              "throughput-fraction-ok=%s read-back=%s\n",
              merge_keeps_pace ? "PASS" : "FAIL", deletion_follows ? "PASS" : "FAIL",
              tp_fraction > 0.1 ? "PASS" : "FAIL", missing == 0 ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace minicrypt

int main() { return minicrypt::Main(); }
