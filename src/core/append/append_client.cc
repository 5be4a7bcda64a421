#include "src/core/append/append_client.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/common/coding.h"
#include "src/core/pack.h"
#include "src/obs/metrics.h"

namespace minicrypt {

namespace {

Cell PlainCell(std::string value) { return Cell{std::move(value), 0, false}; }

// Each client's jitter stream is derived from its ID so fleets of append
// clients desynchronize their retries.
uint64_t JitterSeedFor(const MiniCryptOptions& options, std::string_view client_id) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over the client id
  for (const char c : client_id) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  const uint64_t base = options.retry_jitter_seed != 0 ? options.retry_jitter_seed
                                                       : 0x6D696E6963727970ULL;
  const uint64_t seed = base ^ h;
  return seed != 0 ? seed : 1;
}

void CountRetry() { OBS_COUNTER_INC("append.unavailable_retries"); }

// An Unavailable that outlasted the retry loop, named after the operation.
Status OutOfRetries(std::string_view what, Status s) {
  if (!s.IsUnavailable()) {
    return s;
  }
  return Status::Unavailable(std::string(what) + " ran out of retries: " + s.message());
}

// `encoded_key`'s value in a fetched merged pack; NotFound when it lacks it.
Result<std::string> FindInPack(const FetchedPack& fetched, std::string_view encoded_key) {
  auto value = fetched.pack->Find(encoded_key);
  if (!value.has_value()) {
    return Status::NotFound();
  }
  return std::string(*value);
}

}  // namespace

AppendClient::AppendClient(Cluster* cluster, const MiniCryptOptions& options,
                           const SymmetricKey& key, std::string client_id, Clock* clock,
                           std::shared_ptr<PackCache> cache)
    : cluster_(cluster),
      options_(options),
      meta_table_(EmService::MetaTable(options)),
      crypter_(options, key),
      client_id_(std::move(client_id)),
      clock_(clock),
      cache_(cache != nullptr ? std::move(cache)
                              : PackCache::FromOptions(options.cache_capacity_bytes,
                                                       options.cache_ttl_micros, clock)),
      // Merged packs are sealed with an empty AAD context (MergeEpoch).
      reader_(cluster, &crypter_, options.table, cache_.get(), /*bind_pack_id=*/false),
      retry_(options, JitterSeedFor(options, client_id_), clock) {}

AppendClient::~AppendClient() { Stop(); }

Status AppendClient::Register() {
  MC_RETURN_IF_ERROR(HeartbeatOnce());
  return SyncEpoch();
}

Status AppendClient::SyncEpoch() {
  auto sync = [this] { return SyncEpochOnce(); };
  return OutOfRetries("epoch sync",
                      retry_.WhileUnavailable(options_.max_put_retries, sync, CountRetry));
}

Status AppendClient::SyncEpochOnce() {
  OBS_SPAN("append.epoch.sync");
  MC_ASSIGN_OR_RETURN(Row row, cluster_->Read(meta_table_, kEmPartition, kGEpochRow));
  auto it = row.cells.find(kEpochColumn);
  if (it == row.cells.end()) {
    return Status::Corruption("g_epoch row missing epoch cell");
  }
  MC_ASSIGN_OR_RETURN(uint64_t g_epoch, DecodeKey64(it->second.value));
  if (g_epoch != c_epoch_.exchange(g_epoch, std::memory_order_acq_rel)) {
    OBS_COUNTER_INC("append.epoch.renewals");
  }
  return Status::Ok();
}

Status AppendClient::HeartbeatOnce() {
  auto beat = [this] {
    Row hb;
    hb.cells[std::string(kHeartbeatColumn)] = PlainCell(EncodeKey64(clock_->NowMicros()));
    return cluster_->Write(meta_table_, kClientsPartition, client_id_, hb);
  };
  MC_RETURN_IF_ERROR(OutOfRetries(
      "heartbeat", retry_.WhileUnavailable(options_.max_put_retries, beat, CountRetry)));
  return SyncEpoch();
}

Status AppendClient::Put(uint64_t key, std::string_view value) {
  OBS_SPAN("append.put");
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  MC_ASSIGN_OR_RETURN(std::string envelope, crypter_.SealValue(value));
  // Single-row insert under (epoch, key) — no read, no update-if (§6.1.2).
  // The epoch is re-read per attempt: a retry that straddles an epoch sync
  // must land in the client's *current* epoch or the merge-safety window
  // (paper §6.1) no longer covers it.
  auto insert = [&] {
    Row row;
    row.cells[std::string(kPackValueColumn)] = PlainCell(envelope);
    const uint64_t epoch = c_epoch_.load(std::memory_order_acquire);
    return cluster_->Write(options_.table, EpochPartition(epoch), EncodeKey64(key), row);
  };
  return OutOfRetries("append put",
                      retry_.WhileUnavailable(options_.max_put_retries, insert, CountRetry));
}

Result<std::string> AppendClient::ProbeEpoch(uint64_t epoch, std::string_view encoded_key) {
  OBS_COUNTER_INC("append.get.epoch_probes");
  stats_.get_epoch_probes.fetch_add(1, std::memory_order_relaxed);
  MC_ASSIGN_OR_RETURN(Row row,
                      cluster_->Read(options_.table, EpochPartition(epoch), encoded_key));
  auto it = row.cells.find(kPackValueColumn);
  if (it == row.cells.end()) {
    return Status::NotFound();
  }
  return crypter_.OpenValue(it->second.value);
}

Result<std::string> AppendClient::ProbeMergedPacks(std::string_view encoded_key) {
  const std::string partition = EpochPartition(kMergedEpoch);
  auto fetched = reader_.FetchFloor(partition, encoded_key, /*allow_ttl=*/true);
  if (fetched.ok() && fetched->ttl_fresh && !fetched->pack->Find(encoded_key).has_value()) {
    // A TTL-fresh pack can lack a key merged after it was cached: confirm
    // against the server before reporting NotFound.
    fetched = reader_.FetchFloor(partition, encoded_key, /*allow_ttl=*/false);
  }
  if (!fetched.ok()) {
    return fetched.status();
  }
  return FindInPack(*fetched, encoded_key);
}

Result<std::string> AppendClient::ProbeMergedPacksAtQuorum(std::string_view encoded_key) {
  const std::string partition = EpochPartition(kMergedEpoch);
  MC_ASSIGN_OR_RETURN(auto floor, cluster_->ReadFloor(options_.table, partition, encoded_key,
                                                      Consistency::kQuorum));
  MC_ASSIGN_OR_RETURN(FetchedPack fetched,
                      reader_.OpenRow(partition, std::move(floor.first), floor.second));
  return FindInPack(fetched, encoded_key);
}

Result<std::string> AppendClient::Get(uint64_t key) {
  OBS_SPAN("append.get");
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  const std::string encoded = EncodeKey64(key);

  // Step 1: merged packs in epoch 0 (§6.1.3).
  auto merged = ProbeMergedPacks(encoded);
  if (merged.ok() || !merged.status().IsNotFound()) {
    return merged;
  }

  // Step 2: locate the covering epoch via the stats table's min keys, then
  // probe epochs e and e-1.
  MC_ASSIGN_OR_RETURN(auto stats_rows, cluster_->ReadRange(meta_table_, kStatsPartition,
                                                           EncodeKey64(1), EncodeKey64(~0ULL)));
  uint64_t best_epoch = 0;
  uint64_t best_min = 0;
  for (const auto& [clustering, row] : stats_rows) {
    auto stats = ParseStatsRow(clustering, row);
    if (!stats.ok() || !stats->min_key.has_value() ||
        stats->status == EpochStatus::kDeleted) {
      continue;
    }
    if (*stats->min_key <= key && (best_epoch == 0 || *stats->min_key >= best_min)) {
      best_epoch = stats->epoch;
      best_min = *stats->min_key;
    }
  }
  if (best_epoch != 0) {
    auto hit = ProbeEpoch(best_epoch, encoded);
    if (hit.ok() || !hit.status().IsNotFound()) {
      return hit;
    }
    if (best_epoch > 1) {
      hit = ProbeEpoch(best_epoch - 1, encoded);
      if (hit.ok() || !hit.status().IsNotFound()) {
        return hit;
      }
    }
  }

  // Step 2b (refinement): the stats table lags the open epochs, so a freshly
  // appended key may only exist under c_epoch or c_epoch - 1.
  const uint64_t open = c_epoch_.load(std::memory_order_acquire);
  for (uint64_t e : {open, open > 1 ? open - 1 : open}) {
    if (e == best_epoch || (best_epoch > 1 && e == best_epoch - 1)) {
      continue;
    }
    auto hit = ProbeEpoch(e, encoded);
    if (hit.ok() || !hit.status().IsNotFound()) {
      return hit;
    }
  }

  // Step 3: the key may have been merged between our probes — re-check
  // epoch 0 once (§6.1.3), at QUORUM. A merged pack's LWT acks at two of
  // three replicas, and once its epoch is MERGED the epoch before it, which
  // may hold a lagging client's only raw copy of the key, can be dropped. A
  // CL=ONE read (the floor, or the cache's version probe) can then reach the
  // replica still missing the pack, as step 1 may have; a quorum always
  // meets one of the LWT's.
  return ProbeMergedPacksAtQuorum(encoded);
}

Result<std::vector<std::pair<uint64_t, std::string>>> AppendClient::GetRange(uint64_t low,
                                                                             uint64_t high) {
  if (low > high) {
    return Status::InvalidArgument("low > high");
  }
  const std::string klo = EncodeKey64(low);
  const std::string khi = EncodeKey64(high);
  std::map<uint64_t, std::string> merged;

  // Merged packs in epoch 0 (Figure 4, applied to the e0 partition): packs
  // with IDs in [low, high], plus the boundary pack holding `low`. Both reads
  // go to a quorum, as Get's last step does: a merged pack's LWT acks at two
  // of three replicas, and the epoch that held a key's only raw copy may
  // already be dropped.
  const std::string partition = EpochPartition(kMergedEpoch);
  MC_ASSIGN_OR_RETURN(auto pack_rows, cluster_->ReadRange(options_.table, partition, klo, khi,
                                                          0, Consistency::kQuorum));
  if (pack_rows.empty() || pack_rows.front().first != klo) {
    auto floor = cluster_->ReadFloor(options_.table, partition, klo, Consistency::kQuorum);
    if (floor.ok()) {
      pack_rows.push_back(std::move(*floor));
    } else if (!floor.status().IsNotFound()) {
      return floor.status();
    }
  }
  for (auto& [id, row] : pack_rows) {
    if (row.cells.count(kPackValueColumn) == 0) {
      continue;
    }
    MC_ASSIGN_OR_RETURN(FetchedPack fetched, reader_.OpenRow(partition, std::move(id), row));
    for (const auto& entry : fetched.pack->entries()) {
      if (entry.key >= klo && entry.key <= khi) {
        MC_ASSIGN_OR_RETURN(uint64_t k, DecodeKey64(entry.key));
        merged.emplace(k, entry.value);
      }
    }
  }

  // Raw rows in every live epoch (stats table) plus the open epochs the
  // stats table does not list yet.
  std::set<uint64_t> epochs;
  MC_ASSIGN_OR_RETURN(auto stats_rows, cluster_->ReadRange(meta_table_, kStatsPartition,
                                                           EncodeKey64(1), EncodeKey64(~0ULL)));
  for (const auto& [clustering, row] : stats_rows) {
    auto stats = ParseStatsRow(clustering, row);
    if (stats.ok() && stats->status != EpochStatus::kDeleted) {
      epochs.insert(stats->epoch);
    }
  }
  const uint64_t open = c_epoch_.load(std::memory_order_acquire);
  epochs.insert(open);
  if (open > 1) {
    epochs.insert(open - 1);
  }
  for (uint64_t epoch : epochs) {
    MC_ASSIGN_OR_RETURN(auto rows,
                        cluster_->ReadRange(options_.table, EpochPartition(epoch), klo, khi));
    for (const auto& [clustering, row] : rows) {
      auto v = row.cells.find(kPackValueColumn);
      if (v == row.cells.end()) {
        continue;
      }
      MC_ASSIGN_OR_RETURN(uint64_t k, DecodeKey64(clustering));
      if (merged.count(k) != 0) {
        continue;  // already found in a pack (merge window duplicate)
      }
      MC_ASSIGN_OR_RETURN(std::string value, crypter_.OpenValue(v->second.value));
      merged.emplace(k, std::move(value));
    }
  }

  std::vector<std::pair<uint64_t, std::string>> out;
  out.reserve(merged.size());
  for (auto& [k, v] : merged) {
    out.emplace_back(k, std::move(v));
  }
  return out;
}

Result<std::vector<std::pair<uint64_t, std::string>>> AppendClient::ReadEpochRows(
    uint64_t epoch) {
  std::vector<std::pair<uint64_t, std::string>> out;
  if (epoch < 1) {
    return out;
  }
  MC_ASSIGN_OR_RETURN(auto rows, cluster_->ReadRange(options_.table, EpochPartition(epoch),
                                                     EncodeKey64(0), EncodeKey64(~0ULL)));
  out.reserve(rows.size());
  for (const auto& [clustering, row] : rows) {
    auto v = row.cells.find(kPackValueColumn);
    if (v == row.cells.end()) {
      continue;
    }
    MC_ASSIGN_OR_RETURN(std::string value, crypter_.OpenValue(v->second.value));
    MC_ASSIGN_OR_RETURN(uint64_t key, DecodeKey64(clustering));
    out.emplace_back(key, std::move(value));
  }
  return out;
}

Status AppendClient::MergeEpoch(uint64_t epoch) {
  OBS_SPAN("append.merge");
  // Paper §6.1.4: read e-1, e, e+1; merge keys in [k_min,e, k_min,e+1).
  MC_ASSIGN_OR_RETURN(auto prev_rows, ReadEpochRows(epoch - 1));
  MC_ASSIGN_OR_RETURN(auto cur_rows, ReadEpochRows(epoch));
  MC_ASSIGN_OR_RETURN(auto next_rows, ReadEpochRows(epoch + 1));
  if (cur_rows.empty()) {
    // Idle epoch: nothing to merge; mark it merged so deletion can proceed.
    Row update;
    update.cells[std::string(kStatusColumn)] =
        PlainCell(std::string(1, static_cast<char>(EpochStatus::kMerged)));
    MC_RETURN_IF_ERROR(
        cluster_->Write(meta_table_, kStatsPartition, EncodeKey64(epoch), update));
    stats_.epochs_merged.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  if (next_rows.empty()) {
    // The upper marker k_min,e+1 does not exist yet; defer (see DESIGN.md).
    return Status::Aborted("next epoch empty; merge deferred");
  }

  uint64_t kmin_e = cur_rows.front().first;
  for (const auto& [key, value] : cur_rows) {
    kmin_e = std::min(kmin_e, key);
  }
  uint64_t kmin_next = next_rows.front().first;
  for (const auto& [key, value] : next_rows) {
    kmin_next = std::min(kmin_next, key);
  }

  // Deterministic selection: every client computing this merge arrives at the
  // same key set, ordering, and pack boundaries (paper §6.1, §6.3).
  std::map<uint64_t, std::string> selected;
  auto take = [&](std::vector<std::pair<uint64_t, std::string>>& rows) {
    for (auto& [key, value] : rows) {
      if (key >= kmin_e && key < kmin_next) {
        selected[key] = std::move(value);
      }
    }
  };
  take(prev_rows);
  take(cur_rows);
  take(next_rows);

  // Cut into packs of pack_rows, insert into epoch 0 with IF NOT EXISTS: a
  // concurrent merger of the same epoch inserts identical packs, so losing
  // the race is harmless.
  std::vector<Pack::Entry> chunk;
  chunk.reserve(options_.pack_rows);
  auto flush_chunk = [&]() -> Status {
    if (chunk.empty()) {
      return Status::Ok();
    }
    MC_ASSIGN_OR_RETURN(Pack pack, Pack::FromSorted(std::move(chunk)));
    chunk.clear();
    MC_ASSIGN_OR_RETURN(SealedPack sealed, crypter_.Seal(pack));
    const std::string partition = EpochPartition(kMergedEpoch);
    const std::string pack_id(*pack.MinKey());
    const Status s = cluster_->WriteIf(options_.table, partition, pack_id, PackRow(sealed),
                                       LwtCondition::NotExists());
    if (!s.ok() && !s.IsConditionFailed()) {
      return s;
    }
    if (s.ok()) {
      // Our insert was acked, so the stored envelope hash is ours. A lost
      // race (ConditionFailed) wrote identical rows under a different
      // randomized seal — never cache our hash for those.
      reader_.CacheWritten(partition, pack_id, pack, sealed.hash);
    }
    OBS_COUNTER_INC("append.merge.packs_written");
    OBS_COUNTER_ADD("append.merge.keys", pack.size());
    stats_.packs_written.fetch_add(1, std::memory_order_relaxed);
    stats_.keys_merged.fetch_add(pack.size(), std::memory_order_relaxed);
    return Status::Ok();
  };
  for (auto& [key, value] : selected) {
    chunk.push_back(Pack::Entry{EncodeKey64(key), std::move(value)});
    if (chunk.size() >= options_.pack_rows) {
      MC_RETURN_IF_ERROR(flush_chunk());
    }
  }
  MC_RETURN_IF_ERROR(flush_chunk());

  // Mark MERGED (packs land in epoch 0 before the status flips, so gets never
  // lose the keys, §6.3).
  Row update;
  update.cells[std::string(kStatusColumn)] =
      PlainCell(std::string(1, static_cast<char>(EpochStatus::kMerged)));
  MC_RETURN_IF_ERROR(cluster_->Write(meta_table_, kStatsPartition, EncodeKey64(epoch), update));
  OBS_COUNTER_INC("append.merge.epochs");
  stats_.epochs_merged.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status AppendClient::MergeOnce() {
  MC_ASSIGN_OR_RETURN(auto stats_rows, cluster_->ReadRange(meta_table_, kStatsPartition,
                                                           EncodeKey64(1), EncodeKey64(~0ULL)));
  for (const auto& [clustering, row] : stats_rows) {
    auto stats = ParseStatsRow(clustering, row);
    if (!stats.ok() || stats->status != EpochStatus::kNotMerged ||
        stats->client != client_id_) {
      continue;
    }
    const Status s = MergeEpoch(stats->epoch);
    if (!s.ok() && !s.IsAborted()) {
      return s;
    }
  }
  return Status::Ok();
}

Status AppendClient::DeleteMergedOnce() {
  // An epoch e can be deleted when e is MERGED and e-1, e+1 are each MERGED
  // or DELETED (paper §6.1.4). Status is set to DELETED before the partition
  // drop so a merger never reads a half-deleted epoch (§6.3).
  MC_ASSIGN_OR_RETURN(auto stats_rows, cluster_->ReadRange(meta_table_, kStatsPartition,
                                                           EncodeKey64(1), EncodeKey64(~0ULL)));
  std::map<uint64_t, EpochStatus> status;
  for (const auto& [clustering, row] : stats_rows) {
    auto stats = ParseStatsRow(clustering, row);
    if (stats.ok()) {
      status[stats->epoch] = stats->status;
    }
  }
  auto settled = [&](uint64_t e) {
    auto it = status.find(e);
    return it == status.end() ? false
                              : it->second == EpochStatus::kMerged ||
                                    it->second == EpochStatus::kDeleted;
  };
  for (const auto& [epoch, st] : status) {
    if (st != EpochStatus::kMerged) {
      continue;
    }
    const bool prev_ok = epoch == 1 || settled(epoch - 1);
    if (!prev_ok || !settled(epoch + 1)) {
      continue;
    }
    // The flip is an LWT: of the clients that see the epoch MERGED, one wins
    // it, and only the winner counts and drops the epoch.
    Row update;
    update.cells[std::string(kStatusColumn)] =
        PlainCell(std::string(1, static_cast<char>(EpochStatus::kDeleted)));
    const Status flipped = cluster_->WriteIf(
        meta_table_, kStatsPartition, EncodeKey64(epoch), update,
        LwtCondition::CellEquals(std::string(kStatusColumn),
                                 std::string(1, static_cast<char>(EpochStatus::kMerged))));
    if (flipped.IsConditionFailed()) {
      continue;
    }
    MC_RETURN_IF_ERROR(flipped);
    // Count the keys being dropped (for the Figure 12 series) then drop the
    // whole partition in one tombstone.
    MC_ASSIGN_OR_RETURN(auto rows, cluster_->ReadRange(options_.table, EpochPartition(epoch),
                                                       EncodeKey64(0), EncodeKey64(~0ULL)));
    MC_RETURN_IF_ERROR(cluster_->DeletePartition(options_.table, EpochPartition(epoch)));
    OBS_COUNTER_INC("append.delete.epochs");
    stats_.keys_deleted.fetch_add(rows.size(), std::memory_order_relaxed);
    stats_.epochs_deleted.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

void AppendClient::Start() {
  Stop();
  heartbeat_task_ =
      std::make_unique<PeriodicTask>([this] { (void)HeartbeatOnce(); },
                                     options_.heartbeat_micros);
  merge_task_ = std::make_unique<PeriodicTask>(
      [this] {
        (void)MergeOnce();
        (void)DeleteMergedOnce();
      },
      options_.merge_period_micros);
}

void AppendClient::Stop() {
  merge_task_.reset();
  heartbeat_task_.reset();
}

}  // namespace minicrypt
