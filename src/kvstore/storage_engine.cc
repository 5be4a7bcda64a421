#include "src/kvstore/storage_engine.h"

#include <algorithm>
#include <map>

#include "src/obs/metrics.h"

namespace minicrypt {

StorageEngine::StorageEngine(StorageEngineOptions options, BlockCache* cache, Media* media,
                             std::unique_ptr<LogSink> log_sink)
    : options_(options), cache_(cache), media_(media),
      next_sstable_id_(options.sstable_id_base + 1) {
  if (log_sink != nullptr) {
    log_ = std::make_unique<CommitLog>(std::move(log_sink), media_, options_.fault_injector,
                                       options_.commitlog_sync_every_appends);
  }
}

Status StorageEngine::Apply(std::string_view partition, std::string_view clustering,
                            const Row& update) {
  return ApplyInternal(EncodeRowKey(partition, clustering), update);
}

Status StorageEngine::ApplyEncoded(std::string_view encoded_key, const Row& row) {
  return ApplyInternal(encoded_key, row);
}

Status StorageEngine::ApplyInternal(std::string_view encoded_key, const Row& update) {
  OBS_SPAN("engine.apply");
  OBS_COUNTER_INC("engine.memtable.applies");
  bool want_flush = false;
  {
    // Shared gate: concurrent appliers overlap inside the thread-safe commit
    // log (which group-commits their records). The log append happens outside
    // mu_, so one replica leg's fsync wait never blocks another leg's
    // memtable apply. Log order and memtable order can diverge between
    // concurrent appliers; LWW cell timestamps make replay order-insensitive.
    std::shared_lock<std::shared_mutex> gate(log_gate_);
    if (log_ != nullptr) {
      MC_RETURN_IF_ERROR(log_->Append(encoded_key, update));
    }
    std::lock_guard<std::mutex> lock(mu_);
    memtable_->Apply(encoded_key, update);
    want_flush = memtable_->ApproxBytes() >= options_.memtable_flush_bytes;
  }
  if (want_flush) {
    return MaybeFlush();
  }
  return Status::Ok();
}

Status StorageEngine::MaybeFlush() {
  std::unique_lock<std::shared_mutex> gate(log_gate_);
  std::lock_guard<std::mutex> lock(mu_);
  if (memtable_->ApproxBytes() < options_.memtable_flush_bytes) {
    return Status::Ok();  // a racing applier already flushed
  }
  return FlushLocked();
}

Status StorageEngine::FlushLocked() {
  if (memtable_->empty()) {
    return Status::Ok();
  }
  OBS_SPAN("engine.flush");
  OBS_COUNTER_INC("engine.flush.count");
  OBS_COUNTER_ADD("engine.flush.bytes", memtable_->ApproxBytes());
  SstableBuilder builder(next_sstable_id_++, options_.sstable);
  for (const auto& [key, row] : memtable_->entries()) {
    builder.Add(key, row);
  }
  sstables_.insert(sstables_.begin(), builder.Finish(media_, options_.fault_injector));
  memtable_ = std::make_shared<Memtable>();
  if (log_ != nullptr) {
    MC_RETURN_IF_ERROR(log_->Retire());
  }
  if (static_cast<int>(sstables_.size()) >= options_.compaction_trigger) {
    MC_RETURN_IF_ERROR(CompactLocked());
  }
  return Status::Ok();
}

Status StorageEngine::Flush() {
  std::unique_lock<std::shared_mutex> gate(log_gate_);
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status StorageEngine::Crash(uint64_t tear_draw) {
  std::unique_lock<std::shared_mutex> gate(log_gate_);
  std::lock_guard<std::mutex> lock(mu_);
  OBS_COUNTER_INC("engine.crash.count");
  // RAM is gone: memtable and any cached blocks. The commit log keeps its
  // synced prefix plus a seeded fraction of the unsynced tail (possibly torn
  // mid-record); everything else must come back from SSTables + log replay.
  memtable_->Clear();
  if (log_ != nullptr) {
    const size_t torn = log_->Crash(tear_draw);
    OBS_COUNTER_ADD("engine.crash.torn_log_bytes", torn);
  }
  return Status::Ok();
}

Status StorageEngine::RecoverFromLog() {
  std::unique_lock<std::shared_mutex> gate(log_gate_);
  std::lock_guard<std::mutex> lock(mu_);
  if (log_ == nullptr) {
    return Status::Ok();
  }
  size_t replayed = 0;
  MC_RETURN_IF_ERROR(log_->Recover([&](std::string_view key, const Row& row) {
    memtable_->Apply(key, row);
    ++replayed;
  }));
  OBS_COUNTER_ADD("engine.recover.replayed_records", replayed);
  return Status::Ok();
}

void StorageEngine::WarmCache(
    const std::function<bool(std::string_view partition)>& serves_partition) {
  const ReadSnapshot snap = Snapshot();
  // Oldest first so the newest (most likely hot) blocks survive LRU eviction.
  for (auto it = snap.tables.rbegin(); it != snap.tables.rend(); ++it) {
    (*it)->WarmInto(cache_, serves_partition);
  }
}

void StorageEngine::MarkQuarantined(const std::shared_ptr<Sstable>& table) {
  std::lock_guard<std::mutex> lock(mu_);
  if (std::find(quarantined_.begin(), quarantined_.end(), table) != quarantined_.end()) {
    return;
  }
  quarantined_.push_back(table);
  OBS_COUNTER_INC("storage.corruption.sstables_quarantined");
}

Status StorageEngine::Scrub(std::vector<QuarantinedRange>* out) {
  OBS_SPAN("engine.scrub");
  const ReadSnapshot snap = Snapshot();
  for (const auto& table : snap.tables) {
    OBS_COUNTER_INC("scrub.sstables_checked");
    OBS_COUNTER_ADD("scrub.blocks_checked", table->block_count());
    const Status s = table->VerifyChecksums(media_);
    if (s.IsCorruption()) {
      OBS_COUNTER_INC("scrub.sstables_corrupt");
      MarkQuarantined(table);
      continue;
    }
    MC_RETURN_IF_ERROR(s);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& table : quarantined_) {
    out->push_back(QuarantinedRange{std::string(table->smallest_key()),
                                    std::string(table->largest_key()), table->block_count(),
                                    table->entry_count()});
  }
  return Status::Ok();
}

size_t StorageEngine::DropQuarantined() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (const auto& table : quarantined_) {
    auto it = std::find(sstables_.begin(), sstables_.end(), table);
    if (it != sstables_.end()) {
      sstables_.erase(it);
    }
    if (cache_ != nullptr) {
      cache_->EraseOwner(table->id());
    }
    ++dropped;
  }
  quarantined_.clear();
  return dropped;
}

Status StorageEngine::CompactLocked() {
  // Full merge of all SSTables, newest-first order. For each key keep the
  // newest cell per column; honor partition tombstones; drop dead data.
  // Memtable entries are strictly newer (monotonic timestamps) and stay put.
  OBS_SPAN("engine.compaction");
  OBS_COUNTER_INC("engine.compaction.count");
  std::map<std::string, Row> merged;
  std::map<std::string, uint64_t> ptombs;  // partition -> newest tombstone ts

  for (const auto& table : sstables_) {  // newest first; MergeNewer keeps newest
    const Status s = table->Scan(
        table->smallest_key(), table->largest_key(),
        [&](std::string_view key, const Row& row) {
          merged[std::string(key)].MergeNewer(row);
          return true;
        },
        /*cache=*/nullptr, /*media=*/nullptr);  // compaction reads charged below
    if (s.IsCorruption()) {
      // A bad input block must not wedge the write path, and compacting
      // around it would be unsafe (a partial merge that drops tombstones can
      // resurrect deletes). Skip this compaction; the table set grows until
      // scrub rebuilds the corrupt table from healthy replicas.
      OBS_COUNTER_INC("engine.compaction.skipped_corrupt");
      return Status::Ok();
    }
    MC_RETURN_IF_ERROR(s);
  }
  size_t input_bytes = 0;
  for (const auto& table : sstables_) {
    input_bytes += table->at_rest_bytes();
  }
  OBS_COUNTER_ADD("engine.compaction.input_bytes", input_bytes);
  if (media_ != nullptr && input_bytes > 0) {
    media_->Read(input_bytes);  // one streaming read of all inputs
  }

  // Collect partition tombstones.
  for (const auto& [key, row] : merged) {
    auto decoded = DecodeRowKey(key);
    if (!decoded.ok()) {
      continue;
    }
    auto it = row.cells.find(kPartitionTombstoneColumn);
    if (it != row.cells.end()) {
      auto& ts = ptombs[std::string(decoded->partition)];
      ts = std::max(ts, it->second.timestamp);
    }
  }

  SstableBuilder builder(next_sstable_id_++, options_.sstable);
  for (auto& [key, row] : merged) {
    auto decoded = DecodeRowKey(key);
    if (!decoded.ok()) {
      continue;
    }
    uint64_t ptomb_ts = 0;
    auto pt = ptombs.find(std::string(decoded->partition));
    if (pt != ptombs.end()) {
      ptomb_ts = pt->second;
    }
    Row out;
    for (auto& [name, cell] : row.cells) {
      if (name == kPartitionTombstoneColumn) {
        // Keep the marker: the memtable may still hold older unflushed data?
        // It cannot (timestamps are monotonic), but a marker is a few bytes
        // and keeping it makes the reasoning local. Keep the newest only.
        out.cells[name] = Cell{"", ptomb_ts, true};
        continue;
      }
      if (cell.timestamp <= ptomb_ts) {
        continue;  // covered by partition delete
      }
      if (cell.tombstone) {
        continue;  // full merge: nothing older survives anywhere below
      }
      out.cells[name] = std::move(cell);
    }
    if (!out.empty()) {
      builder.Add(key, out);
    }
  }

  std::vector<std::shared_ptr<Sstable>> old;
  old.swap(sstables_);
  if (builder.entry_count() > 0) {
    sstables_.push_back(builder.Finish(media_, options_.fault_injector));
  }
  if (cache_ != nullptr) {
    for (const auto& table : old) {
      cache_->EraseOwner(table->id());
    }
  }
  return Status::Ok();
}

StorageEngine::ReadSnapshot StorageEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadSnapshot{sstables_, memtable_};
}

Result<uint64_t> StorageEngine::PartitionTombstoneTs(std::string_view partition,
                                                     const ReadSnapshot& snap) {
  const std::string marker_key = EncodeRowKey(partition, "");
  uint64_t ts = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Row* m = snap.memtable->Get(marker_key);
    if (m != nullptr) {
      auto it = m->cells.find(kPartitionTombstoneColumn);
      if (it != m->cells.end()) {
        ts = std::max(ts, it->second.timestamp);
      }
    }
  }
  for (const auto& table : snap.tables) {
    auto row = table->Get(marker_key, cache_, media_);
    if (!row.ok()) {
      return row.status();
    }
    if (row->has_value()) {
      auto it = (*row)->cells.find(kPartitionTombstoneColumn);
      if (it != (*row)->cells.end()) {
        ts = std::max(ts, it->second.timestamp);
      }
    }
  }
  return ts;
}

void StorageEngine::FilterRow(Row* row, uint64_t ptomb_ts) {
  for (auto it = row->cells.begin(); it != row->cells.end();) {
    if (it->first == kPartitionTombstoneColumn || it->second.timestamp <= ptomb_ts ||
        it->second.tombstone) {
      it = row->cells.erase(it);
    } else {
      ++it;
    }
  }
}

Result<std::optional<Row>> StorageEngine::MergedGet(std::string_view encoded_key,
                                                    const ReadSnapshot& snap,
                                                    uint64_t ptomb_ts) {
  Row merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Row* m = snap.memtable->Get(encoded_key);
    if (m != nullptr) {
      merged.MergeNewer(*m);
    }
  }
  for (const auto& table : snap.tables) {
    if (!table->MayContain(encoded_key)) {
      continue;
    }
    auto row = table->Get(encoded_key, cache_, media_);
    if (!row.ok()) {
      return row.status();
    }
    if (row->has_value()) {
      merged.MergeNewer(**row);
    }
  }
  FilterRow(&merged, ptomb_ts);
  if (merged.empty()) {
    return std::optional<Row>();
  }
  return std::optional<Row>(std::move(merged));
}

Result<Row> StorageEngine::Get(std::string_view partition, std::string_view clustering) {
  OBS_SPAN("engine.get");
  const ReadSnapshot snap = Snapshot();
  MC_ASSIGN_OR_RETURN(const uint64_t ptomb, PartitionTombstoneTs(partition, snap));
  MC_ASSIGN_OR_RETURN(std::optional<Row> row,
                      MergedGet(EncodeRowKey(partition, clustering), snap, ptomb));
  if (!row.has_value()) {
    return Status::NotFound();
  }
  return std::move(*row);
}

Result<std::pair<std::string, Row>> StorageEngine::Floor(std::string_view partition,
                                                         std::string_view clustering) {
  const ReadSnapshot snap = Snapshot();
  MC_ASSIGN_OR_RETURN(const uint64_t ptomb, PartitionTombstoneTs(partition, snap));
  const std::string prefix = PartitionPrefix(partition);
  std::string target = EncodeRowKey(partition, clustering);

  // Iterate floor candidates from the top; a candidate that turns out fully
  // deleted steps the search below it.
  for (;;) {
    std::optional<std::string> best;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto mk = snap.memtable->FloorKey(prefix, target);
      if (mk.has_value()) {
        best = std::string(*mk);
      }
    }
    for (const auto& table : snap.tables) {
      auto fk = table->FloorKey(prefix, target, cache_, media_);
      if (!fk.ok()) {
        return fk.status();
      }
      if (fk->has_value() && (!best.has_value() || **fk > *best)) {
        best = std::move(*fk);
      }
    }
    if (!best.has_value() || best->size() <= prefix.size()) {
      // No candidate, or only the partition-marker row (empty clustering).
      return Status::NotFound();
    }
    MC_ASSIGN_OR_RETURN(std::optional<Row> merged, MergedGet(*best, snap, ptomb));
    if (merged.has_value()) {
      auto decoded = DecodeRowKey(*best);
      if (!decoded.ok()) {
        return Status::NotFound();
      }
      return std::make_pair(std::string(decoded->clustering), std::move(*merged));
    }
    // Fully deleted row: restart strictly below it. Encoded keys are
    // prefix-ordered, so the immediate predecessor target is `best` minus one
    // conceptual step; using the key itself with an exclusive bound is
    // simplest: shrink target to just below `best`.
    //
    // Keys are arbitrary bytes; "just below best" = best with last byte
    // decremented and 0xff padding would be wrong for variable-length keys.
    // Instead re-run floor with target = best and skip equality by trimming:
    // we search floor(best_minus_epsilon) by using best with an exclusivity
    // marker — implemented by truncating one trailing byte when it is 0x00,
    // else decrementing it and extending with 0xff. For our key shapes
    // (fixed-width clusterings) decrement-and-pad is exact.
    std::string below = *best;
    while (!below.empty() && static_cast<unsigned char>(below.back()) == 0) {
      below.pop_back();
    }
    if (below.size() <= prefix.size()) {
      return Status::NotFound();
    }
    below.back() = static_cast<char>(static_cast<unsigned char>(below.back()) - 1);
    below.append(8, '\xff');
    target = below;
  }
}

Status StorageEngine::Scan(std::string_view partition, std::string_view lo, std::string_view hi,
                           size_t limit,
                           const std::function<bool(std::string_view, const Row&)>& fn) {
  if (hi < lo) {
    return Status::Ok();
  }
  const ReadSnapshot snap = Snapshot();
  MC_ASSIGN_OR_RETURN(const uint64_t ptomb, PartitionTombstoneTs(partition, snap));
  const std::string klo = EncodeRowKey(partition, lo);
  const std::string khi = EncodeRowKey(partition, hi);

  // Gather-merge: collect per-source rows into a sorted map. Simple and
  // correct; ranges in MiniCrypt are bounded (pack ranges, epoch scans).
  std::map<std::string, Row> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = snap.memtable->entries().lower_bound(klo);
    for (; it != snap.memtable->entries().end() && it->first <= khi; ++it) {
      merged[it->first].MergeNewer(it->second);
    }
  }
  for (const auto& table : snap.tables) {
    const Status s = table->Scan(
        klo, khi,
        [&](std::string_view key, const Row& row) {
          merged[std::string(key)].MergeNewer(row);
          return true;
        },
        cache_, media_);
    MC_RETURN_IF_ERROR(s);
  }

  size_t emitted = 0;
  for (auto& [key, row] : merged) {
    FilterRow(&row, ptomb);
    if (row.empty()) {
      continue;
    }
    auto decoded = DecodeRowKey(key);
    if (!decoded.ok()) {
      continue;
    }
    if (!fn(decoded->clustering, row)) {
      break;
    }
    if (limit != 0 && ++emitted >= limit) {
      break;
    }
  }
  return Status::Ok();
}

Status StorageEngine::ScanEncodedForRepair(
    std::string_view lo, std::string_view hi,
    const std::function<void(std::string_view encoded_key, const Row& row)>& fn) {
  if (hi < lo) {
    return Status::Ok();
  }
  const ReadSnapshot snap = Snapshot();
  std::map<std::string, Row> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = snap.memtable->entries().lower_bound(std::string(lo));
    for (; it != snap.memtable->entries().end() && it->first <= hi; ++it) {
      merged[it->first].MergeNewer(it->second);
    }
  }
  for (const auto& table : snap.tables) {
    // Repair streaming bypasses the block cache (one-shot background reads
    // would only pollute LRU) but still verifies checksums inside Scan.
    const Status s = table->Scan(
        lo, hi,
        [&](std::string_view key, const Row& row) {
          merged[std::string(key)].MergeNewer(row);
          return true;
        },
        /*cache=*/nullptr, /*media=*/nullptr);
    if (s.IsCorruption()) {
      // A corrupt table contributes only the rows whose blocks passed their
      // CRC (everything already merged is verified). Skipping the table —
      // instead of failing the whole stream — keeps this replica useful as a
      // repair source: its intact tables may hold the only healthy copy of a
      // row another replica is rebuilding.
      OBS_COUNTER_INC("repair.source_tables_skipped");
      continue;
    }
    MC_RETURN_IF_ERROR(s);
  }
  for (const auto& [key, row] : merged) {
    fn(key, row);
  }
  return Status::Ok();
}

size_t StorageEngine::AtRestBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& table : sstables_) {
    bytes += table->at_rest_bytes();
  }
  return bytes;
}

size_t StorageEngine::SstableCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sstables_.size();
}

size_t StorageEngine::MemtableBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memtable_->ApproxBytes();
}

size_t StorageEngine::QuarantinedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_.size();
}

Status StorageEngine::PartitionSizes(std::map<std::string, size_t>* out) {
  const std::string hi(96, '\xff');
  return ScanEncodedForRepair("", hi, [&](std::string_view key, const Row& row) {
    auto decoded = DecodeRowKey(key);
    if (!decoded.ok()) {
      return;
    }
    size_t bytes = key.size();
    for (const auto& [name, cell] : row.cells) {
      bytes += name.size() + cell.value.size();
    }
    (*out)[std::string(decoded->partition)] += bytes;
  });
}

}  // namespace minicrypt
