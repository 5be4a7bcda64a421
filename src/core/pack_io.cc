#include "src/core/pack_io.h"

#include "src/obs/metrics.h"

namespace minicrypt {

Row PackRow(const SealedPack& sealed) {
  Row row;
  row.cells[std::string(kPackValueColumn)] = Cell{sealed.envelope, 0, false};
  row.cells[std::string(kPackHashColumn)] = Cell{sealed.hash, 0, false};
  return row;
}

Result<std::pair<std::string_view, std::string_view>> ExtractPackCells(const Row& row) {
  auto v = row.cells.find(kPackValueColumn);
  auto h = row.cells.find(kPackHashColumn);
  if (v == row.cells.end() || h == row.cells.end()) {
    return Status::Corruption("pack row missing value/hash cells");
  }
  return std::make_pair(std::string_view(v->second.value), std::string_view(h->second.value));
}

void RetryBackoff::Sleep(int attempt) {
  uint64_t delay = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    delay = backoff_.NextDelayMicros(attempt);
  }
  if (delay > 0) {
    OBS_COUNTER_ADD("client.backoff_micros", delay);
    clock_->SleepMicros(delay);
  }
}

Result<FetchedPack> PackReader::FetchFloor(std::string_view partition,
                                           std::string_view stored_key, bool allow_ttl,
                                           std::optional<std::string_view> point_key) {
  if (cache_ != nullptr) {
    if (allow_ttl) {
      if (auto fresh = cache_->Floor(table_, partition, stored_key, /*only_fresh=*/true)) {
        cache_->RecordTtlServe();
        return FetchedPack{std::move(fresh->first), std::move(fresh->second.pack),
                           std::move(fresh->second.hash), /*ttl_fresh=*/true};
      }
    }
    // With nothing cached near this key, the full floor read below both
    // answers and seeds the cache (no probe round trip wasted on a sure miss).
    if (auto candidate = cache_->Floor(table_, partition, stored_key, /*only_fresh=*/false)) {
      // Version probe: ask the server floor for the hash cell only — ~40
      // bytes on the wire instead of the envelope.
      auto probe = cluster_->ReadFloorCell(table_, partition, stored_key, kPackHashColumn);
      if (!probe.ok()) {
        if (probe.status().IsNotFound()) {
          // The server has no floor although we cached one — stale beyond
          // repair (e.g. the table was dropped and re-created).
          cache_->Invalidate(table_, partition, candidate->first);
        }
        return probe.status();
      }
      if (auto pack = cache_->ValidateAndGet(table_, partition, probe->first, probe->second)) {
        return FetchedPack{std::move(probe->first), std::move(pack), std::move(probe->second)};
      }
      // Cache miss (or version skew): the probe already routed us to the
      // owning packID, so read that row directly instead of a second floor.
      OBS_SPAN("pack.fetch");
      auto row = cluster_->Read(table_, partition, probe->first);
      if (row.ok()) {
        MC_ASSIGN_OR_RETURN(auto cells, ExtractPackCells(*row));
        // The row's hash may be newer than the probe's; that's fine.
        return Open(partition, std::move(probe->first), cells);
      }
      if (!row.status().IsNotFound()) {
        return row.status();
      }
      // A CL=ONE replica that missed the newest insert can advertise a floor
      // it cannot serve; fall back to the full floor read.
    }
  }
  // Paper Figure 3: SELECT ... WHERE packID <= key ORDER BY packID DESC
  // LIMIT 1, served by the substrate's floor query. The span covers the
  // round trip plus Open (pack.decrypt + pack.decompress, timed separately).
  OBS_SPAN("pack.fetch");
  MC_ASSIGN_OR_RETURN(auto found, cluster_->ReadFloor(table_, partition, stored_key));
  MC_ASSIGN_OR_RETURN(auto cells, ExtractPackCells(found.second));
  // A prefix pack must never reach the cache, so only a cacheless reader
  // decodes up to the point key.
  return Open(partition, std::move(found.first), cells,
              cache_ == nullptr ? point_key : std::nullopt);
}

Result<FetchedPack> PackReader::OpenRow(std::string_view partition, std::string pack_id,
                                        const Row& row) {
  MC_ASSIGN_OR_RETURN(auto cells, ExtractPackCells(row));
  if (cache_ != nullptr) {
    if (auto pack = cache_->ValidateAndGet(table_, partition, pack_id, cells.second)) {
      // Identical bytes by hash: skip the decrypt + decompress.
      return FetchedPack{std::move(pack_id), std::move(pack), std::string(cells.second)};
    }
  }
  return Open(partition, std::move(pack_id), cells);
}

Result<FetchedPack> PackReader::Open(std::string_view partition, std::string pack_id,
                                     std::pair<std::string_view, std::string_view> cells,
                                     std::optional<std::string_view> stop) {
  const std::string_view context = bind_pack_id_ ? std::string_view(pack_id) : std::string_view();
  MC_ASSIGN_OR_RETURN(Pack pack, crypter_->Open(cells.first, context, stop));
  FetchedPack out{std::move(pack_id), std::make_shared<const Pack>(std::move(pack)),
                  std::string(cells.second)};
  if (cache_ != nullptr) {
    cache_->Put(table_, partition, out.pack_id, out.pack, out.hash);
  }
  return out;
}

void PackReader::CacheWritten(std::string_view partition, std::string_view pack_id,
                              const Pack& pack, const std::string& hash) {
  if (cache_ != nullptr) {
    cache_->Put(table_, partition, pack_id, std::make_shared<const Pack>(pack), hash);
  }
}

void PackReader::CacheInvalidate(std::string_view partition, std::string_view pack_id) {
  if (cache_ != nullptr) {
    cache_->Invalidate(table_, partition, pack_id);
  }
}

}  // namespace minicrypt
