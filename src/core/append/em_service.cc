#include "src/core/append/em_service.h"

#include <algorithm>

#include "src/common/coding.h"
#include "src/obs/metrics.h"

namespace minicrypt {

namespace {

Cell PlainCell(std::string value) { return Cell{std::move(value), 0, false}; }

Result<uint64_t> CellAsKey64(const Row& row, std::string_view column) {
  auto it = row.cells.find(column);
  if (it == row.cells.end()) {
    return Status::NotFound("missing cell");
  }
  return DecodeKey64(it->second.value);
}

}  // namespace

std::string EmService::MetaTable(const MiniCryptOptions& options) {
  return options.table + ".meta";
}

EmService::EmService(Cluster* cluster, const MiniCryptOptions& options, std::string replica_id,
                     Clock* clock)
    : cluster_(cluster),
      options_(options),
      meta_table_(MetaTable(options)),
      replica_id_(std::move(replica_id)),
      clock_(clock) {}

EmService::~EmService() { Stop(); }

Status EmService::Bootstrap() {
  MC_RETURN_IF_ERROR(cluster_->CreateTable(meta_table_, /*server_compression=*/false));
  MC_RETURN_IF_ERROR(cluster_->CreateTable(options_.table, /*server_compression=*/false));
  // Seed g_epoch = 1 (epoch 0 is reserved for merged packs). IF NOT EXISTS so
  // only the first replica's seed wins.
  Row seed;
  seed.cells[std::string(kEpochColumn)] = PlainCell(EncodeKey64(1));
  seed.cells[std::string(kAdvanceTsColumn)] = PlainCell(EncodeKey64(clock_->NowMicros()));
  const Status s = cluster_->WriteIf(meta_table_, kEmPartition, kGEpochRow, seed,
                                     LwtCondition::NotExists());
  if (!s.ok() && !s.IsConditionFailed()) {
    return s;
  }
  return Status::Ok();
}

Result<uint64_t> EmService::ReadGlobalEpoch() {
  MC_ASSIGN_OR_RETURN(Row row, cluster_->Read(meta_table_, kEmPartition, kGEpochRow));
  return CellAsKey64(row, kEpochColumn);
}

Status EmService::MaintainMastership(uint64_t now) {
  auto master = cluster_->Read(meta_table_, kEmPartition, kMasterRow);
  if (!master.ok()) {
    if (!master.status().IsNotFound()) {
      return master.status();
    }
    // No master yet: claim with IF NOT EXISTS.
    Row claim;
    claim.cells[std::string(kEmIdColumn)] = PlainCell(replica_id_);
    claim.cells[std::string(kHeartbeatColumn)] = PlainCell(EncodeKey64(now));
    const Status s = cluster_->WriteIf(meta_table_, kEmPartition, kMasterRow, claim,
                                       LwtCondition::NotExists());
    is_master_ = s.ok();
    if (!s.ok() && !s.IsConditionFailed()) {
      return s;
    }
    return Status::Ok();
  }

  auto id = master->cells.find(kEmIdColumn);
  auto hb = CellAsKey64(*master, kHeartbeatColumn);
  const std::string current_id = id != master->cells.end() ? id->second.value : "";
  const uint64_t last_hb = hb.ok() ? *hb : 0;

  if (current_id == replica_id_) {
    // Refresh our heartbeat, conditioned on still being master.
    Row refresh;
    refresh.cells[std::string(kEmIdColumn)] = PlainCell(replica_id_);
    refresh.cells[std::string(kHeartbeatColumn)] = PlainCell(EncodeKey64(now));
    const Status s =
        cluster_->WriteIf(meta_table_, kEmPartition, kMasterRow, refresh,
                          LwtCondition::CellEquals(std::string(kEmIdColumn), replica_id_));
    is_master_ = s.ok();
    if (!s.ok() && !s.IsConditionFailed()) {
      return s;
    }
    return Status::Ok();
  }

  // Someone else is master; take over only when their heartbeat is stale
  // (paper §6.2). The CAS on the id cell arbitrates concurrent takeovers.
  if (now > last_hb && now - last_hb > options_.client_timeout_micros) {
    Row takeover;
    takeover.cells[std::string(kEmIdColumn)] = PlainCell(replica_id_);
    takeover.cells[std::string(kHeartbeatColumn)] = PlainCell(EncodeKey64(now));
    const Status s =
        cluster_->WriteIf(meta_table_, kEmPartition, kMasterRow, takeover,
                          LwtCondition::CellEquals(std::string(kEmIdColumn), current_id));
    is_master_ = s.ok();
    if (!s.ok() && !s.IsConditionFailed()) {
      return s;
    }
  } else {
    is_master_ = false;
  }
  return Status::Ok();
}

Status EmService::AdvanceEpochIfDue(uint64_t now) {
  MC_ASSIGN_OR_RETURN(Row row, cluster_->Read(meta_table_, kEmPartition, kGEpochRow));
  MC_ASSIGN_OR_RETURN(uint64_t g_epoch, CellAsKey64(row, kEpochColumn));
  auto advance_ts = CellAsKey64(row, kAdvanceTsColumn);
  const uint64_t last_advance = advance_ts.ok() ? *advance_ts : 0;
  if (now < last_advance + options_.epoch_micros) {
    return Status::Ok();
  }
  // CAS on the stored epoch value: concurrent masters advance it exactly once
  // (paper §6.2: multiple masters may safely update the global epoch).
  Row next;
  next.cells[std::string(kEpochColumn)] = PlainCell(EncodeKey64(g_epoch + 1));
  next.cells[std::string(kAdvanceTsColumn)] = PlainCell(EncodeKey64(now));
  const Status s =
      cluster_->WriteIf(meta_table_, kEmPartition, kGEpochRow, next,
                        LwtCondition::CellEquals(std::string(kEpochColumn), EncodeKey64(g_epoch)));
  if (!s.ok() && !s.IsConditionFailed()) {
    return s;
  }
  if (s.ok()) {
    OBS_COUNTER_INC("em.epoch.advanced");
    // Open a stats row for the newly closed epoch so mergers can find it.
    Row stats = MakeStatsRow(EpochStatus::kNotMerged, "", std::nullopt);
    const Status st = cluster_->WriteIf(meta_table_, kStatsPartition, EncodeKey64(g_epoch),
                                        stats, LwtCondition::NotExists());
    if (!st.ok() && !st.IsConditionFailed()) {
      return st;
    }
  }
  return Status::Ok();
}

Status EmService::RecordMinKeys(uint64_t g_epoch) {
  // For every closed epoch whose stats row lacks a min key, read the epoch's
  // first row and record it. Closed means epoch <= g_epoch - 1.
  MC_ASSIGN_OR_RETURN(auto stats_rows, cluster_->ReadRange(meta_table_, kStatsPartition,
                                                           EncodeKey64(1), EncodeKey64(~0ULL)));
  for (const auto& [clustering, row] : stats_rows) {
    auto stats = ParseStatsRow(clustering, row);
    if (!stats.ok() || stats->min_key.has_value() || stats->epoch >= g_epoch ||
        stats->status == EpochStatus::kDeleted) {
      continue;
    }
    MC_ASSIGN_OR_RETURN(auto first,
                        cluster_->ReadRange(options_.table, EpochPartition(stats->epoch),
                                            EncodeKey64(0), EncodeKey64(~0ULL), /*limit=*/1));
    if (first.empty()) {
      continue;  // idle epoch, nothing to record yet
    }
    MC_ASSIGN_OR_RETURN(uint64_t min_key, DecodeKey64(first.front().first));
    Row update;
    update.cells[std::string(kMinKeyColumn)] = PlainCell(EncodeKey64(min_key));
    // Blind add of the min-key cell: the value is deterministic (the epoch is
    // closed), so concurrent recorders write identical bytes.
    MC_RETURN_IF_ERROR(
        cluster_->Write(meta_table_, kStatsPartition, clustering, update));
  }
  return Status::Ok();
}

Result<std::vector<std::string>> EmService::LiveClients(uint64_t now) {
  MC_ASSIGN_OR_RETURN(auto rows, cluster_->ReadRange(meta_table_, kClientsPartition, "",
                                                     std::string(64, '\xff')));
  std::vector<std::string> live;
  for (const auto& [client_id, row] : rows) {
    auto hb = CellAsKey64(row, kHeartbeatColumn);
    if (hb.ok() && now >= *hb && now - *hb <= options_.client_timeout_micros) {
      live.push_back(std::string(client_id));
    }
  }
  return live;
}

Status EmService::AssignEpochs(uint64_t g_epoch, uint64_t now) {
  MC_ASSIGN_OR_RETURN(std::vector<std::string> live, LiveClients(now));
  if (live.empty()) {
    return Status::Ok();
  }
  std::sort(live.begin(), live.end());
  MC_ASSIGN_OR_RETURN(auto stats_rows, cluster_->ReadRange(meta_table_, kStatsPartition,
                                                           EncodeKey64(1), EncodeKey64(~0ULL)));
  for (const auto& [clustering, row] : stats_rows) {
    auto stats = ParseStatsRow(clustering, row);
    if (!stats.ok() || stats->status != EpochStatus::kNotMerged) {
      continue;
    }
    // Mergeable epochs are those at least two behind the global epoch.
    if (stats->epoch + 2 > g_epoch) {
      continue;
    }
    const bool assignee_alive =
        !stats->client.empty() && std::binary_search(live.begin(), live.end(), stats->client);
    if (assignee_alive) {
      continue;
    }
    // Assign (or re-assign from a dead client) by epoch number: a tick usually
    // finds one newly mergeable epoch, and consecutive epochs go to
    // consecutive live clients.
    const std::string& chosen = live[stats->epoch % live.size()];
    Row update;
    update.cells[std::string(kClientColumn)] = PlainCell(chosen);
    MC_RETURN_IF_ERROR(cluster_->Write(meta_table_, kStatsPartition, clustering, update));
  }
  return Status::Ok();
}

Status EmService::Tick() {
  OBS_SPAN("em.tick");
  const uint64_t now = clock_->NowMicros();
  MC_RETURN_IF_ERROR(MaintainMastership(now));
  if (!is_master_) {
    return Status::Ok();
  }
  MC_RETURN_IF_ERROR(AdvanceEpochIfDue(now));
  MC_ASSIGN_OR_RETURN(uint64_t g_epoch, ReadGlobalEpoch());
  MC_RETURN_IF_ERROR(RecordMinKeys(g_epoch));
  return AssignEpochs(g_epoch, now);
}

void EmService::Start(uint64_t period_micros) {
  Stop();
  task_ = std::make_unique<PeriodicTask>([this] { (void)Tick(); }, period_micros);
}

void EmService::Stop() { task_.reset(); }

}  // namespace minicrypt
