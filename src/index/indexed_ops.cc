// GenericClient's secondary-index entry points. They live here (not in
// src/core) so mc_core stays below mc_index in the link order: the client
// header only forward-declares the index types, and callers that use
// CreateIndex/GetRangeByValue link mc_index.

#include <utility>
#include <vector>

#include "src/common/coding.h"
#include "src/core/generic_client.h"
#include "src/index/indexed_value.h"
#include "src/index/secondary_index.h"
#include "src/obs/metrics.h"

namespace minicrypt {

Status GenericClient::CreateIndex(const SecondaryIndexOptions& iopts) {
  auto index = std::make_shared<SecondaryIndex>(cluster_, options_, key_, iopts);
  MC_RETURN_IF_ERROR(index->CreateBacking());
  index_ = std::move(index);
  // The hook keeps Put() free of index types. Rows whose values don't decode
  // an attribute are simply not indexed (and thus not findable by value).
  index_add_hook_ = [this](uint64_t key, std::string_view value) -> Status {
    auto attr = DecodeIndexedAttr(value);
    if (!attr.has_value()) {
      return Status::Ok();
    }
    return index_->Add(*attr, key);
  };
  return Status::Ok();
}

Result<std::vector<std::pair<uint64_t, std::string>>> GenericClient::GetRangeByValue(
    uint64_t lo, uint64_t hi) {
  if (index_ == nullptr) {
    return Status::InvalidArgument("GetRangeByValue requires CreateIndex first");
  }
  OBS_SPAN("client.get_range_by_value");
  stats_.range_queries.fetch_add(1, std::memory_order_relaxed);
  MC_ASSIGN_OR_RETURN(std::vector<uint64_t> candidates, index_->LookupRange(lo, hi));
  // Re-verify every candidate against the primary table: the index is a
  // superset (index-first writes, never-deleted entries), so NotFound rows
  // and out-of-range attributes are stale entries, not errors.
  std::vector<Result<std::string>> rows = MultiGet(candidates);
  std::vector<std::pair<uint64_t, std::string>> out;
  out.reserve(rows.size());
  uint64_t stale = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].ok()) {
      if (rows[i].status().IsNotFound()) {
        ++stale;  // row deleted (or never committed) after its index entry
        continue;
      }
      return rows[i].status();
    }
    const auto attr = DecodeIndexedAttr(*rows[i]);
    if (!attr.has_value() || *attr < lo || *attr > hi) {
      ++stale;  // attribute rewritten since the entry was added
      continue;
    }
    out.emplace_back(candidates[i], std::move(*rows[i]));
  }
  index_->NoteStaleFiltered(stale);
  return out;  // candidates were sorted by pk; filtering preserves that
}

Status GenericClient::BulkLoadIndexed(const std::vector<std::pair<uint64_t, std::string>>& rows) {
  if (index_ != nullptr) {
    std::vector<std::pair<uint64_t, uint64_t>> attr_pk;
    attr_pk.reserve(rows.size());
    for (const auto& [key, value] : rows) {
      auto attr = DecodeIndexedAttr(value);
      if (attr.has_value()) {
        attr_pk.emplace_back(*attr, key);
      }
    }
    MC_RETURN_IF_ERROR(index_->BulkAdd(std::move(attr_pk)));
  }
  return BulkLoad(rows);
}

}  // namespace minicrypt
