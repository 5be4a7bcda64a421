#include "src/core/generic_client.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/common/coding.h"
#include "src/kvstore/fault_injector.h"
#include "src/obs/metrics.h"

namespace minicrypt {

namespace {

// Human-readable pack id for error messages: the decoded key when the id is
// a plain encoded key, hex otherwise (OPE image / PRF output).
std::string FormatPackId(std::string_view id) {
  if (id.empty()) {
    return "<none>";
  }
  if (auto key = DecodeKey64(id); key.ok()) {
    return std::to_string(*key);
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "0x";
  for (const char c : id) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

constexpr uint64_t kDefaultJitterSeed = 0x6D696E6963727970ULL;  // "minicryp"

void CountGetRetry() { OBS_COUNTER_INC("client.get.unavailable_retries"); }

// Rotation bounds (docs/KEY_ROTATION.md). Re-seal attempts per pack: LWT
// races and Unavailable replicas both consume attempts before the rotation
// pauses with Unavailable — foreground traffic always wins over rotation.
constexpr int kResealAttempts = 8;
// Wall-clock bound on waiting for in-flight old-epoch seals to drain before
// the final verify + retire; an expired wait pauses the rotation.
constexpr uint64_t kDrainTimeoutMillis = 30'000;
// Verify sweeps: each re-seals any pack still below the target epoch, and a
// sweep that finds none proves the rotation complete.
constexpr int kVerifyPasses = 8;

// Rotation metadata lives beside the data it describes, in a reserved
// partition: PartitionLabel() only ever produces "p<N>", so "rotation" is
// invisible to range queries, pack-integrity sweeps, and the repack walk.
constexpr std::string_view kRotationPartition = "rotation";
constexpr std::string_view kRotationStateKey = "state";
constexpr std::string_view kRotationStateColumn = "s";

std::string EncodeRotationState(const KeyRotationState& rs) {
  return "v1|" + std::to_string(rs.target) + "|" + std::to_string(rs.stage) + "|" +
         std::to_string(rs.cursor) + "|" + std::to_string(rs.retired_below);
}

Result<KeyRotationState> ParseRotationState(std::string_view s) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t bar = s.find('|', start);
    fields.push_back(s.substr(start, bar == std::string_view::npos ? bar : bar - start));
    if (bar == std::string_view::npos) {
      break;
    }
    start = bar + 1;
  }
  if (fields.size() != 5 || fields[0] != "v1") {
    return Status::Corruption("unparseable rotation state record");
  }
  auto parse_u64 = [](std::string_view f, uint64_t* out) {
    *out = 0;
    if (f.empty()) {
      return false;
    }
    for (const char c : f) {
      if (c < '0' || c > '9') {
        return false;
      }
      *out = *out * 10 + static_cast<uint64_t>(c - '0');
    }
    return true;
  };
  KeyRotationState rs;
  uint64_t stage = 0;
  uint64_t cursor = 0;
  if (!parse_u64(fields[1], &rs.target) || !parse_u64(fields[2], &stage) ||
      !parse_u64(fields[3], &cursor) || !parse_u64(fields[4], &rs.retired_below) ||
      stage > KeyRotationState::kStageVerify) {
    return Status::Corruption("unparseable rotation state record");
  }
  rs.stage = static_cast<int>(stage);
  rs.cursor = static_cast<int>(cursor);
  return rs;
}

}  // namespace

GenericClient::GenericClient(Cluster* cluster, const MiniCryptOptions& options,
                             const SymmetricKey& key)
    : GenericClient(cluster, options, Keyring::FromMaster(key)) {}

GenericClient::GenericClient(Cluster* cluster, const MiniCryptOptions& options,
                             const SymmetricKey& key, std::shared_ptr<PackCache> cache)
    : GenericClient(cluster, options, Keyring::FromMaster(key), std::move(cache)) {}

GenericClient::GenericClient(Cluster* cluster, const MiniCryptOptions& options,
                             std::shared_ptr<Keyring> keyring)
    : GenericClient(cluster, options, std::move(keyring),
                    PackCache::FromOptions(options.cache_capacity_bytes, options.cache_ttl_micros,
                                           cluster->options().clock)) {}

GenericClient::GenericClient(Cluster* cluster, const MiniCryptOptions& options,
                             std::shared_ptr<Keyring> keyring, std::shared_ptr<PackCache> cache)
    : cluster_(cluster),
      options_(options),
      keyring_(std::move(keyring)),
      key_(keyring_->master()),
      crypter_(options, keyring_),
      // PRF-bucket mode has no floor order for the cache probe to route on.
      cache_(options.encrypt_pack_ids ? nullptr : std::move(cache)),
      reader_(cluster, &crypter_, options.table, cache_.get(), /*bind_pack_id=*/true),
      retry_(options,
             options.retry_jitter_seed != 0 ? options.retry_jitter_seed : kDefaultJitterSeed,
             cluster->options().clock) {
  if (options_.encrypt_pack_ids) {
    packid_cipher_.emplace(options_, key_);
  }
  if (options_.ope_pack_ids) {
    ope_.emplace(key_.Derive("packid-ope:" + options_.table));
  }
}

std::string GenericClient::StoredKeyFor(std::string_view encoded_key) const {
  if (!ope_.has_value()) {
    return std::string(encoded_key);
  }
  auto key = DecodeKey64(encoded_key);
  if (!key.ok()) {
    return std::string(encoded_key);
  }
  return ope_->Encrypt(*key);
}

Status GenericClient::CreateTable() {
  // (Re)creating the table starts a fresh measurement window: counters always
  // describe work against the current incarnation of the table.
  stats_.Reset();
  // Client-encrypted tables gain nothing from server-side compression.
  return cluster_->CreateTable(options_.table, /*server_compression=*/false);
}

std::string GenericClient::StoredPackId(std::string_view partition, const Pack& pack,
                                        std::string_view fallback_id) const {
  if (packid_cipher_.has_value()) {
    // Static-bucket mode: the stored ID is the PRF of the bucket that the
    // pack's keys belong to.
    auto min_key = pack.MinKey();
    const std::string_view id_source = min_key.has_value() ? *min_key : fallback_id;
    auto key = DecodeKey64(id_source);
    if (key.ok()) {
      return packid_cipher_->EncryptBucket(packid_cipher_->BucketFor(*key));
    }
  }
  auto min_key = pack.MinKey();
  return StoredKeyFor(min_key.has_value() ? *min_key : fallback_id);
}

Result<FetchedPack> GenericClient::FetchPackFor(std::string_view partition,
                                                std::string_view encoded_key, bool allow_ttl,
                                                bool point) {
  if (!packid_cipher_.has_value()) {
    // In OPE mode the floor runs on the (order-preserving) images, which is
    // the whole point; a point decode stops at the plaintext key the pack
    // holds, never at its image.
    return reader_.FetchFloor(partition, StoredKeyFor(encoded_key), allow_ttl,
                              point ? std::optional<std::string_view>(encoded_key)
                                    : std::nullopt);
  }
  // Direct lookup of the static bucket's PRF image (no order available).
  OBS_SPAN("pack.fetch");
  MC_ASSIGN_OR_RETURN(uint64_t key, DecodeKey64(encoded_key));
  std::string stored_id = packid_cipher_->EncryptBucket(packid_cipher_->BucketFor(key));
  MC_ASSIGN_OR_RETURN(Row row, cluster_->Read(options_.table, partition, stored_id));
  return reader_.OpenRow(partition, std::move(stored_id), row);
}

Result<FetchedPack> GenericClient::FetchWithRetries(std::string_view partition,
                                                    std::string_view encoded_key, bool allow_ttl,
                                                    bool point) {
  auto fetch = [&](bool ttl) {
    return retry_.WhileUnavailable(
        options_.max_put_retries,
        [&] { return FetchPackFor(partition, encoded_key, ttl, point); }, CountGetRetry);
  };
  auto fetched = fetch(allow_ttl);
  if (fetched.ok() && fetched->ttl_fresh && !fetched->pack->Find(encoded_key).has_value()) {
    // A TTL-fresh pack may predate a split that moved this key to a newer
    // pack: confirm the miss against the server before reporting NotFound.
    fetched = fetch(/*ttl=*/false);
  }
  return fetched;
}

Result<std::string> GenericClient::Get(uint64_t key) {
  OBS_SPAN("client.get");
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  const std::string encoded = EncodeKey64(key);
  const std::string partition = PartitionForKey(encoded, options_.hash_partitions);
  auto fetched = FetchWithRetries(partition, encoded, /*allow_ttl=*/true, /*point=*/true);
  if (!fetched.ok()) {
    if (fetched.status().IsUnavailable()) {
      return Status::Unavailable("get ran out of retries: " + fetched.status().message() +
                                 " (key=" + std::to_string(key) + ")");
    }
    return fetched.status();
  }
  auto value = fetched->pack->Find(encoded);
  if (!value.has_value()) {
    return Status::NotFound("key not present in its pack");
  }
  return std::string(*value);
}

std::vector<Result<std::string>> GenericClient::MultiGet(const std::vector<uint64_t>& keys) {
  OBS_SPAN("client.multiget");
  stats_.multigets.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNTER_INC("client.multiget.batches");
  OBS_COUNTER_ADD("client.multiget.keys", keys.size());
  std::vector<Result<std::string>> out(keys.size(), Status::Internal("multiget slot unresolved"));
  if (keys.empty()) {
    return out;
  }

  // Unique keys -> the input slots they fill, so duplicates share one lookup.
  std::map<uint64_t, std::vector<size_t>> slots;
  for (size_t i = 0; i < keys.size(); ++i) {
    slots[keys[i]].push_back(i);
  }
  auto resolve = [&](uint64_t key, const Result<std::string>& r) {
    for (size_t slot : slots[key]) {
      out[slot] = r;
    }
  };

  if (packid_cipher_.has_value()) {
    // Static-bucket mode: every key of one bucket lives in the same pack row,
    // so the batch groups by (partition, bucket) and reads each row once.
    std::map<std::pair<std::string, uint64_t>, std::vector<uint64_t>> groups;
    for (const auto& [key, unused] : slots) {
      const std::string encoded = EncodeKey64(key);
      groups[{PartitionForKey(encoded, options_.hash_partitions), packid_cipher_->BucketFor(key)}]
          .push_back(key);
    }
    for (const auto& [group, gkeys] : groups) {
      OBS_COUNTER_INC("client.multiget.packs_fetched");
      auto fetched = FetchWithRetries(group.first, EncodeKey64(gkeys.front()), /*allow_ttl=*/false);
      for (const uint64_t k : gkeys) {
        if (!fetched.ok()) {
          resolve(k, fetched.status());
          continue;
        }
        auto v = fetched->pack->Find(EncodeKey64(k));
        resolve(k, v.has_value() ? Result<std::string>(std::string(*v))
                                 : Status::NotFound("key not present in its pack"));
      }
    }
    return out;
  }

  // Floor-addressed modes: group unique keys by partition, then resolve each
  // partition's keys from largest to smallest with iterated floor fetches.
  // The pack owning the largest unresolved key is authoritative for every
  // unresolved key down to its packID — floor(k_max) = P means no pack lies
  // in (P.id, k_max] — so one fetch + decrypt serves the whole group.
  std::map<std::string, std::vector<uint64_t>> by_partition;  // values ascending
  for (const auto& [key, unused] : slots) {
    by_partition[PartitionForKey(EncodeKey64(key), options_.hash_partitions)].push_back(key);
  }
  for (const auto& [partition, pkeys] : by_partition) {
    size_t remaining = pkeys.size();
    while (remaining > 0) {
      const uint64_t top = pkeys[remaining - 1];
      const std::string encoded_top = EncodeKey64(top);
      auto fetched = FetchWithRetries(partition, encoded_top, /*allow_ttl=*/true);
      if (!fetched.ok()) {
        if (fetched.status().IsNotFound()) {
          // No pack at or below `top` in this partition: every smaller key
          // necessarily misses too (matches what sequential Gets would say).
          while (remaining > 0) {
            resolve(pkeys[--remaining], Status::NotFound("no pack at or below key"));
          }
        } else {
          // Hard or exhausted-transient failure; it would hit every remaining
          // key of this partition the same way.
          while (remaining > 0) {
            resolve(pkeys[--remaining], fetched.status());
          }
        }
        break;
      }
      OBS_COUNTER_INC("client.multiget.packs_fetched");
      // Serve every unresolved key this pack is authoritative for.
      while (remaining > 0 &&
             StoredKeyFor(EncodeKey64(pkeys[remaining - 1])) >= fetched->pack_id) {
        const uint64_t k = pkeys[remaining - 1];
        const std::string encoded = EncodeKey64(k);
        auto v = fetched->pack->Find(encoded);
        if (!v.has_value() && fetched->ttl_fresh) {
          // Same guard as Get: confirm a TTL-fresh miss for this key against
          // the server (the key may have moved to a newer pack).
          auto confirm = FetchWithRetries(partition, encoded, /*allow_ttl=*/false);
          if (confirm.ok()) {
            auto cv = confirm->pack->Find(encoded);
            resolve(k, cv.has_value() ? Result<std::string>(std::string(*cv))
                                      : Status::NotFound("key not present in its pack"));
          } else if (confirm.status().IsNotFound()) {
            resolve(k, Status::NotFound("no pack at or below key"));
          } else {
            resolve(k, confirm.status());
          }
          --remaining;
          continue;
        }
        resolve(k, v.has_value() ? Result<std::string>(std::string(*v))
                                 : Status::NotFound("key not present in its pack"));
        --remaining;
      }
    }
  }
  return out;
}

Result<std::vector<std::pair<uint64_t, std::string>>> GenericClient::GetRange(uint64_t low,
                                                                              uint64_t high) {
  OBS_SPAN("client.range");
  stats_.range_queries.fetch_add(1, std::memory_order_relaxed);
  if (packid_cipher_.has_value()) {
    return Status::InvalidArgument("range queries unsupported with encrypted packIDs");
  }
  if (low > high) {
    return Status::InvalidArgument("low > high");
  }
  const std::string klo = EncodeKey64(low);
  const std::string khi = EncodeKey64(high);
  // Server-side bounds live in stored-packID space (identity, or OPE images).
  const std::string slo = StoredKeyFor(klo);
  const std::string shi = StoredKeyFor(khi);

  std::vector<std::pair<uint64_t, std::string>> out;
  // Paper §7: a range query is issued against every hash partition, because
  // contiguous keys are spread across them.
  for (int p = 0; p < options_.hash_partitions; ++p) {
    const std::string partition = PartitionLabel(p);
    auto rows = retry_.WhileUnavailable(
        options_.max_put_retries,
        [&] { return cluster_->ReadRange(options_.table, partition, slo, shi); }, CountGetRetry);
    if (!rows.ok()) {
      return rows.status();
    }

    // (stored packID, pack); packs are shared with the cache when it's on.
    std::vector<std::pair<std::string, std::shared_ptr<const Pack>>> packs;
    packs.reserve(rows->size() + 1);
    bool need_floor = true;  // paper Figure 4, line 5
    for (auto& [id, row] : *rows) {
      if (id == slo) {
        need_floor = false;
      }
      MC_ASSIGN_OR_RETURN(FetchedPack opened, reader_.OpenRow(partition, id, row));
      packs.emplace_back(id, std::move(opened.pack));
    }
    if (need_floor) {
      auto fetched = FetchPackFor(partition, klo, /*allow_ttl=*/false);
      if (fetched.ok()) {
        // Skip if it duplicates a pack already in the result set.
        const bool duplicate =
            !rows->empty() && fetched->pack_id >= slo && fetched->pack_id <= shi;
        if (!duplicate) {
          packs.emplace_back(fetched->pack_id, std::move(fetched->pack));
        }
      } else if (!fetched.status().IsNotFound()) {
        return fetched.status();
      }
    }
    // A key is only emitted from its *authoritative* pack — the one a floor
    // query would route it to (largest packID <= key). After an incomplete
    // split (Figure 6, interrupted between steps 3 and 5) the left pack still
    // holds stale copies of the right half; point reads never see them, and
    // range reads must apply the same routing or they would surface stale
    // values and resurrect deleted keys.
    std::vector<std::string> ids;
    ids.reserve(packs.size());
    for (const auto& [id, pack] : packs) {
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    for (const auto& [id, pack] : packs) {
      for (const auto& entry : pack->entries()) {
        if (entry.key >= klo && entry.key <= khi) {
          auto it = std::upper_bound(ids.begin(), ids.end(), StoredKeyFor(entry.key));
          if (it == ids.begin() || *(it - 1) != id) {
            continue;  // shadowed copy; the authoritative pack carries this key
          }
          auto key = DecodeKey64(entry.key);
          if (!key.ok()) {
            return key.status();
          }
          out.emplace_back(*key, entry.value);
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

Status GenericClient::InsertNewPack(std::string_view partition, std::string_view pack_id,
                                    const Pack& pack) {
  MC_ASSIGN_OR_RETURN(SealedPack sealed, crypter_.Seal(pack, pack_id));
  const Status s = cluster_->WriteIf(options_.table, partition, pack_id, PackRow(sealed),
                                     LwtCondition::NotExists());
  if (s.ok()) {
    // Only an acked insert may be cached: sealing is randomized, so a lost
    // race means the stored envelope hash is a peer's, not ours.
    reader_.CacheWritten(partition, pack_id, pack, sealed.hash);
  } else if (s.IsUnavailable()) {
    reader_.CacheInvalidate(partition, pack_id);  // ambiguous: unknown stored version
  }
  return s;
}

Status GenericClient::SplitPack(std::string_view partition, const FetchedPack& fetched) {
  OBS_SPAN("pack.split");
  OBS_COUNTER_INC("client.splits");
  stats_.splits.fetch_add(1, std::memory_order_relaxed);
  MC_ASSIGN_OR_RETURN(auto halves, fetched.pack->SplitDeterministic());
  const Pack& left = halves.first;
  const Pack& right = halves.second;

  // Bound on resolving one split step's ambiguous outcomes before handing
  // the whole operation back to the outer retry loop.
  constexpr int kSplitStepAttempts = 8;

  // Figure 6 step 3: INSERT right IF NOT EXISTS. Losing the race is fine —
  // the winner inserted bytes identical to ours (deterministic split). An
  // ambiguous (Unavailable) outcome must be resolved before step 5, though:
  // truncating the left pack while the right one does not exist would lose
  // the tail keys.
  auto right_id = right.MinKey();
  if (!right_id.has_value()) {
    return Status::Internal("split produced empty right pack");
  }
  const std::string right_stored = StoredKeyFor(*right_id);
  Status s = Status::Ok();
  bool right_in_place = false;
  for (int attempt = 0; attempt < kSplitStepAttempts; ++attempt) {
    if (attempt > 0) {
      retry_.Sleep(attempt - 1);
    }
    s = InsertNewPack(partition, right_stored, right);
    if (s.ok() || s.IsConditionFailed() || s.IsAlreadyExists()) {
      right_in_place = true;
      break;
    }
    if (!s.IsUnavailable()) {
      return s;
    }
    OBS_COUNTER_INC("client.lwt.ambiguous");
    auto probe = cluster_->Read(options_.table, partition, right_stored);
    if (probe.ok()) {
      right_in_place = true;  // our ambiguous insert (or a peer's) landed
      break;
    }
    if (!probe.status().IsNotFound() && !probe.status().IsUnavailable()) {
      return probe.status();
    }
  }
  if (!right_in_place) {
    return s;
  }

  if (split_fail_point_ == SplitFailPoint::kAfterRightInsert) {
    // Simulated client crash between steps 3 and 5 of Figure 6: the right
    // half now exists twice (new pack + stale copy in the original). The
    // paper argues this is safe; tests exercise it.
    return Status::Aborted("injected split failure");
  }

  // Figure 6 step 5: UPDATE left IF hash = h, driven to completion across
  // ambiguous outcomes — an abandoned truncation leaves the right half
  // duplicated in this pack, where range queries could surface the stale
  // copies.
  MC_ASSIGN_OR_RETURN(SealedPack sealed_left, crypter_.Seal(left, fetched.pack_id));
  for (int attempt = 0; attempt < kSplitStepAttempts; ++attempt) {
    if (attempt > 0) {
      retry_.Sleep(attempt - 1);
    }
    s = cluster_->WriteIf(options_.table, partition, fetched.pack_id, PackRow(sealed_left),
                          LwtCondition::CellEquals(std::string(kPackHashColumn), fetched.hash));
    // ConditionFailed: the pack changed under us. An oversized pack is only
    // ever changed by truncation (every writer splits before mutating one),
    // so another splitter — or our own ambiguously-applied attempt — already
    // finished the job.
    if (s.ok()) {
      reader_.CacheWritten(partition, fetched.pack_id, left, sealed_left.hash);
      return Status::Ok();
    }
    if (s.IsConditionFailed()) {
      // A peer truncated it with their own (randomized) seal: our cached
      // pre-split image is stale.
      reader_.CacheInvalidate(partition, fetched.pack_id);
      return Status::Ok();
    }
    if (!s.IsUnavailable()) {
      return s;
    }
    OBS_COUNTER_INC("client.lwt.ambiguous");
    reader_.CacheInvalidate(partition, fetched.pack_id);
    auto row = cluster_->Read(options_.table, partition, fetched.pack_id);
    if (!row.ok()) {
      if (row.status().IsUnavailable()) {
        continue;
      }
      return row.status();
    }
    MC_ASSIGN_OR_RETURN(auto cells, ExtractPackCells(*row));
    if (cells.second != fetched.hash) {
      return Status::Ok();  // hash moved: the truncation (ours or a peer's) applied
    }
  }
  return s;
}

Status GenericClient::TryMutate(uint64_t key, const std::function<void(Pack*)>& mutate,
                                const std::function<bool(const Pack&)>& applied,
                                bool insert_if_new, bool* retry, std::string* pack_id) {
  *retry = false;
  const std::string encoded = EncodeKey64(key);
  const std::string partition = PartitionForKey(encoded, options_.hash_partitions);

  auto fetched = FetchPackFor(partition, encoded, /*allow_ttl=*/false);
  if (!fetched.ok()) {
    if (!fetched.status().IsNotFound()) {
      return fetched.status();
    }
    if (!insert_if_new) {
      return Status::Ok();  // deleting a key that has no pack: nothing to do
    }
    // No pack at or below the key in this partition: create a fresh pack
    // whose ID is the key itself.
    Pack fresh;
    mutate(&fresh);
    if (fresh.empty()) {
      return Status::Ok();
    }
    const std::string stored_id = StoredPackId(partition, fresh, encoded);
    if (pack_id != nullptr) {
      *pack_id = stored_id;
    }
    Status s = InsertNewPack(partition, stored_id, fresh);
    if (s.IsConditionFailed() || s.IsAlreadyExists()) {
      *retry = true;  // another client created it first; re-read and merge in
      return Status::Ok();
    }
    if (s.IsUnavailable()) {
      // Ambiguous outcome of INSERT IF NOT EXISTS: the pack may or may not
      // exist now. Re-reading (the retry) resolves it either way — if our
      // insert landed, the next attempt finds the pack and verifies.
      OBS_COUNTER_INC("client.lwt.ambiguous");
      *retry = true;
      return Status::Ok();
    }
    return s;
  }
  if (pack_id != nullptr) {
    *pack_id = fetched->pack_id;
  }

  // Paper Figure 5 line 4: split first when the pack is oversized, then
  // retry the original operation.
  if (!packid_cipher_.has_value() && fetched->pack->size() > options_.EffectiveMaxKeys()) {
    MC_RETURN_IF_ERROR(SplitPack(partition, *fetched));
    *retry = true;
    return Status::Ok();
  }

  Pack updated = *fetched->pack;
  mutate(&updated);
  MC_ASSIGN_OR_RETURN(SealedPack sealed, crypter_.Seal(updated, fetched->pack_id));
  if (options_.blind_pack_writes) {
    // Figure 10 ablation: read-modify-blind-write (no update-if, no safety).
    const Status s =
        cluster_->Write(options_.table, partition, fetched->pack_id, PackRow(sealed));
    if (s.ok()) {
      reader_.CacheWritten(partition, fetched->pack_id, updated, sealed.hash);
    } else {
      reader_.CacheInvalidate(partition, fetched->pack_id);
    }
    return s;
  }
  const Status s =
      cluster_->WriteIf(options_.table, partition, fetched->pack_id, PackRow(sealed),
                        LwtCondition::CellEquals(std::string(kPackHashColumn), fetched->hash));
  if (s.ok()) {
    // Acked LWT: the server now stores exactly `updated` under sealed.hash.
    reader_.CacheWritten(partition, fetched->pack_id, updated, sealed.hash);
    return s;
  }
  if (s.IsConditionFailed()) {
    // A concurrent writer moved the pack: our cached image is stale.
    reader_.CacheInvalidate(partition, fetched->pack_id);
    *retry = true;  // re-read (Figure 5)
    return Status::Ok();
  }
  if (s.IsUnavailable()) {
    // Ambiguous LWT outcome: the conditional update may have applied before
    // the reported timeout. A blind retry could double-apply a non-idempotent
    // mutation or duplicate a split, so re-read and verify by pack *content*
    // (sealing is randomized — envelope bytes never match across attempts).
    // The cache entry is dropped either way: we cannot know which version the
    // server holds.
    OBS_COUNTER_INC("client.lwt.ambiguous");
    reader_.CacheInvalidate(partition, fetched->pack_id);
    auto reread = FetchPackFor(partition, encoded, /*allow_ttl=*/false);
    if (reread.ok()) {
      if (applied(*reread->pack)) {
        OBS_COUNTER_INC("client.lwt.ambiguous_applied");
        return Status::Ok();  // our write landed; the lost ack was the fault
      }
      *retry = true;
      return Status::Ok();
    }
    if (reread.status().IsNotFound() || reread.status().IsUnavailable()) {
      *retry = true;  // can't tell yet; back off and try again
      return Status::Ok();
    }
    return reread.status();
  }
  return s;
}

Status GenericClient::MutateWithRetries(uint64_t key, const std::function<void(Pack*)>& mutate,
                                        const std::function<bool(const Pack&)>& applied,
                                        bool insert_if_new, std::string_view op_name) {
  std::string pack_id;
  Status last = Status::Ok();
  for (int attempt = 0; attempt < options_.max_put_retries; ++attempt) {
    if (attempt > 0) {
      retry_.Sleep(attempt - 1);
    }
    bool retry = false;
    const Status s = TryMutate(key, mutate, applied, insert_if_new, &retry, &pack_id);
    if (s.ok()) {
      if (!retry) {
        return Status::Ok();
      }
      last = Status::Ok();
      OBS_COUNTER_INC("client.put.retries");
      stats_.put_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!s.IsUnavailable()) {
      return s;  // non-retryable (corruption, invalid argument, ...)
    }
    last = s;
    OBS_COUNTER_INC("client.put.unavailable_retries");
    // Same convention as the contention path above: every scheduled retry
    // counts, whatever forced it (see GenericClientStats::put_retries).
    stats_.put_retries.fetch_add(1, std::memory_order_relaxed);
  }
  OBS_COUNTER_INC("client.put.aborts");
  const std::string where =
      " (key=" + std::to_string(key) + ", pack=" + FormatPackId(pack_id) + ")";
  if (!last.ok()) {
    return Status::Unavailable(std::string(op_name) + " ran out of retries: " + last.message() +
                               where);
  }
  return Status::Aborted(std::string(op_name) + " exceeded retry budget under contention" +
                         where);
}

Status GenericClient::Put(uint64_t key, std::string_view value) {
  OBS_SPAN("client.put");
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  // Index-first maintenance: the index entry lands before the primary row,
  // so the index is always a superset of live rows and GetRangeByValue can
  // filter stale entries instead of ever missing a live one.
  if (index_add_hook_) {
    MC_RETURN_IF_ERROR(index_add_hook_(key, value));
  }
  const std::string encoded = EncodeKey64(key);
  const std::string val(value);
  return MutateWithRetries(
      key, [&](Pack* pack) { pack->Upsert(encoded, val); },
      [&](const Pack& pack) {
        auto v = pack.Find(encoded);
        return v.has_value() && *v == val;
      },
      /*insert_if_new=*/true, "put");
}

Status GenericClient::Delete(uint64_t key) {
  OBS_SPAN("client.delete");
  stats_.deletes.fetch_add(1, std::memory_order_relaxed);
  const std::string encoded = EncodeKey64(key);
  return MutateWithRetries(
      key, [&](Pack* pack) { pack->Erase(encoded); },
      [&](const Pack& pack) { return !pack.Find(encoded).has_value(); },
      /*insert_if_new=*/false, "delete");
}

Status GenericClient::BulkLoad(const std::vector<std::pair<uint64_t, std::string>>& rows) {
  // Group rows per hash partition, sort, and cut into packs of pack_rows
  // (or static buckets when packIDs are encrypted). Blind writes: bulk load
  // assumes no concurrent writers, as any initial import does.
  std::map<std::string, std::vector<Pack::Entry>> by_partition;
  for (const auto& [key, value] : rows) {
    const std::string encoded = EncodeKey64(key);
    by_partition[PartitionForKey(encoded, options_.hash_partitions)].push_back(
        Pack::Entry{encoded, value});
  }
  for (auto& [partition, entries] : by_partition) {
    std::sort(entries.begin(), entries.end(),
              [](const Pack::Entry& a, const Pack::Entry& b) { return a.key < b.key; });
    size_t i = 0;
    while (i < entries.size()) {
      std::vector<Pack::Entry> chunk;
      if (packid_cipher_.has_value()) {
        auto first = DecodeKey64(entries[i].key);
        if (!first.ok()) {
          return first.status();
        }
        const uint64_t bucket = packid_cipher_->BucketFor(*first);
        while (i < entries.size()) {
          auto k = DecodeKey64(entries[i].key);
          if (!k.ok()) {
            return k.status();
          }
          if (packid_cipher_->BucketFor(*k) != bucket) {
            break;
          }
          chunk.push_back(std::move(entries[i++]));
        }
      } else {
        const size_t take = std::min(options_.pack_rows, entries.size() - i);
        for (size_t j = 0; j < take; ++j) {
          chunk.push_back(std::move(entries[i++]));
        }
      }
      MC_ASSIGN_OR_RETURN(Pack pack, Pack::FromSorted(std::move(chunk)));
      const std::string stored_id = StoredPackId(partition, pack, pack.entries().front().key);
      MC_ASSIGN_OR_RETURN(SealedPack sealed, crypter_.Seal(pack, stored_id));
      MC_RETURN_IF_ERROR(
          cluster_->Write(options_.table, partition, stored_id, PackRow(sealed)));
    }
  }
  return Status::Ok();
}

// --- Key rotation (docs/KEY_ROTATION.md) --------------------------------------
//
// RotateKeys is a persisted, crash-resumable state machine:
//
//   idle -> announced -> repack (cursor walks partitions) -> verify -> idle
//
// Every stage transition is durably recorded in the reserved "rotation"
// partition before it takes effect, so a crashed or paused rotator resumes
// exactly where it stopped. Re-sealing rides the same LWT envelope-hash gate
// as foreground mutations: a concurrent writer always wins the race and the
// rotator re-reads.

Result<KeyRotationState> GenericClient::LoadRotationState() {
  auto row = cluster_->Read(options_.table, kRotationPartition, kRotationStateKey);
  if (!row.ok()) {
    if (row.status().IsNotFound()) {
      return KeyRotationState{};  // no rotation has ever run against this table
    }
    return row.status();
  }
  auto cell = row->cells.find(kRotationStateColumn);
  if (cell == row->cells.end()) {
    return Status::Corruption("rotation state row missing its cell");
  }
  return ParseRotationState(cell->second.value);
}

Status GenericClient::PersistRotationState(const KeyRotationState& state) {
  if (FaultInjector* injector = cluster_->options().fault_injector;
      injector != nullptr && injector->Fire(FaultPoint::kRotatePersist, options_.table)) {
    OBS_COUNTER_INC("rotation.persist_failures");
    return Status::Unavailable("injected rotation persist failure");
  }
  Row row;
  row.cells[std::string(kRotationStateColumn)] = Cell{EncodeRotationState(state), 0, false};
  return cluster_->Write(options_.table, kRotationPartition, kRotationStateKey, row);
}

Status GenericClient::ResealPack(std::string_view partition, std::string_view pack_id,
                                 uint64_t target) {
  for (int attempt = 0; attempt < kResealAttempts; ++attempt) {
    if (attempt > 0) {
      retry_.Sleep(attempt - 1);
    }
    auto row = cluster_->Read(options_.table, partition, pack_id);
    if (!row.ok()) {
      if (row.status().IsNotFound()) {
        return Status::Ok();  // deleted since the scan; nothing left to re-seal
      }
      if (row.status().IsUnavailable()) {
        continue;
      }
      return row.status();
    }
    MC_ASSIGN_OR_RETURN(auto cells, ExtractPackCells(*row));
    if (PackCrypter::EnvelopeEpoch(cells.first) >= target) {
      return Status::Ok();  // a foreground writer already carried it forward
    }
    MC_ASSIGN_OR_RETURN(Pack pack, crypter_.Open(cells.first, pack_id));
    if (FaultInjector* injector = cluster_->options().fault_injector;
        injector != nullptr && injector->Fire(FaultPoint::kRotateReseal, pack_id)) {
      return Status::Aborted("injected rotation crash (reseal)");
    }
    MC_ASSIGN_OR_RETURN(SealedPack sealed, crypter_.Seal(pack, pack_id));
    const Status s = cluster_->WriteIf(
        options_.table, partition, pack_id, PackRow(sealed),
        LwtCondition::CellEquals(std::string(kPackHashColumn), std::string(cells.second)));
    if (s.ok()) {
      OBS_COUNTER_INC("rotation.packs_resealed");
      reader_.CacheWritten(partition, pack_id, pack, sealed.hash);
      return Status::Ok();
    }
    if (s.IsConditionFailed()) {
      // Foreground traffic moved the pack under us — it wins; re-read and
      // decide again (the winner may even have sealed at the target already).
      OBS_COUNTER_INC("rotation.reseal_races");
      reader_.CacheInvalidate(partition, pack_id);
      continue;
    }
    if (s.IsUnavailable()) {
      OBS_COUNTER_INC("client.lwt.ambiguous");
      reader_.CacheInvalidate(partition, pack_id);
      continue;
    }
    return s;
  }
  return Status::Unavailable("rotation reseal ran out of attempts (pack=" +
                             FormatPackId(pack_id) + ")");
}

Status GenericClient::RepackPartition(std::string_view partition, uint64_t target,
                                      size_t* resealed) {
  OBS_SPAN("rotation.repack_partition");
  // Inclusive scan of the whole stored-packID space; stored ids (encoded
  // keys, OPE images, PRF output) are all far shorter than 64 bytes.
  const std::string hi(64, '\xff');
  auto rows = retry_.WhileUnavailable(options_.max_put_retries, [&] {
    return cluster_->ReadRange(options_.table, partition, "", hi);
  });
  if (!rows.ok()) {
    return rows.status();
  }
  for (const auto& [id, row] : *rows) {
    MC_ASSIGN_OR_RETURN(auto cells, ExtractPackCells(row));
    if (PackCrypter::EnvelopeEpoch(cells.first) >= target) {
      continue;
    }
    MC_RETURN_IF_ERROR(ResealPack(partition, id, target));
    if (resealed != nullptr) {
      ++*resealed;
    }
  }
  return Status::Ok();
}

Status GenericClient::RotateKeys() {
  OBS_SPAN("rotation.run");
  MC_ASSIGN_OR_RETURN(KeyRotationState rs, LoadRotationState());
  // Crash resume: re-apply whatever the durable record says to the in-memory
  // keyring before continuing — a fresh client, or one that crashed between a
  // persist and the matching keyring update, converges from the record.
  if (rs.target > 0) {
    keyring_->AnnounceEpoch(rs.target);
  }
  if (rs.retired_below > 0) {
    MC_RETURN_IF_ERROR(keyring_->RetireBelow(rs.retired_below));
  }
  if (rs.stage == KeyRotationState::kStageIdle) {
    // Begin a fresh rotation to the next epoch. The target is durable before
    // any writer can seal under it: the announcement follows the persist.
    rs.target = keyring_->current_epoch() + 1;
    rs.stage = KeyRotationState::kStageAnnounced;
    rs.cursor = 0;
    MC_RETURN_IF_ERROR(PersistRotationState(rs));
    keyring_->AnnounceEpoch(rs.target);
  }
  if (rs.stage == KeyRotationState::kStageAnnounced) {
    rs.stage = KeyRotationState::kStageRepack;
    rs.cursor = 0;
    MC_RETURN_IF_ERROR(PersistRotationState(rs));
  }
  if (rs.stage == KeyRotationState::kStageRepack) {
    while (rs.cursor < options_.hash_partitions) {
      MC_RETURN_IF_ERROR(
          RepackPartition(PartitionLabel(rs.cursor), rs.target, /*resealed=*/nullptr));
      rs.cursor += 1;
      MC_RETURN_IF_ERROR(PersistRotationState(rs));  // durable cursor: resume here
    }
    rs.stage = KeyRotationState::kStageVerify;
    MC_RETURN_IF_ERROR(PersistRotationState(rs));
  }
  // Verify: wait for in-flight old-epoch seals to drain (a writer that read
  // the old epoch before the announcement may still be mid-write), then sweep
  // until one full pass finds nothing below the target.
  if (!keyring_->WaitForDrainBelow(rs.target, kDrainTimeoutMillis)) {
    OBS_COUNTER_INC("rotation.drain_timeouts");
    return Status::Unavailable("rotation paused: old-epoch seals did not drain in time");
  }
  bool clean = false;
  for (int pass = 0; pass < kVerifyPasses && !clean; ++pass) {
    size_t resealed = 0;
    for (int p = 0; p < options_.hash_partitions; ++p) {
      MC_RETURN_IF_ERROR(RepackPartition(PartitionLabel(p), rs.target, &resealed));
    }
    if (resealed == 0) {
      clean = true;
    } else {
      OBS_COUNTER_INC("rotation.verify_stale");
    }
  }
  if (!clean) {
    return Status::Unavailable("rotation paused: verify kept finding stale-epoch packs");
  }
  // Retirement point: persist first, retire after. A crash in between is
  // healed by the resume path above (RetireBelow re-applied from the record).
  rs.stage = KeyRotationState::kStageIdle;
  rs.cursor = 0;
  rs.retired_below = rs.target;
  MC_RETURN_IF_ERROR(PersistRotationState(rs));
  MC_RETURN_IF_ERROR(keyring_->RetireBelow(rs.target));
  OBS_COUNTER_INC("rotation.completed");
  return Status::Ok();
}

Result<KeyRotationState> GenericClient::RotationState() { return LoadRotationState(); }

}  // namespace minicrypt
