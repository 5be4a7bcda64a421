#include "src/kvstore/node.h"

#include "src/obs/metrics.h"

namespace minicrypt {

Node::Node(int id, size_t cache_bytes, std::unique_ptr<Media> media,
           StorageEngineOptions engine_options)
    : id_(id), cache_(cache_bytes), media_(std::move(media)), engine_options_(engine_options) {}

StorageEngine* Node::EngineFor(std::string_view table, bool server_compression) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(table);
  if (it != engines_.end()) {
    return it->second.get();
  }
  StorageEngineOptions opts = engine_options_;
  opts.sstable.server_compression = server_compression;
  opts.sstable.table = std::string(table);
  // The block cache is shared across this node's engines and keys blocks by
  // (sstable id, block index); give each engine a disjoint id space.
  opts.sstable_id_base = next_engine_ordinal_++ << 32;
  auto engine = std::make_unique<StorageEngine>(opts, &cache_, media_.get(),
                                                std::make_unique<MemoryLogSink>());
  StorageEngine* raw = engine.get();
  OBS_COUNTER_INC("node.engines.created");
  engines_.emplace(std::string(table), std::move(engine));
  return raw;
}

StorageEngine* Node::FindEngine(std::string_view table) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(table);
  return it == engines_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<std::string, StorageEngine*>> Node::Engines() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, StorageEngine*>> out;
  out.reserve(engines_.size());
  for (auto& [table, engine] : engines_) {
    out.emplace_back(table, engine.get());
  }
  return out;
}

void Node::DropTable(std::string_view table) {
  std::lock_guard<std::mutex> lock(mu_);
  engines_.erase(std::string(table));
}

}  // namespace minicrypt
