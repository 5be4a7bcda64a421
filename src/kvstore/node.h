// One storage node: a block cache and media device shared by the node's
// per-table storage engines.

#ifndef MINICRYPT_SRC_KVSTORE_NODE_H_
#define MINICRYPT_SRC_KVSTORE_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/kvstore/block_cache.h"
#include "src/kvstore/media.h"
#include "src/kvstore/storage_engine.h"

namespace minicrypt {

class Node {
 public:
  Node(int id, size_t cache_bytes, std::unique_ptr<Media> media,
       StorageEngineOptions engine_options);

  int id() const { return id_; }
  Media* media() { return media_.get(); }
  const Media* media() const { return media_.get(); }
  BlockCache* cache() { return &cache_; }

  // Creates the engine for `table` if missing. `server_compression` fixes the
  // table's at-rest block compression on first creation.
  StorageEngine* EngineFor(std::string_view table, bool server_compression);

  // nullptr when the table does not exist on this node.
  StorageEngine* FindEngine(std::string_view table);

  // Snapshot of every (table, engine) pair, in table order. The engine-map
  // mutex is released before returning, so callers may take cluster locks
  // while they work on the engines (lock order: Cluster::ring_mu_ ->
  // Cluster::down_mu_ -> Node::mu_). Like FindEngine's, the pointers stay
  // valid until DropTable.
  std::vector<std::pair<std::string, StorageEngine*>> Engines();

  void DropTable(std::string_view table);

 private:
  int id_;
  BlockCache cache_;
  std::unique_ptr<Media> media_;
  StorageEngineOptions engine_options_;

  std::mutex mu_;
  uint64_t next_engine_ordinal_ = 0;  // sizes each engine's SSTable-id space
  std::map<std::string, std::unique_ptr<StorageEngine>, std::less<>> engines_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_KVSTORE_NODE_H_
