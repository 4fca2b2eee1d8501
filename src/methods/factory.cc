#include "methods/factory.h"

#include "methods/approx/bloom_column.h"
#include "methods/approx/update_absorber.h"
#include "methods/bitmap/bitmap_index.h"
#include "methods/btree/btree.h"
#include "methods/column/sorted_column.h"
#include "methods/column/unsorted_column.h"
#include "methods/cracking/cracking.h"
#include "methods/extremes/dense_array.h"
#include "methods/extremes/magic_array.h"
#include "methods/extremes/pure_log.h"
#include "methods/hash/hash_index.h"
#include "methods/hotcold/hot_cold.h"
#include "methods/imprints/imprints.h"
#include "methods/lsm/lsm_tree.h"
#include "methods/pbt/pbt.h"
#include "methods/sharded/sharded_method.h"
#include "methods/skiplist/skiplist.h"
#include "methods/trie/trie.h"
#include "methods/zonemap/zonemap.h"

namespace rum {

std::unique_ptr<AccessMethod> MakeAccessMethod(std::string_view name,
                                               const Options& options,
                                               Device* device) {
  if (!ValidateOptions(options).ok()) return nullptr;
  // "sharded-<inner>" wraps options.sharded.shards instances of <inner> in
  // a ShardedMethod (hash partitioning + per-shard locking). All shards
  // share `device` when one is given; the stack below serializes itself.
  // The one shared Options also carries options.memory.arbiter, so every
  // shard's pools (and a shared CachingDevice's) register with the same
  // global memory arbiter -- one budget across the whole sharded stack.
  constexpr std::string_view kShardedPrefix = "sharded-";
  if (name.substr(0, kShardedPrefix.size()) == kShardedPrefix) {
    std::string_view inner = name.substr(kShardedPrefix.size());
    if (inner.substr(0, kShardedPrefix.size()) == kShardedPrefix) {
      return nullptr;  // No nested sharding.
    }
    std::vector<std::unique_ptr<AccessMethod>> shards;
    shards.reserve(options.sharded.shards);
    for (size_t i = 0; i < options.sharded.shards; ++i) {
      auto method = MakeAccessMethod(inner, options, device);
      if (method == nullptr) return nullptr;
      shards.push_back(std::move(method));
    }
    return std::make_unique<ShardedMethod>(std::string(name),
                                           std::move(shards));
  }
  if (name == "btree") return std::make_unique<BTree>(options, device);
  if (name == "hash") return std::make_unique<HashIndex>(options, device);
  if (name == "zonemap") {
    return std::make_unique<ZoneMapColumn>(options, device);
  }
  if (name == "lsm-leveled") {
    Options opts = options;
    opts.lsm.policy = LsmPolicy::kLeveled;
    return std::make_unique<LsmTree>(opts, device);
  }
  if (name == "lsm-tiered") {
    Options opts = options;
    opts.lsm.policy = LsmPolicy::kTiered;
    return std::make_unique<LsmTree>(opts, device);
  }
  if (name == "lsm-lazy") {
    Options opts = options;
    opts.lsm.policy = LsmPolicy::kLazyLeveled;
    return std::make_unique<LsmTree>(opts, device);
  }
  if (name == "lsm-hybrid") {
    Options opts = options;
    opts.lsm.policy = LsmPolicy::kHybrid;
    return std::make_unique<LsmTree>(opts, device);
  }
  if (name == "lsm-compressed") {
    Options opts = options;
    opts.lsm.policy = LsmPolicy::kLeveled;
    opts.lsm.compress_runs = true;
    return std::make_unique<LsmTree>(opts, device);
  }
  if (name == "sorted-column") {
    return std::make_unique<SortedColumn>(options, device);
  }
  if (name == "unsorted-column") {
    return std::make_unique<UnsortedColumn>(options, device);
  }
  if (name == "skiplist") return std::make_unique<SkipListMethod>(options);
  if (name == "trie") return std::make_unique<Trie>(options);
  if (name == "bitmap") {
    Options opts = options;
    opts.bitmap.update_friendly = false;
    return std::make_unique<BitmapIndex>(opts, device);
  }
  if (name == "bitmap-delta") {
    Options opts = options;
    opts.bitmap.update_friendly = true;
    return std::make_unique<BitmapIndex>(opts, device);
  }
  if (name == "cracking") return std::make_unique<CrackedColumn>(options);
  if (name == "stepped-merge") {
    return std::make_unique<LsmTree>(SteppedMergeOptions(options), device);
  }
  if (name == "bloom-zones") {
    return std::make_unique<BloomZoneColumn>(options, device);
  }
  if (name == "imprints") {
    return std::make_unique<ImprintsColumn>(options, device);
  }
  if (name == "pbt") return std::make_unique<PartitionedBTree>(options);
  if (name == "sparse-index") {
    Options opts = options;
    opts.column.sparse_index = true;
    return std::make_unique<SortedColumn>(opts, device);
  }
  if (name == "hot-cold") {
    return std::make_unique<HotColdStore>(options, device);
  }
  if (name == "absorbed-btree") {
    return std::make_unique<UpdateAbsorber>(
        std::make_unique<BTree>(options, device), options);
  }
  if (name == "absorbed-bitmap") {
    Options opts = options;
    opts.bitmap.update_friendly = false;  // The absorber buffers instead.
    return std::make_unique<UpdateAbsorber>(
        std::make_unique<BitmapIndex>(opts, device), options);
  }
  if (name == "magic-array") return std::make_unique<MagicArray>(options);
  if (name == "pure-log") return std::make_unique<PureLog>(options);
  if (name == "dense-array") return std::make_unique<DenseArray>(options);
  return nullptr;
}

std::vector<std::string_view> AllAccessMethodNames() {
  return {
      "btree",         "hash",          "zonemap",       "lsm-leveled",
      "lsm-tiered",    "lsm-lazy",      "lsm-hybrid",
      "lsm-compressed", "sorted-column", "unsorted-column", "skiplist",
      "trie",          "bitmap",        "bitmap-delta",  "cracking",
      "stepped-merge", "bloom-zones",   "imprints",      "hot-cold",
      "pbt",           "sparse-index",
      "absorbed-btree", "absorbed-bitmap",
      "magic-array",   "pure-log",      "dense-array",
      "sharded-btree", "sharded-hash",  "sharded-skiplist",
      "sharded-lsm-leveled",
  };
}

}  // namespace rum
