#ifndef RUMLAB_METHODS_SHARDED_SHARDED_METHOD_H_
#define RUMLAB_METHODS_SHARDED_SHARDED_METHOD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/access_method.h"

namespace rum {

/// Hash-partitions the key space across N independent inner AccessMethod
/// instances, each guarded by its own mutex -- the concurrent execution
/// layer the paper's single-operation cost model leaves out. RUM overheads
/// compose additively: every inner method keeps charging its own counters,
/// and `stats()` merges them, so the sharded structure's position in RUM
/// space is the exact sum of its parts (plus N-way fixed metadata, visible
/// as slightly higher MO).
///
/// Concurrency contract:
///  - Point operations (Get/Insert/Update/Delete) lock exactly one shard.
///  - Scan visits every shard (hash partitioning scatters ranges), locking
///    one shard at a time; under concurrent writers the merged result is
///    per-shard-consistent, not a global atomic snapshot.
///  - stats()/size()/Flush()/ResetStats() also lock shard-at-a-time and are
///    exact when callers quiesce writers first (WorkloadRunner does).
class ShardedMethod : public AccessMethod, public KeyPartitioned {
 public:
  /// Takes ownership of `shards` (all built from the same inner method
  /// type); `name` is the factory name ("sharded-btree", ...).
  ShardedMethod(std::string name,
                std::vector<std::unique_ptr<AccessMethod>> shards);
  ~ShardedMethod() override;

  std::string_view name() const override { return name_; }

  Status Insert(Key key, Value value) override;
  Status Update(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  /// Batched Get: partitions the batch per shard, issues one inner MultiGet
  /// per touched shard (locking shard-at-a-time, like Scan), and scatters
  /// results back into input order.
  Status MultiGet(std::span<const Key> keys,
                  std::vector<std::optional<Value>>* out) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override;

  /// Sum of inner snapshots, with range_queries rebooked to one per logical
  /// Scan (each Scan fans out to every shard; counting N would overstate
  /// the operation mix N-fold).
  CounterSnapshot stats() const override;
  void ResetStats() override;

  // KeyPartitioned:
  size_t partitions() const override { return shards_.size(); }
  size_t PartitionOf(Key key) const override;

  /// Inner method of partition `i`, for per-shard inspection (callers
  /// quiesce writers first, as for stats()).
  AccessMethod* shard(size_t i) const { return shards_[i]->method.get(); }

 private:
  struct Shard {
    std::unique_ptr<AccessMethod> method;
    mutable std::mutex mu;
  };

  std::string name_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Logical Scans, counted by caller threads that hold no common lock, so
  /// an atomic rather than a RumCounters (whose recorders are serialized).
  std::atomic<uint64_t> scans_{0};
};

}  // namespace rum

#endif  // RUMLAB_METHODS_SHARDED_SHARDED_METHOD_H_
