#ifndef RUMLAB_METHODS_PBT_PBT_H_
#define RUMLAB_METHODS_PBT_PBT_H_

#include <memory>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/btree/btree.h"
#include "methods/key_set.h"

namespace rum {

/// The Partitioned B-tree (Graefe, CIDR 2003 -- paper reference [21]), one
/// of Figure 1's write-optimized differential structures.
///
/// Instead of inserting into one big tree (random leaf rewrites all over
/// the keyspace), writes fill a small *active partition* -- its working
/// set stays tiny, so per-insert page traffic is low -- which is sealed at
/// `pbt.partition_entries` and a fresh one opened. Reads probe partitions
/// newest-first (the newest version of a key shadows older partitions);
/// once `pbt.max_partitions` accumulate, all partitions merge into one
/// tree, reclaiming shadowed versions.
///
/// The structure interpolates between a B-tree (1 partition) and a
/// tiered-LSM-like shape (many partitions): the partition count is the
/// RUM dial.
///
/// Each partition tree stores its pages on a private device. A merge
/// retires whole trees, and a BTree cannot yet free its pages back to a
/// shared device, so pbt takes no device from its caller.
class PartitionedBTree : public AccessMethod {
 public:
  explicit PartitionedBTree(const Options& options);
  ~PartitionedBTree() override;

  std::string_view name() const override { return "pbt"; }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override { return live_keys_.size(); }

  CounterSnapshot stats() const override;
  void ResetStats() override;

  size_t partition_count() const { return partitions_.size(); }
  uint64_t merges() const { return merges_; }

 private:
  /// Newest partition (the write target), opening one if needed.
  BTree* ActivePartition();
  /// Appends the newest version of each key in [lo, hi] across the
  /// partitions to `out`, ascending.
  Status ScanPartitions(Key lo, Key hi, std::vector<Entry>* out);
  /// Merges every partition into a single bulk-loaded tree.
  Status MergeAll();

  Options options_;
  // Oldest first; the last partition is the active one.
  std::vector<std::unique_ptr<BTree>> partitions_;
  CounterSnapshot retired_;  // Traffic of merged-away partitions.
  uint64_t merges_ = 0;
  // Simulator-side bookkeeping (unaccounted): exact live-key set.
  KeySet live_keys_;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_PBT_PBT_H_
