#ifndef RUMLAB_METHODS_BTREE_BTREE_H_
#define RUMLAB_METHODS_BTREE_BTREE_H_

#include <utility>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/btree/btree_node.h"
#include "methods/method_device.h"

namespace rum {

/// A paged, clustered B+-Tree -- the read-optimized workhorse of the
/// paper's Figure 1 and Table 1.
///
/// Leaves hold the entries (base data) chained for range scans; inner nodes
/// hold separators (auxiliary data). Point and range queries descend
/// O(log_B N) pages; inserts split on overflow; deletes drop empty nodes.
///
/// Tunable knobs (the Section-5 "B+-Trees that have dynamically tuned
/// parameters"): `btree.node_size` (node = device block, so the tree built
/// standalone sizes its own device accordingly), `btree.bulk_fill` (leaf
/// occupancy after bulk load; <1 leaves split slack for future inserts,
/// trading MO for UO), and `btree.split_fraction` (how splits distribute
/// entries, tuning for sequential vs random insert patterns).
class BTree : public AccessMethod {
 public:
  explicit BTree(const Options& options, Device* device = nullptr);

  ~BTree() override;

  std::string_view name() const override { return "btree"; }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  /// Batched Get: sorted descent that shares the inner-node path prefix --
  /// every node (inner or leaf) is pinned once for all keys routed through
  /// it, with the saved pins recorded as batched_page_hits.
  Status MultiGet(std::span<const Key> keys,
                  std::vector<std::optional<Value>>* out) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  size_t size() const override { return count_; }

  /// Tree height in levels (0 = empty, 1 = root is a leaf).
  size_t height() const { return height_; }
  size_t node_size() const { return node_size_; }

 private:
  struct PathStep {
    PageId page;
    size_t child_index;  // Which child we descended into.
  };

  Status LoadLeaf(PageId page, BTreeLeaf* out);
  Status StoreLeaf(PageId page, const BTreeLeaf& leaf);
  Status LoadInner(PageId page, BTreeInner* out);
  Status StoreInner(PageId page, const BTreeInner& inner);

  /// Descends from the root to the leaf that should hold `key`, recording
  /// the inner-node path (when `path` is non-null), and read-pins that
  /// leaf into `*leaf`. The tree must be non-empty.
  Status PinLeaf(Key key, std::vector<PathStep>* path, PageReadGuard* leaf);
  /// PinLeaf, then decodes the leaf and releases its pin.
  Status DescendToLeaf(Key key, std::vector<PathStep>* path, PageId* leaf_id,
                       BTreeLeaf* leaf);

  /// Resolves leaf-level parts with up to eight leaves' binary searches
  /// interleaved round-robin, each prefetching its next probe before any
  /// other leaf's probe executes -- the dependent cache misses of a deep
  /// tree's leaf searches overlap instead of serializing. Each leaf is
  /// pinned once for all its keys, the saved pins credited as batched-page
  /// hits, and each found key charged one logical entry read, as in Get.
  Status MultiGetLeafParts(std::span<const BTreeInner::ChildRange> parts,
                           std::span<const std::pair<Key, uint32_t>> batch,
                           std::vector<std::optional<Value>>* out);

  /// Inserts (separator, new_child) into the parent chain after a split of
  /// the child at path position `level`; cascades splits upward.
  Status InsertIntoParent(std::vector<PathStep>& path, size_t level,
                          Key separator, PageId new_child);

  /// Removes the child at path position `level`'s recorded index from its
  /// parent; cascades when a parent empties.
  Status RemoveFromParent(std::vector<PathStep>& path, size_t level);

  MethodDevice device_;
  size_t node_size_;
  size_t leaf_capacity_;
  size_t inner_capacity_;
  double bulk_fill_;
  double split_fraction_;
  PageId root_ = kInvalidPageId;
  size_t height_ = 0;
  size_t count_ = 0;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_BTREE_BTREE_H_
