#ifndef RUMLAB_METHODS_BTREE_BTREE_NODE_H_
#define RUMLAB_METHODS_BTREE_BTREE_NODE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace rum {

/// Serialized forms of B+-Tree nodes.
///
/// Leaf page layout:
///   [0]     node type (0 = leaf)
///   [1,5)   uint32 entry count
///   [5,9)   uint32 next-leaf page id (kInvalidPageId at the tail)
///   [9,...) count x { uint64 key, uint64 value }
///
/// Inner page layout:
///   [0]     node type (1 = inner)
///   [1,5)   uint32 separator count `n`
///   [5,...) (n+1) x uint32 child page ids, then n x uint64 separator keys
///
/// Child i holds keys < separator i; child n holds the rest (separators are
/// lower bounds of the following child: keys in child i+1 are >= key i).
struct BTreeLeaf {
  /// Bytes before the first entry, shared with the interleaved leaf search
  /// in btree.cc.
  static constexpr size_t kHeaderBytes = 1 + 4 + 4;

  std::vector<Entry> entries;  // Sorted by key.
  PageId next = kInvalidPageId;

  /// Max entries in a leaf of `node_size` bytes.
  static size_t CapacityFor(size_t node_size);
  /// Encodes in place into `block` (e.g. a pinned page view), zero-filling
  /// the remainder. Fails with kResourceExhausted if the entries do not fit.
  Status EncodeInto(std::span<uint8_t> block) const;
  static Status DecodeFrom(std::span<const uint8_t> block, BTreeLeaf* out);
  /// Checks an encoded leaf's type byte and that its entry count fits the
  /// block (Corruption otherwise), and sets `*count`. Every reader of an
  /// encoded leaf starts here.
  static Status CheckHeader(std::span<const uint8_t> block, size_t* count);

  /// Zero-copy point lookup straight off an encoded leaf block: binary
  /// search without materializing the entries. Sets `*found` and, when
  /// found, `*value`.
  static Status FindInBlock(std::span<const uint8_t> block, Key key,
                            Value* value, bool* found);
  /// The same search, returning the lower-bound slot: the first entry whose
  /// key is not below `key` (the entry count when none is). `*found` says
  /// whether that entry holds `key` itself.
  static Status LowerBoundInBlock(std::span<const uint8_t> block, Key key,
                                  size_t* slot, bool* found);
  /// Overwrites the value of entry `slot` of an encoded leaf block in
  /// place; `slot` must be below the block's entry count.
  static void SetValueInBlock(std::span<uint8_t> block, size_t slot,
                              Value value);
};

struct BTreeInner {
  std::vector<Key> keys;         // n separators, sorted.
  std::vector<PageId> children;  // n + 1 children.

  /// Max separators in an inner node of `node_size` bytes.
  static size_t CapacityFor(size_t node_size);
  /// Encodes in place into `block`, zero-filling the remainder. Fails with
  /// kResourceExhausted if the separators do not fit or `children` is not
  /// one longer than `keys`.
  Status EncodeInto(std::span<uint8_t> block) const;
  static Status DecodeFrom(std::span<const uint8_t> block, BTreeInner* out);

  /// Zero-copy descent step straight off an encoded inner block: binary
  /// search of the separators without materializing the node. `index`
  /// (optional) receives the child slot taken.
  static Status ChildForKey(std::span<const uint8_t> block, Key key,
                            PageId* child, size_t* index = nullptr);

  /// A contiguous slice of an ascending batch routed to one child.
  struct ChildRange {
    PageId child;
    uint32_t begin;
    uint32_t end;
  };

  /// Batched descent step for an ascending (key, output index) batch:
  /// validates the block once, then routes every key with a galloping
  /// separator walk that resumes where the previous key landed, appending
  /// one ChildRange per distinct child to `parts` (cleared first). Routes
  /// each key to exactly the child per-key ChildForKey would pick.
  static Status PartitionBatch(std::span<const uint8_t> block,
                               std::span<const std::pair<Key, uint32_t>> batch,
                               std::vector<ChildRange>* parts);
};

/// Reads the node-type byte without a full decode.
bool IsLeafBlock(std::span<const uint8_t> block);

}  // namespace rum

#endif  // RUMLAB_METHODS_BTREE_BTREE_NODE_H_
