#ifndef RUMLAB_METHODS_SKIPLIST_SKIPLIST_H_
#define RUMLAB_METHODS_SKIPLIST_SKIPLIST_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/access_method.h"
#include "core/counters.h"
#include "core/options.h"

namespace rum {

/// A probabilistic skiplist over (key -> value|tombstone), with byte-level
/// RUM accounting charged to a borrowed RumCounters.
///
/// This is the in-memory, read-optimized structure of the paper's Figure 1
/// and the LSM-tree's memtable. Accounting model: each node stores its
/// entry (base data, kEntrySize bytes; tombstone nodes are pure auxiliary)
/// plus a tower of forward pointers (auxiliary, 8 bytes per level).
/// Traversal charges one pointer read per hop and one key read per
/// comparison.
///
/// Nodes live in a bump arena of 64 KiB chunks owned by the map: a node's
/// header and its tower share one slot, so writes allocate nothing but an
/// occasional chunk. Heights are capped at 64, the bound ValidateOptions
/// enforces; the constructor clamps `max_height` into [1, 64].
class SkipListMap {
 public:
  /// One record as stored in the list.
  struct Record {
    Key key;
    Value value;
    bool tombstone;
  };

  SkipListMap(const Options::SkipList& options, RumCounters* counters);
  ~SkipListMap();

  SkipListMap(const SkipListMap&) = delete;
  SkipListMap& operator=(const SkipListMap&) = delete;

  /// Upserts a value or a tombstone for `key`.
  void Put(Key key, Value value, bool tombstone);

  /// Finds the newest record for `key`; false if the key was never written.
  /// (A tombstone is returned as a record with tombstone=true.)
  bool Find(Key key, Record* out);

  /// Physically removes a key's node (used by the standalone access method,
  /// which does not need tombstones). The node's slot is reused by the next
  /// node of the same height.
  void Erase(Key key);

  /// Visits records with lo <= key <= hi in ascending order, charging reads.
  void VisitRange(Key lo, Key hi,
                  const std::function<void(const Record&)>& visit);

  /// Visits all records in ascending order WITHOUT charging reads (used for
  /// memtable flushes, whose cost is charged by the destination run).
  void VisitAllUnaccounted(
      const std::function<void(const Record&)>& visit) const;

  /// Removes every node, keeping the arena chunk that holds the head and
  /// freeing the rest; space drops to the head's tower.
  void Clear();

  /// Records currently stored (including tombstones).
  size_t record_count() const { return record_count_; }
  /// Records that are live entries (not tombstones).
  size_t live_count() const { return live_count_; }
  /// Bytes of auxiliary structure (towers + tombstone records).
  uint64_t aux_bytes() const;
  /// Bytes of live base data.
  uint64_t base_bytes() const;

  /// Re-publishes this structure's space into the counters.
  void PublishSpace();

 private:
  struct Node;

  static constexpr size_t kMaxHeight = 64;

  /// Deterministic tower-height generator (xorshift on a seeded state).
  size_t RandomHeight();
  /// Descends toward `key`, charging its reads once; fills `prev[level]`
  /// for every level below height_ when non-null. Returns the first node
  /// with node->key >= key (may be null).
  Node* FindGreaterOrEqual(Key key, Node** prev);
  /// A node of `height`: an erased one of that height if any, else a slot
  /// carved from the arena.
  Node* NewNode(Key key, Value value, bool tombstone, size_t height);
  /// Carves `bytes` from the current chunk, starting a new one when full.
  std::byte* Carve(size_t bytes);

  Options::SkipList options_;
  RumCounters* counters_;  // Not owned.
  /// The arena; chunks_[0] holds the head, chunks_.back() is carved from.
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  size_t chunk_used_ = 0;  // Bytes carved from chunks_.back().
  /// Erased nodes by height - 1, linked through their first tower slot.
  std::array<Node*, kMaxHeight> free_{};
  Node* head_;
  size_t height_ = 1;
  size_t record_count_ = 0;
  size_t live_count_ = 0;
  uint64_t tower_slots_ = 0;  // Total forward-pointer slots allocated.
  uint64_t rng_state_;
};

/// The standalone skiplist access method of Figure 1 (read-optimized,
/// memory-resident, pointer-heavy).
class SkipListMethod : public AccessMethod {
 public:
  explicit SkipListMethod(const Options& options);
  ~SkipListMethod() override;

  std::string_view name() const override { return "skiplist"; }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  size_t size() const override;

 private:
  std::unique_ptr<SkipListMap> map_;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_SKIPLIST_SKIPLIST_H_
