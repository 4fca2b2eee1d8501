#ifndef RUMLAB_METHODS_HASH_HASH_INDEX_H_
#define RUMLAB_METHODS_HASH_HASH_INDEX_H_

#include <memory>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "storage/block_device.h"
#include "storage/heap_file.h"

namespace rum {

/// A hash index over a heap file: the O(1)-point-query structure of the
/// paper's Table 1 ("Perfect Hash Index") and the point-read corner of
/// Figure 1.
///
/// Base data lives in a HeapFile; the auxiliary directory is an array of
/// (key, row) slots in device pages, probed linearly. A point query costs
/// one directory page plus one heap page; range queries degrade to a full
/// heap scan -- hashing destroys order, which is exactly the tradeoff
/// Table 1 shows (range query O(N/B)).
///
/// The directory doubles and rehashes when load exceeds 0.7, a realistic
/// write-amplification burst. Bulk loads size it to
/// `hash.directory_fanout` slots per key up front; with fanout >= 1/0.7
/// and no subsequent growth this behaves as Table 1's perfect hash.
class HashIndex : public AccessMethod {
 public:
  explicit HashIndex(const Options& options);
  HashIndex(const Options& options, Device* device);

  ~HashIndex() override;

  std::string_view name() const override { return "hash"; }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  /// Batched Get: probes ordered by initial directory slot so keys hashing
  /// into the same directory page share one probe-cache fill, and duplicate
  /// keys are resolved once. Shared/avoided directory pins are recorded as
  /// batched_page_hits.
  Status MultiGet(std::span<const Key> keys,
                  std::vector<std::optional<Value>>* out) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override { return live_; }

  size_t slot_count() const { return slot_count_; }
  double load_factor() const {
    return slot_count_ == 0
               ? 0.0
               : static_cast<double>(live_) / static_cast<double>(slot_count_);
  }

 private:
  // Slot states, encoded in the row field.
  static constexpr RowId kEmptySlot = kInvalidRowId;
  static constexpr RowId kTombstoneSlot = kInvalidRowId - 1;

  struct SlotRef {
    size_t page_index;
    size_t offset;
  };

  SlotRef RefFor(size_t slot) const;
  /// Reads the directory page holding `slot` into the probe cache if it is
  /// not already there (one charged page read per page transition).
  Status LoadSlotPage(size_t page_index);
  Status StoreSlotPage(size_t page_index);

  /// Probes for `key`. On return: *found_slot is the slot holding the key
  /// (when the result is true) or the first insertable slot (when false).
  Result<bool> Probe(Key key, size_t* found_slot);

  /// The heap row a directory slot for `key` names; Corruption when that
  /// row holds another key.
  Result<Entry> RowFor(Key key, RowId row);
  Status WriteSlot(size_t slot, Key key, RowId row);
  Status BuildDirectory(size_t slots);
  Status Rehash(size_t new_slots);

  std::unique_ptr<BlockDevice> owned_device_;
  Device* device_;
  size_t slots_per_page_;
  double fanout_;

  std::unique_ptr<HeapFile> heap_;
  std::vector<PageId> dir_pages_;
  size_t slot_count_ = 0;
  size_t live_ = 0;
  size_t used_slots_ = 0;  // Live + tombstones (drives growth).

  // Single-page probe cache (valid within one operation).
  std::vector<Entry> cached_page_;
  size_t cached_index_ = static_cast<size_t>(-1);
  bool cached_dirty_ = false;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_HASH_HASH_INDEX_H_
