#ifndef RUMLAB_METHODS_BITMAP_BITMAP_INDEX_H_
#define RUMLAB_METHODS_BITMAP_BITMAP_INDEX_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/bitmap/wah.h"
#include "methods/method_device.h"
#include "storage/heap_file.h"

namespace rum {

/// A bitmap index with WAH compression over a heap file, plus the paper's
/// Section-5 "update-friendly bitmap indexes, where updates are absorbed
/// using additional, highly compressible, bitvectors which are gradually
/// merged".
///
/// The key domain `[0, bitmap.key_domain)` is partitioned into
/// `bitmap.cardinality` equal bins; bin b's bitvector marks the heap rows
/// whose key falls in bin b. Queries decode the qualifying bins' bitvectors
/// (auxiliary reads proportional to their *compressed* size -- the space
/// win of Figure 1's right corner) and fetch only the candidate heap pages.
///
/// Updates are where the classic structure hurts: a direct insert appends
/// one bit to *every* bin's bitvector, and a direct delete rebuilds the
/// deletion bitvector. With `bitmap.update_friendly` set, inserts go to a
/// per-bin uncompressed delta row list and deletes to a deleted-row set;
/// both merge into the compressed bitmaps once
/// `bitmap.delta_merge_threshold` pending updates accumulate.
class BitmapIndex : public AccessMethod {
 public:
  explicit BitmapIndex(const Options& options, Device* device = nullptr);

  ~BitmapIndex() override;

  std::string_view name() const override {
    return update_friendly_ ? "bitmap-delta" : "bitmap";
  }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override { return live_; }

  size_t bin_count() const { return bins_.size(); }
  /// Total compressed bytes across all bin bitvectors.
  uint64_t compressed_bytes() const;
  /// Pending (unmerged) delta updates.
  size_t pending_deltas() const;

 private:
  struct Bin {
    WahBitmap bitmap;
    std::vector<RowId> add_delta;  // Rows added since the last merge.
  };

  size_t BinOf(Key key) const;
  /// Charges a decode of a bitmap's compressed words.
  void ChargeDecode(const WahBitmap& bitmap);
  /// Candidate rows of one bin: compressed bits + add-delta - deletions.
  void CollectBin(size_t bin, std::vector<RowId>* rows);
  /// Merges all pending deltas into the compressed bitmaps (rebuild).
  Status MergeDeltas();
  /// Appends row bits for a new row with key `key` directly to every bin.
  void DirectAppendRow(Key key);
  /// Rebuilds `deleted_bitmap_` from `deleted_rows_` (direct mode delete).
  void RebuildDeletedBitmap();
  void RecountAuxSpace();
  /// Locates the live row holding `key`, if any (charged).
  Result<RowId> FindRow(Key key);

  MethodDevice device_;
  bool update_friendly_;
  size_t merge_threshold_;
  Key key_domain_;
  Key bin_width_;

  std::unique_ptr<HeapFile> heap_;
  std::vector<Bin> bins_;
  WahBitmap deleted_bitmap_;               // Rows deleted, merged form.
  std::unordered_set<RowId> deleted_rows_;  // Rows deleted, pending.
  uint64_t indexed_rows_ = 0;  // Rows covered by the compressed bitmaps.
  size_t live_ = 0;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_BITMAP_BITMAP_INDEX_H_
