#ifndef RUMLAB_METHODS_IMPRINTS_IMPRINTS_H_
#define RUMLAB_METHODS_IMPRINTS_IMPRINTS_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/method_device.h"
#include "storage/heap_file.h"

namespace rum {

/// Column Imprints (Sidirourgos & Kersten, SIGMOD 2013 -- paper reference
/// [50]): a secondary index of one small bit mask per storage block, where
/// bit b is set iff the block contains a key in histogram bin b.
///
/// Like ZoneMaps it is a sparse, space-optimized structure (one 64-bit
/// mask per block vs. the bitmap index's one bitvector per bin), but
/// unlike min/max summaries it survives *unclustered* data: a block
/// containing keys from two distant bins produces two set bits rather
/// than one useless giant [min,max] interval.
///
/// Queries AND a bin mask for the predicate against every imprint and read
/// only matching blocks. Appends are cheap -- OR one bit into the tail
/// block's mask. Deletes set conservative state (masks never clear), so a
/// deleted-row set is kept and the structure rebuilds once
/// `approx.rebuild_deleted_fraction` of rows are dead.
///
/// The key domain `[0, bitmap.key_domain)` is split into 64 equi-width
/// bins (one machine word per imprint).
class ImprintsColumn : public AccessMethod {
 public:
  explicit ImprintsColumn(const Options& options, Device* device = nullptr);

  ~ImprintsColumn() override;

  std::string_view name() const override { return "imprints"; }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override { return live_; }

  size_t imprint_count() const { return imprints_.size(); }
  uint64_t imprint_bytes() const {
    return static_cast<uint64_t>(imprints_.size()) * sizeof(uint64_t);
  }

 private:
  static constexpr size_t kBins = 64;

  size_t BinOf(Key key) const;
  /// Mask with every bin overlapping [lo, hi] set.
  uint64_t MaskFor(Key lo, Key hi) const;
  /// Charges a scan of the whole imprint vector and collects the rows of
  /// blocks whose imprint intersects `mask` (deleted rows filtered).
  void CandidateRows(uint64_t mask, std::vector<RowId>* rows);
  /// Marks the imprint covering `row` for `key` (tail appends).
  void Stamp(RowId row, Key key);
  /// Rewrites the heap without dead rows and recomputes all imprints.
  Status Rebuild();
  void RecountAuxSpace();
  Result<RowId> FindRow(Key key);

  Options options_;
  MethodDevice device_;
  std::unique_ptr<HeapFile> heap_;
  Key bin_width_;
  std::vector<uint64_t> imprints_;  // One mask per heap block.
  std::unordered_set<RowId> deleted_rows_;
  size_t live_ = 0;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_IMPRINTS_IMPRINTS_H_
