#ifndef RUMLAB_METHODS_COLUMN_SORTED_COLUMN_H_
#define RUMLAB_METHODS_COLUMN_SORTED_COLUMN_H_

#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/method_device.h"

namespace rum {

/// The "sorted column" base-data organization of the paper's Table 1:
/// entries kept globally sorted and dense across device blocks, with no
/// auxiliary structure.
///
/// With `column.sparse_index` set, it becomes Figure 1's "Sparse Index":
/// an in-memory array of one fence key per page replaces the device-level
/// binary search, so point lookups read exactly one block at the cost of
/// 8 auxiliary bytes per page (charged as reads per probe and as resident
/// space). Update costs are unchanged -- the sparse index rides along.
///
/// Costs (Table 1): point query O(log2 N) via binary search (block-level
/// probes here), range query O(log2 N + m), insert/delete O(N/B/2) -- every
/// page after the insertion point shifts by one entry, the linear update
/// price of keeping data sorted in place. Updates that change only the
/// value rewrite a single page.
///
/// All pages are full except the last one (density is maintained by the
/// shift cascades), so space amplification stays at the block-rounding
/// minimum.
class SortedColumn : public AccessMethod {
 public:
  explicit SortedColumn(const Options& options, Device* device = nullptr);

  ~SortedColumn() override;

  std::string_view name() const override {
    return sparse_ ? "sparse-index" : "sorted-column";
  }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  /// Batched Get: per-key page location (same FindPage charges as Get,
  /// duplicates located once), then keys grouped by page so each target
  /// page is pinned once -- the saved pins land in batched_page_hits.
  Status MultiGet(std::span<const Key> keys,
                  std::vector<std::optional<Value>>* out) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  size_t size() const override { return count_; }

  size_t page_count() const { return pages_.size(); }

 private:
  /// Binary search at block granularity for the page that contains (or
  /// would contain) `key`; every probe reads one page. Returns the page
  /// index (0..pages-1), or 0 when empty.
  Result<size_t> FindPage(Key key);

  Status LoadPage(size_t page_index, std::vector<Entry>* out);
  Status StorePage(size_t page_index, const std::vector<Entry>& entries);

  void RecountAuxSpace();

  MethodDevice device_;
  size_t capacity_;  // Entries per page.
  bool sparse_;
  std::vector<PageId> pages_;
  std::vector<Key> fences_;  // First key per page (sparse mode only).
  size_t count_ = 0;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_COLUMN_SORTED_COLUMN_H_
