#ifndef RUMLAB_METHODS_COLUMN_UNSORTED_COLUMN_H_
#define RUMLAB_METHODS_COLUMN_UNSORTED_COLUMN_H_

#include <memory>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/method_device.h"
#include "storage/heap_file.h"

namespace rum {

/// The "unsorted column" base-data organization of the paper's Table 1: a
/// heap of entries in device blocks with no structure at all.
///
/// Costs (Table 1): bulk creation O(1) per entry (append), index size O(1)
/// (none), point query O(N/B/2) expected, range query O(N/B), insert O(1)
/// amortized (append). Upserts and deletes must first locate the key, which
/// is the linear-scan price the paper attributes to the structure-free
/// layout; `Append` provides the blind O(1) path used for bulk ingest.
class UnsortedColumn : public AccessMethod {
 public:
  explicit UnsortedColumn(const Options& options, Device* device = nullptr);

  ~UnsortedColumn() override;

  std::string_view name() const override { return "unsorted-column"; }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override { return heap_->row_count(); }

  /// Blind append without the upsert existence check -- the O(1) insert of
  /// Table 1. The caller must guarantee the key is not already present.
  Status Append(Key key, Value value);

 private:
  /// Linear scan for a key; returns the row or kInvalidRowId.
  Result<RowId> FindRow(Key key);

  MethodDevice device_;
  std::unique_ptr<HeapFile> heap_;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_COLUMN_UNSORTED_COLUMN_H_
