#ifndef RUMLAB_STORAGE_HEAP_FILE_H_
#define RUMLAB_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/counters.h"
#include "core/status.h"
#include "core/types.h"
#include "storage/device.h"

namespace rum {

/// Position of a row inside a HeapFile.
using RowId = uint64_t;
inline constexpr RowId kInvalidRowId = static_cast<RowId>(-1);

/// An unordered collection of entries in device pages -- the classic heap
/// file, used as the base-data organization for the unsorted column, the
/// hash index, and the bitmap index.
///
/// Rows are addressed by a stable RowId (page index x page capacity + slot).
/// Appends buffer into a tail image so each page is written once when it
/// fills (plus once per Flush of a partial tail); positional reads and
/// in-place updates touch exactly one page.
class HeapFile {
 public:
  /// Stores pages of class `cls` on `device`; `counters` (borrowed) is
  /// charged for reads served from the buffered tail.
  HeapFile(Device* device, DataClass cls, RumCounters* counters);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  ~HeapFile();

  /// Appends an entry, returning its RowId. On failure nothing is
  /// appended.
  Result<RowId> Append(const Entry& entry);

  /// Reads the entry at `row` (one page read; tail rows served from memory
  /// and charged by bytes). Rows come from the caller's own structures, so
  /// one past the heap is Corruption here and in Set and ForRows.
  Result<Entry> At(RowId row);

  /// Overwrites the entry at `row` in place (read-modify-write of one page
  /// for sealed pages; a byte-level write for tail rows).
  Status Set(RowId row, const Entry& entry);

  /// Removes the *last* row (used by swap-with-last deletion).
  Status PopBack();

  /// Visits every row in position order; charges the full scan.
  Status ForEach(
      const std::function<Status(RowId, const Entry&)>& visit);

  /// Visits only the rows on the pages that contain the given sorted,
  /// deduplicated row list (one page read per distinct page).
  Status ForRows(const std::vector<RowId>& rows,
                 const std::function<Status(RowId, const Entry&)>& visit);

  /// Writes the partial tail page to the device.
  Status Flush();

  /// Frees all pages.
  Status Clear();

  uint64_t row_count() const { return row_count_; }
  size_t rows_per_page() const { return rows_per_page_; }
  size_t page_count() const {
    return sealed_.size() + (tail_.empty() ? 0 : 1);
  }

 private:
  Status WriteTail();
  Status LoadPage(size_t page_index, std::vector<Entry>* out);

  Device* device_;  // Not owned.
  DataClass cls_;
  RumCounters* counters_;  // Not owned.
  size_t rows_per_page_;
  std::vector<PageId> sealed_;  // Full pages.
  std::vector<Entry> tail_;     // Rows not yet sealed.
  PageId tail_page_ = kInvalidPageId;
  uint64_t row_count_ = 0;
};

}  // namespace rum

#endif  // RUMLAB_STORAGE_HEAP_FILE_H_
