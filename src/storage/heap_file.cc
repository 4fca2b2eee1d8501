#include "storage/heap_file.h"

#include <algorithm>
#include <cassert>

#include "storage/page_format.h"

namespace rum {

HeapFile::HeapFile(Device* device, DataClass cls, RumCounters* counters)
    : device_(device), cls_(cls), counters_(counters) {
  assert(device_ != nullptr && counters_ != nullptr);
  rows_per_page_ = PageFormat::CapacityFor(device_->block_size());
  assert(rows_per_page_ > 0);
}

HeapFile::~HeapFile() = default;

Status HeapFile::WriteTail() {
  if (tail_page_ == kInvalidPageId) return Status::OK();
  PageWriteGuard guard;
  Status s = device_->PinForWrite(tail_page_, &guard);
  if (!s.ok()) return s;
  s = PageFormat::PackInto(tail_, guard.bytes());
  if (!s.ok()) return s;
  guard.MarkDirty();
  return guard.Release();
}

Status HeapFile::LoadPage(size_t page_index, std::vector<Entry>* out) {
  assert(page_index < sealed_.size());
  PageReadGuard guard;
  Status s = device_->PinForRead(sealed_[page_index], &guard);
  if (!s.ok()) return s;
  return PageFormat::Unpack(guard.bytes(), out);
}

Result<RowId> HeapFile::Append(const Entry& entry) {
  if (tail_page_ == kInvalidPageId) {
    Status s = device_->Allocate(cls_, &tail_page_);
    if (!s.ok()) return s;
  }
  tail_.push_back(entry);
  if (tail_.size() == rows_per_page_) {
    Status s = WriteTail();
    if (!s.ok()) {
      // A failed append appends nothing: a full tail must not take more.
      tail_.pop_back();
      return s;
    }
    sealed_.push_back(tail_page_);
    tail_page_ = kInvalidPageId;
    tail_.clear();
  }
  return row_count_++;
}

Result<Entry> HeapFile::At(RowId row) {
  if (row >= row_count_) return Status::Corruption("row beyond heap");
  size_t page_index = static_cast<size_t>(row / rows_per_page_);
  size_t slot = static_cast<size_t>(row % rows_per_page_);
  if (page_index < sealed_.size()) {
    // Single-slot read straight off the pinned page: no materialization.
    PageReadGuard guard;
    Status s = device_->PinForRead(sealed_[page_index], &guard);
    if (!s.ok()) return s;
    if (slot >= PageFormat::PeekCount(guard.bytes())) {
      return Status::Corruption("slot beyond page");
    }
    return PageFormat::EntryAt(guard.bytes(), slot);
  }
  // Tail row, served from the buffered image.
  counters_->OnRead(cls_, kEntrySize);
  if (slot >= tail_.size()) return Status::Corruption("slot beyond tail");
  return tail_[slot];
}

Status HeapFile::Set(RowId row, const Entry& entry) {
  if (row >= row_count_) return Status::Corruption("row beyond heap");
  size_t page_index = static_cast<size_t>(row / rows_per_page_);
  size_t slot = static_cast<size_t>(row % rows_per_page_);
  if (page_index < sealed_.size()) {
    // In-place single-slot update: a charged read pin validates the slot,
    // and the overlapping write pin (taken while the read pin is still
    // held, so caching devices keep the faulted-in entry) rewrites just
    // the 16 modified bytes, charged as one page read plus one page write.
    PageReadGuard read_guard;
    Status s = device_->PinForRead(sealed_[page_index], &read_guard);
    if (!s.ok()) return s;
    if (slot >= PageFormat::PeekCount(read_guard.bytes())) {
      return Status::Corruption("slot beyond page");
    }
    PageWriteGuard write_guard;
    s = device_->PinForWrite(sealed_[page_index], &write_guard);
    if (!s.ok()) return s;
    read_guard.Release();
    PageFormat::SetEntryAt(write_guard.bytes(), slot, entry);
    write_guard.MarkDirty();
    return write_guard.Release();
  }
  if (slot >= tail_.size()) return Status::Corruption("slot beyond tail");
  counters_->OnWrite(cls_, kEntrySize);
  tail_[slot] = entry;
  return Status::OK();
}

Status HeapFile::PopBack() {
  if (row_count_ == 0) return Status::OutOfRange("heap is empty");
  if (tail_.empty()) {
    // Unseal the last full page back into the tail. A page a crash rolled
    // back can read empty; popping it would underflow the tail.
    if (sealed_.empty()) return Status::Corruption("heap rows without pages");
    PageId last = sealed_.back();
    Status s = LoadPage(sealed_.size() - 1, &tail_);
    if (!s.ok()) return s;
    if (tail_.empty()) return Status::Corruption("sealed heap page is empty");
    sealed_.pop_back();
    tail_page_ = last;
  }
  tail_.pop_back();
  --row_count_;
  if (tail_.empty() && tail_page_ != kInvalidPageId) {
    Status s = device_->Free(tail_page_);
    if (!s.ok()) return s;
    tail_page_ = kInvalidPageId;
  }
  return Status::OK();
}

Status HeapFile::ForEach(
    const std::function<Status(RowId, const Entry&)>& visit) {
  std::vector<Entry> entries;
  for (size_t p = 0; p < sealed_.size(); ++p) {
    Status s = LoadPage(p, &entries);
    if (!s.ok()) return s;
    // Ids come from the page's position, not a running count: a page a
    // crash rolled back may hold fewer rows, and the rows after it keep
    // their own ids.
    RowId row = static_cast<RowId>(p) * rows_per_page_;
    for (const Entry& e : entries) {
      s = visit(row++, e);
      if (!s.ok()) return s;
    }
  }
  if (!tail_.empty()) {
    counters_->OnRead(cls_, static_cast<uint64_t>(tail_.size()) * kEntrySize);
    RowId row = static_cast<RowId>(sealed_.size()) * rows_per_page_;
    for (const Entry& e : tail_) {
      Status s = visit(row++, e);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

Status HeapFile::ForRows(
    const std::vector<RowId>& rows,
    const std::function<Status(RowId, const Entry&)>& visit) {
  assert(std::is_sorted(rows.begin(), rows.end()));
  std::vector<Entry> entries;
  size_t loaded_page = static_cast<size_t>(-1);
  for (RowId row : rows) {
    if (row >= row_count_) return Status::Corruption("row beyond heap");
    size_t page_index = static_cast<size_t>(row / rows_per_page_);
    size_t slot = static_cast<size_t>(row % rows_per_page_);
    if (page_index < sealed_.size()) {
      if (page_index != loaded_page) {
        Status s = LoadPage(page_index, &entries);
        if (!s.ok()) return s;
        loaded_page = page_index;
      }
      if (slot >= entries.size()) {
        return Status::Corruption("slot beyond page");
      }
      Status s = visit(row, entries[slot]);
      if (!s.ok()) return s;
    } else {
      counters_->OnRead(cls_, kEntrySize);
      if (slot >= tail_.size()) return Status::Corruption("slot beyond tail");
      Status s = visit(row, tail_[slot]);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

Status HeapFile::Flush() { return WriteTail(); }

Status HeapFile::Clear() {
  for (PageId page : sealed_) {
    Status s = device_->Free(page);
    if (!s.ok()) return s;
  }
  sealed_.clear();
  if (tail_page_ != kInvalidPageId) {
    Status s = device_->Free(tail_page_);
    if (!s.ok()) return s;
    tail_page_ = kInvalidPageId;
  }
  tail_.clear();
  row_count_ = 0;
  return Status::OK();
}

}  // namespace rum
