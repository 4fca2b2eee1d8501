#include "methods/column/unsorted_column.h"

#include <algorithm>

namespace rum {

namespace {
// Sentinel used to stop a HeapFile::ForEach early once a match is found.
Status StopIteration() { return Status(Code::kAlreadyExists, "stop"); }
bool IsStop(const Status& s) { return s.code() == Code::kAlreadyExists; }
}  // namespace

UnsortedColumn::UnsortedColumn(const Options& options, Device* device)
    : device_(device, options.block_size, &counters()),
      heap_(std::make_unique<HeapFile>(device_.get(), DataClass::kBase,
                                       &counters())) {}

UnsortedColumn::~UnsortedColumn() = default;

Result<RowId> UnsortedColumn::FindRow(Key key) {
  RowId found = kInvalidRowId;
  Status s = heap_->ForEach([&](RowId row, const Entry& e) {
    if (e.key == key) {
      found = row;
      return StopIteration();
    }
    return Status::OK();
  });
  if (!s.ok() && !IsStop(s)) return s;
  return found;
}

Status UnsortedColumn::Append(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  Result<RowId> row = heap_->Append(Entry{key, value});
  return row.status();
}

Status UnsortedColumn::Insert(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  Result<RowId> row = FindRow(key);
  if (!row.ok()) return row.status();
  if (row.value() != kInvalidRowId) {
    return heap_->Set(row.value(), Entry{key, value});
  }
  Result<RowId> appended = heap_->Append(Entry{key, value});
  return appended.status();
}

Status UnsortedColumn::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  Result<RowId> row = FindRow(key);
  if (!row.ok()) return row.status();
  if (row.value() == kInvalidRowId) return Status::OK();  // Idempotent.
  RowId last = heap_->row_count() - 1;
  if (row.value() != last) {
    Result<Entry> tail = heap_->At(last);
    if (!tail.ok()) return tail.status();
    Status s = heap_->Set(row.value(), tail.value());
    if (!s.ok()) return s;
  }
  return heap_->PopBack();
}

Result<Value> UnsortedColumn::Get(Key key) {
  counters().OnPointQuery();
  Value found = 0;
  bool hit = false;
  Status s = heap_->ForEach([&](RowId, const Entry& e) {
    if (e.key == key) {
      found = e.value;
      hit = true;
      return StopIteration();
    }
    return Status::OK();
  });
  if (!s.ok() && !IsStop(s)) return s;
  if (!hit) return Status::NotFound();
  counters().OnLogicalRead(kEntrySize);
  return found;
}

Status UnsortedColumn::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  std::vector<Entry> hits;
  Status s = heap_->ForEach([&](RowId, const Entry& e) {
    if (e.key >= lo && e.key <= hi) hits.push_back(e);
    return Status::OK();
  });
  if (!s.ok()) return s;
  std::sort(hits.begin(), hits.end());
  counters().OnLogicalRead(static_cast<uint64_t>(hits.size()) * kEntrySize);
  out->insert(out->end(), hits.begin(), hits.end());
  return Status::OK();
}

Status UnsortedColumn::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  for (const Entry& e : entries) {
    Result<RowId> row = heap_->Append(e);
    if (!row.ok()) return row.status();
  }
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  return heap_->Flush();
}

Status UnsortedColumn::Flush() { return heap_->Flush(); }

}  // namespace rum
