#include "methods/bitmap/bitmap_index.h"

#include <algorithm>
#include <cassert>

namespace rum {

BitmapIndex::BitmapIndex(const Options& options, Device* device)
    : device_(device, options.block_size, &counters()),
      update_friendly_(options.bitmap.update_friendly),
      merge_threshold_(options.bitmap.delta_merge_threshold),
      key_domain_(options.bitmap.key_domain),
      heap_(std::make_unique<HeapFile>(device_.get(), DataClass::kBase,
                                       &counters())) {
  bins_.resize(std::max<size_t>(1, options.bitmap.cardinality));
  bin_width_ = std::max<Key>(1, key_domain_ / bins_.size());
  RecountAuxSpace();
}

BitmapIndex::~BitmapIndex() = default;

size_t BitmapIndex::BinOf(Key key) const {
  size_t bin = static_cast<size_t>(key / bin_width_);
  return std::min(bin, bins_.size() - 1);
}

uint64_t BitmapIndex::compressed_bytes() const {
  uint64_t total = deleted_bitmap_.space_bytes();
  for (const Bin& bin : bins_) {
    total += bin.bitmap.space_bytes();
  }
  return total;
}

size_t BitmapIndex::pending_deltas() const {
  size_t total = deleted_rows_.size();
  for (const Bin& bin : bins_) {
    total += bin.add_delta.size();
  }
  return total;
}

void BitmapIndex::ChargeDecode(const WahBitmap& bitmap) {
  counters().OnRead(DataClass::kAux, bitmap.space_bytes());
}

void BitmapIndex::RecountAuxSpace() {
  uint64_t bytes = compressed_bytes();
  for (const Bin& bin : bins_) {
    bytes += static_cast<uint64_t>(bin.add_delta.size()) * sizeof(RowId);
  }
  bytes += static_cast<uint64_t>(deleted_rows_.size()) * sizeof(RowId);
  counters().SetSpace(DataClass::kAux, bytes);
}

void BitmapIndex::CollectBin(size_t bin_index, std::vector<RowId>* rows) {
  const Bin& bin = bins_[bin_index];
  ChargeDecode(bin.bitmap);
  // Deleted rows come from both the merged deletion bitmap and the pending
  // set.
  std::unordered_set<RowId> dead(deleted_rows_.begin(), deleted_rows_.end());
  ChargeDecode(deleted_bitmap_);
  deleted_bitmap_.ForEachSetBit(
      [&](uint64_t row) { dead.insert(static_cast<RowId>(row)); });
  bin.bitmap.ForEachSetBit([&](uint64_t row) {
    if (dead.find(static_cast<RowId>(row)) == dead.end()) {
      rows->push_back(static_cast<RowId>(row));
    }
  });
  counters().OnRead(
      DataClass::kAux,
      static_cast<uint64_t>(bin.add_delta.size()) * sizeof(RowId));
  for (RowId row : bin.add_delta) {
    if (dead.find(row) == dead.end()) rows->push_back(row);
  }
  std::sort(rows->begin(), rows->end());
}

void BitmapIndex::DirectAppendRow(Key key) {
  size_t target = BinOf(key);
  for (size_t b = 0; b < bins_.size(); ++b) {
    size_t words_before = bins_[b].bitmap.word_count();
    bins_[b].bitmap.AppendBit(b == target);
    size_t emitted = bins_[b].bitmap.word_count() - words_before;
    // Every bin's tail word is touched (appending a bit is a
    // read-modify-write of the active word, or of a fill word it merges
    // into), plus any newly emitted words.
    counters().OnWrite(DataClass::kAux,
                       (1 + emitted) * sizeof(uint32_t));
  }
  ++indexed_rows_;
}

void BitmapIndex::RebuildDeletedBitmap() {
  // Decode, OR in the pending deletions, re-encode -- the full price of
  // updating a compressed bitmap in place.
  ChargeDecode(deleted_bitmap_);
  std::vector<bool> bits(heap_->row_count(), false);
  deleted_bitmap_.ForEachSetBit([&](uint64_t row) {
    if (row < bits.size()) bits[row] = true;
  });
  for (RowId row : deleted_rows_) {
    if (row < bits.size()) bits[row] = true;
  }
  deleted_rows_.clear();
  deleted_bitmap_.Clear();
  for (bool bit : bits) deleted_bitmap_.AppendBit(bit);
  counters().OnWrite(DataClass::kAux, deleted_bitmap_.space_bytes());
}

Status BitmapIndex::MergeDeltas() {
  // Extend every bin's compressed bitmap to cover all heap rows: pending
  // added rows get their bit, everything else extends with zeros. Then fold
  // pending deletions into the deletion bitmap.
  uint64_t rows = heap_->row_count();
  for (Bin& bin : bins_) {
    std::sort(bin.add_delta.begin(), bin.add_delta.end());
    uint64_t cursor = bin.bitmap.bit_count();
    size_t words_before = bin.bitmap.word_count();
    for (RowId row : bin.add_delta) {
      if (row < cursor) continue;  // Already covered (defensive).
      bin.bitmap.AppendRun(false, row - cursor);
      bin.bitmap.AppendBit(true);
      cursor = row + 1;
    }
    bin.bitmap.AppendRun(false, rows - cursor);
    bin.add_delta.clear();
    size_t emitted = bin.bitmap.word_count() - words_before;
    counters().OnWrite(DataClass::kAux, emitted * sizeof(uint32_t));
  }
  indexed_rows_ = rows;
  if (!deleted_rows_.empty()) {
    RebuildDeletedBitmap();
  }
  RecountAuxSpace();
  return Status::OK();
}

Result<RowId> BitmapIndex::FindRow(Key key) {
  std::vector<RowId> rows;
  CollectBin(BinOf(key), &rows);
  RowId found = kInvalidRowId;
  Status s = heap_->ForRows(rows, [&](RowId row, const Entry& e) {
    if (e.key == key) found = row;
    return Status::OK();
  });
  if (!s.ok()) return s;
  return found;
}

Status BitmapIndex::Insert(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  // Upsert: a live row with this key is updated in place (the bitmaps do
  // not change -- the key keeps its bin).
  Result<RowId> existing = FindRow(key);
  if (!existing.ok()) return existing.status();
  if (existing.value() != kInvalidRowId) {
    return heap_->Set(existing.value(), Entry{key, value});
  }
  Result<RowId> row = heap_->Append(Entry{key, value});
  if (!row.ok()) return row.status();
  ++live_;
  if (update_friendly_) {
    Bin& bin = bins_[BinOf(key)];
    bin.add_delta.push_back(row.value());
    counters().OnWrite(DataClass::kAux, sizeof(RowId));
    if (pending_deltas() >= merge_threshold_) {
      Status s = MergeDeltas();
      if (!s.ok()) return s;
    }
  } else {
    // Direct mode: every bin's bitmap is extended for the new row. First
    // catch up any rows not yet indexed (from bulk load boundaries).
    DirectAppendRow(key);
  }
  RecountAuxSpace();
  return Status::OK();
}

Status BitmapIndex::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  Result<RowId> existing = FindRow(key);
  if (!existing.ok()) return existing.status();
  if (existing.value() == kInvalidRowId) return Status::OK();
  deleted_rows_.insert(existing.value());
  counters().OnWrite(DataClass::kAux, sizeof(RowId));
  --live_;
  if (update_friendly_) {
    if (pending_deltas() >= merge_threshold_) {
      Status s = MergeDeltas();
      if (!s.ok()) return s;
    }
  } else {
    RebuildDeletedBitmap();
  }
  RecountAuxSpace();
  return Status::OK();
}

Result<Value> BitmapIndex::Get(Key key) {
  counters().OnPointQuery();
  std::vector<RowId> rows;
  CollectBin(BinOf(key), &rows);
  Value value = 0;
  bool hit = false;
  Status s = heap_->ForRows(rows, [&](RowId, const Entry& e) {
    if (e.key == key) {
      value = e.value;
      hit = true;
    }
    return Status::OK();
  });
  if (!s.ok()) return s;
  if (!hit) return Status::NotFound();
  counters().OnLogicalRead(kEntrySize);
  return value;
}

Status BitmapIndex::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  size_t first_bin = BinOf(lo);
  size_t last_bin = BinOf(hi);
  std::vector<RowId> rows;
  for (size_t b = first_bin; b <= last_bin; ++b) {
    CollectBin(b, &rows);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::vector<Entry> hits;
  Status s = heap_->ForRows(rows, [&](RowId, const Entry& e) {
    if (e.key >= lo && e.key <= hi) hits.push_back(e);
    return Status::OK();
  });
  if (!s.ok()) return s;
  std::sort(hits.begin(), hits.end());
  counters().OnLogicalRead(static_cast<uint64_t>(hits.size()) * kEntrySize);
  out->insert(out->end(), hits.begin(), hits.end());
  return Status::OK();
}

Status BitmapIndex::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  for (const Entry& e : entries) {
    Result<RowId> row = heap_->Append(e);
    if (!row.ok()) return row.status();
    bins_[BinOf(e.key)].add_delta.push_back(row.value());
  }
  s = heap_->Flush();
  if (!s.ok()) return s;
  live_ = entries.size();
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  return MergeDeltas();
}

Status BitmapIndex::Flush() {
  Status s = MergeDeltas();
  if (!s.ok()) return s;
  return heap_->Flush();
}

}  // namespace rum
