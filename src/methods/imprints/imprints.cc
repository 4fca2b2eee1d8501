#include "methods/imprints/imprints.h"

#include <algorithm>

namespace rum {

ImprintsColumn::ImprintsColumn(const Options& options, Device* device)
    : options_(options),
      device_(device, options.block_size, &counters()),
      heap_(std::make_unique<HeapFile>(device_.get(), DataClass::kBase,
                                       &counters())) {
  bin_width_ = std::max<Key>(1, options_.bitmap.key_domain / kBins);
}

ImprintsColumn::~ImprintsColumn() = default;

size_t ImprintsColumn::BinOf(Key key) const {
  return std::min<size_t>(static_cast<size_t>(key / bin_width_), kBins - 1);
}

uint64_t ImprintsColumn::MaskFor(Key lo, Key hi) const {
  size_t first = BinOf(lo);
  size_t last = BinOf(hi);
  uint64_t mask = 0;
  for (size_t b = first; b <= last; ++b) {
    mask |= 1ULL << b;
  }
  return mask;
}

void ImprintsColumn::RecountAuxSpace() {
  counters().SetSpace(
      DataClass::kAux,
      imprint_bytes() +
          static_cast<uint64_t>(deleted_rows_.size()) * sizeof(RowId));
}

void ImprintsColumn::Stamp(RowId row, Key key) {
  size_t block = static_cast<size_t>(row / heap_->rows_per_page());
  if (imprints_.size() <= block) {
    imprints_.resize(block + 1, 0);
  }
  uint64_t bit = 1ULL << BinOf(key);
  if ((imprints_[block] & bit) == 0) {
    imprints_[block] |= bit;
    counters().OnWrite(DataClass::kAux, sizeof(uint64_t));
  }
}

void ImprintsColumn::CandidateRows(uint64_t mask, std::vector<RowId>* rows) {
  // The whole imprint vector is scanned -- it is tiny (8 bytes per block).
  counters().OnRead(DataClass::kAux, imprint_bytes());
  size_t per_page = heap_->rows_per_page();
  for (size_t block = 0; block < imprints_.size(); ++block) {
    if ((imprints_[block] & mask) == 0) continue;
    RowId first = static_cast<RowId>(block) * per_page;
    RowId last = std::min<RowId>(first + per_page, heap_->row_count());
    for (RowId row = first; row < last; ++row) {
      if (deleted_rows_.find(row) == deleted_rows_.end()) {
        rows->push_back(row);
      }
    }
  }
}

Result<RowId> ImprintsColumn::FindRow(Key key) {
  std::vector<RowId> rows;
  CandidateRows(1ULL << BinOf(key), &rows);
  RowId found = kInvalidRowId;
  Status s = heap_->ForRows(rows, [&](RowId row, const Entry& e) {
    if (e.key == key) found = row;
    return Status::OK();
  });
  if (!s.ok()) return s;
  return found;
}

Status ImprintsColumn::Rebuild() {
  std::vector<Entry> entries;
  entries.reserve(heap_->row_count());
  Status s = heap_->ForEach([&](RowId row, const Entry& e) {
    if (deleted_rows_.find(row) == deleted_rows_.end()) {
      entries.push_back(e);
    }
    return Status::OK();
  });
  if (!s.ok()) return s;
  s = heap_->Clear();
  if (!s.ok()) return s;
  imprints_.clear();
  deleted_rows_.clear();
  for (const Entry& e : entries) {
    Result<RowId> row = heap_->Append(e);
    if (!row.ok()) return row.status();
    Stamp(row.value(), e.key);
  }
  s = heap_->Flush();
  RecountAuxSpace();
  return s;
}

Status ImprintsColumn::Insert(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  Result<RowId> existing = FindRow(key);
  if (!existing.ok()) return existing.status();
  if (existing.value() != kInvalidRowId) {
    return heap_->Set(existing.value(), Entry{key, value});
  }
  Result<RowId> row = heap_->Append(Entry{key, value});
  if (!row.ok()) return row.status();
  Stamp(row.value(), key);
  ++live_;
  RecountAuxSpace();
  return Status::OK();
}

Status ImprintsColumn::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  Result<RowId> existing = FindRow(key);
  if (!existing.ok()) return existing.status();
  if (existing.value() == kInvalidRowId) return Status::OK();
  deleted_rows_.insert(existing.value());
  counters().OnWrite(DataClass::kAux, sizeof(RowId));
  --live_;
  RecountAuxSpace();
  if (static_cast<double>(deleted_rows_.size()) >
      options_.approx.rebuild_deleted_fraction *
          static_cast<double>(std::max<uint64_t>(1, heap_->row_count()))) {
    return Rebuild();
  }
  return Status::OK();
}

Result<Value> ImprintsColumn::Get(Key key) {
  counters().OnPointQuery();
  Result<RowId> row = FindRow(key);
  if (!row.ok()) return row.status();
  if (row.value() == kInvalidRowId) return Status::NotFound();
  Result<Entry> entry = heap_->At(row.value());
  if (!entry.ok()) return entry.status();
  counters().OnLogicalRead(kEntrySize);
  return entry.value().value;
}

Status ImprintsColumn::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  std::vector<RowId> rows;
  CandidateRows(MaskFor(lo, hi), &rows);
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

Status ImprintsColumn::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  for (const Entry& e : entries) {
    Result<RowId> row = heap_->Append(e);
    if (!row.ok()) return row.status();
    Stamp(row.value(), e.key);
  }
  s = heap_->Flush();
  if (!s.ok()) return s;
  live_ = entries.size();
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  RecountAuxSpace();
  return Status::OK();
}

Status ImprintsColumn::Flush() { return heap_->Flush(); }

}  // namespace rum
