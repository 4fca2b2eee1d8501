#include "methods/approx/bloom_column.h"

#include <algorithm>

namespace rum {

BloomZoneColumn::BloomZoneColumn(const Options& options, Device* device)
    : options_(options),
      device_(device, options.block_size, &counters()),
      heap_(std::make_unique<HeapFile>(device_.get(), DataClass::kBase,
                                       &counters())) {
  MaybeRegisterPool();
}

BloomZoneColumn::~BloomZoneColumn() {
  if (registrar_ != nullptr) registrar_->UnregisterPool(this);
}

void BloomZoneColumn::MaybeRegisterPool() {
  bits_per_key_.store(options_.approx.bits_per_key,
                      std::memory_order_relaxed);
  filter_budget_bytes_.store(
      static_cast<uint64_t>(options_.approx.bits_per_key) *
          std::max<uint64_t>(1, options_.approx.zone_entries) / 8,
      std::memory_order_relaxed);
  if (!options_.memory.enabled || options_.memory.arbiter == nullptr) return;
  registrar_ = options_.memory.arbiter;
  registrar_->RegisterPool(this);
}

void BloomZoneColumn::SetPoolBytes(uint64_t bytes) {
  filter_budget_bytes_.store(bytes, std::memory_order_relaxed);
  // Takes effect for zones created from now on; Rebuild re-filters the
  // existing ones.
  SetBitsPerKey(BloomBitsForBudget(
      bytes, approx_rows_.load(std::memory_order_relaxed),
      options_.approx.zone_entries));
}

void BloomZoneColumn::IndexAppendedRow(Key key, RowId row) {
  if (zones_.empty() || zones_.back().rows >= options_.approx.zone_entries) {
    Zone zone;
    // The *live* bits-per-key knob, not the configured value: this zone
    // boundary is exactly where an arbiter re-budget lands.
    zone.filter = std::make_unique<BloomFilter>(
        options_.approx.zone_entries, bits_per_key(), &counters());
    zone.first_row = row;
    zone.rows = 0;
    zones_.push_back(std::move(zone));
  }
  zones_.back().filter->Add(key);
  ++zones_.back().rows;
  approx_rows_.store(heap_->row_count(), std::memory_order_relaxed);
}

Result<RowId> BloomZoneColumn::FindRow(Key key) {
  RowId found = kInvalidRowId;
  for (const Zone& zone : zones_) {
    if (!zone.filter->MayContain(key)) {
      filter_stats_.negatives.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Candidate zone: scan its rows.
    std::vector<RowId> rows;
    rows.reserve(zone.rows);
    for (uint64_t i = 0; i < zone.rows; ++i) {
      rows.push_back(zone.first_row + i);
    }
    Status s = heap_->ForRows(rows, [&](RowId row, const Entry& e) {
      if (e.key == key && deleted_rows_.find(row) == deleted_rows_.end()) {
        found = row;
      }
      return Status::OK();
    });
    if (!s.ok()) return s;
    if (found != kInvalidRowId) {
      filter_stats_.true_positives.fetch_add(1, std::memory_order_relaxed);
      return found;
    }
    // The filter said "maybe", the scan said no: a false positive -- the
    // arbiter's evidence that this column's filters are under-provisioned.
    filter_stats_.false_positives.fetch_add(1, std::memory_order_relaxed);
  }
  return found;
}

Status BloomZoneColumn::Rebuild() {
  // Read everything live, clear, and re-append -- the garbage collection a
  // filter-based index must eventually pay for deletes.
  std::vector<Entry> live;
  live.reserve(heap_->row_count());
  Status s = heap_->ForEach([&](RowId row, const Entry& e) {
    if (deleted_rows_.find(row) == deleted_rows_.end()) live.push_back(e);
    return Status::OK();
  });
  if (!s.ok()) return s;
  s = heap_->Clear();
  if (!s.ok()) return s;
  zones_.clear();  // Bloom destructors release their auxiliary space.
  counters().AdjustSpace(
      DataClass::kAux,
      -static_cast<int64_t>(deleted_rows_.size() * sizeof(RowId)));
  deleted_rows_.clear();
  for (const Entry& e : live) {
    Result<RowId> row = heap_->Append(e);
    if (!row.ok()) return row.status();
    IndexAppendedRow(e.key, row.value());
  }
  return heap_->Flush();
}

Status BloomZoneColumn::Insert(Key key, Value value) {
  TickRegistrar();
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  Result<RowId> existing = FindRow(key);
  if (!existing.ok()) return existing.status();
  if (existing.value() != kInvalidRowId) {
    return heap_->Set(existing.value(), Entry{key, value});
  }
  Result<RowId> row = heap_->Append(Entry{key, value});
  if (!row.ok()) return row.status();
  IndexAppendedRow(key, row.value());
  ++live_;
  return Status::OK();
}

Status BloomZoneColumn::Delete(Key key) {
  TickRegistrar();
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  Result<RowId> existing = FindRow(key);
  if (!existing.ok()) return existing.status();
  if (existing.value() == kInvalidRowId) return Status::OK();
  deleted_rows_.insert(existing.value());
  counters().OnWrite(DataClass::kAux, sizeof(RowId));
  counters().AdjustSpace(DataClass::kAux, sizeof(RowId));
  --live_;
  if (static_cast<double>(deleted_rows_.size()) >
      options_.approx.rebuild_deleted_fraction *
          static_cast<double>(std::max<uint64_t>(1, heap_->row_count()))) {
    return Rebuild();
  }
  return Status::OK();
}

Result<Value> BloomZoneColumn::Get(Key key) {
  TickRegistrar();
  counters().OnPointQuery();
  Result<RowId> row = FindRow(key);
  if (!row.ok()) return row.status();
  if (row.value() == kInvalidRowId) return Status::NotFound();
  Result<Entry> entry = heap_->At(row.value());
  if (!entry.ok()) return entry.status();
  counters().OnLogicalRead(kEntrySize);
  return entry.value().value;
}

Status BloomZoneColumn::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  TickRegistrar();
  counters().OnRangeQuery();
  // Filters are orderless: the whole column is scanned.
  std::vector<Entry> hits;
  Status s = heap_->ForEach([&](RowId row, const Entry& e) {
    if (e.key >= lo && e.key <= hi &&
        deleted_rows_.find(row) == deleted_rows_.end()) {
      hits.push_back(e);
    }
    return Status::OK();
  });
  if (!s.ok()) return s;
  std::sort(hits.begin(), hits.end());
  counters().OnLogicalRead(static_cast<uint64_t>(hits.size()) * kEntrySize);
  out->insert(out->end(), hits.begin(), hits.end());
  return Status::OK();
}

Status BloomZoneColumn::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  for (const Entry& e : entries) {
    Result<RowId> row = heap_->Append(e);
    if (!row.ok()) return row.status();
    IndexAppendedRow(e.key, row.value());
  }
  live_ = entries.size();
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  return heap_->Flush();
}

Status BloomZoneColumn::Flush() { return heap_->Flush(); }

}  // namespace rum
