#include "methods/zonemap/zonemap.h"

#include <algorithm>
#include <cassert>

#include "storage/page_format.h"

namespace rum {

ZoneMapColumn::ZoneMapColumn(const Options& options, Device* device)
    : device_(device, options.block_size, &counters()),
      page_capacity_(PageFormat::CapacityFor(device_->block_size())),
      zone_capacity_(options.zonemap.zone_entries) {
  zones_.push_back(Zone{kMinKey, kMaxKey, kMinKey, 0, {}});
  RecountAuxSpace();
}

ZoneMapColumn::~ZoneMapColumn() = default;

void ZoneMapColumn::RecountAuxSpace() {
  counters().SetSpace(DataClass::kAux,
                      static_cast<uint64_t>(zones_.size()) * kDescriptorSize);
}

size_t ZoneMapColumn::FindZoneCharged(Key key) {
  // The sparse index is scanned in full: it is small, and that is the point.
  counters().OnRead(DataClass::kAux,
                    static_cast<uint64_t>(zones_.size()) * kDescriptorSize);
  // Zones are ordered by `lo`; the key belongs to the last zone whose lower
  // bound does not exceed it.
  size_t idx = 0;
  for (size_t i = 0; i < zones_.size(); ++i) {
    if (zones_[i].lo <= key) idx = i;
  }
  return idx;
}

void ZoneMapColumn::TouchDescriptor() {
  counters().OnWrite(DataClass::kAux, kDescriptorSize);
  RecountAuxSpace();
}

Status ZoneMapColumn::LoadZonePage(const Zone& zone, size_t page_index,
                                   std::vector<Entry>* out) {
  assert(page_index < zone.pages.size());
  PageReadGuard guard;
  Status s = device_->PinForRead(zone.pages[page_index], &guard);
  if (!s.ok()) return s;
  return PageFormat::Unpack(guard.bytes(), out);
}

Status ZoneMapColumn::StoreZonePage(Zone* zone, size_t page_index,
                                    const std::vector<Entry>& entries) {
  assert(page_index < zone->pages.size());
  PageWriteGuard guard;
  Status s = device_->PinForWrite(zone->pages[page_index], &guard);
  if (!s.ok()) return s;
  s = PageFormat::PackInto(entries, guard.bytes());
  if (!s.ok()) return s;
  guard.MarkDirty();
  return guard.Release();
}

Status ZoneMapColumn::LoadZone(const Zone& zone, std::vector<Entry>* out) {
  out->clear();
  std::vector<Entry> page;
  for (size_t p = 0; p < zone.pages.size(); ++p) {
    Status s = LoadZonePage(zone, p, &page);
    if (!s.ok()) return s;
    out->insert(out->end(), page.begin(), page.end());
  }
  return Status::OK();
}

Status ZoneMapColumn::StoreZone(Zone* zone, std::vector<Entry>& entries) {
  size_t pages_needed = (entries.size() + page_capacity_ - 1) / page_capacity_;
  while (zone->pages.size() > pages_needed) {
    Status s = device_->Free(zone->pages.back());
    if (!s.ok()) return s;
    zone->pages.pop_back();
  }
  while (zone->pages.size() < pages_needed) {
    PageId page;
    Status s = device_->Allocate(DataClass::kBase, &page);
    if (!s.ok()) return s;
    zone->pages.push_back(page);
  }
  std::vector<Entry> page;
  for (size_t p = 0; p < pages_needed; ++p) {
    size_t begin = p * page_capacity_;
    size_t end = std::min(begin + page_capacity_, entries.size());
    page.assign(entries.begin() + static_cast<ptrdiff_t>(begin),
                entries.begin() + static_cast<ptrdiff_t>(end));
    Status s = StoreZonePage(zone, p, page);
    if (!s.ok()) return s;
  }
  zone->count = entries.size();
  if (!entries.empty()) {
    auto [mn, mx] = std::minmax_element(
        entries.begin(), entries.end(),
        [](const Entry& a, const Entry& b) { return a.key < b.key; });
    zone->min = mn->key;
    zone->max = mx->key;
  }
  return Status::OK();
}

Status ZoneMapColumn::SplitZone(size_t zone_index) {
  Zone& zone = zones_[zone_index];
  std::vector<Entry> entries;
  Status s = LoadZone(zone, &entries);
  if (!s.ok()) return s;
  std::sort(entries.begin(), entries.end());
  size_t half = entries.size() / 2;
  std::vector<Entry> left(entries.begin(),
                          entries.begin() + static_cast<ptrdiff_t>(half));
  std::vector<Entry> right(entries.begin() + static_cast<ptrdiff_t>(half),
                           entries.end());
  Zone new_zone;
  new_zone.lo = right.front().key;
  s = StoreZone(&zones_[zone_index], left);
  if (!s.ok()) return s;
  zones_.insert(zones_.begin() + static_cast<ptrdiff_t>(zone_index) + 1,
                std::move(new_zone));
  s = StoreZone(&zones_[zone_index + 1], right);
  if (!s.ok()) return s;
  TouchDescriptor();
  TouchDescriptor();
  return Status::OK();
}

Status ZoneMapColumn::Insert(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  size_t zi = FindZoneCharged(key);
  Zone& zone = zones_[zi];

  // Upsert: if the zone may contain the key, look for it first.
  if (zone.count > 0 && key >= zone.min && key <= zone.max) {
    std::vector<Entry> page;
    for (size_t p = 0; p < zone.pages.size(); ++p) {
      Status s = LoadZonePage(zone, p, &page);
      if (!s.ok()) return s;
      for (size_t i = 0; i < page.size(); ++i) {
        if (page[i].key == key) {
          page[i].value = value;
          return StoreZonePage(&zone, p, page);
        }
      }
    }
  }

  // Append into the zone's last page.
  std::vector<Entry> page;
  if (zone.pages.empty() ||
      zone.count % page_capacity_ == 0) {
    PageId tail;
    Status alloc = device_->Allocate(DataClass::kBase, &tail);
    if (!alloc.ok()) return alloc;
    zone.pages.push_back(tail);
    page.clear();
  } else {
    Status s = LoadZonePage(zone, zone.pages.size() - 1, &page);
    if (!s.ok()) return s;
  }
  page.push_back(Entry{key, value});
  Status s = StoreZonePage(&zone, zone.pages.size() - 1, page);
  if (!s.ok()) return s;
  if (zone.count == 0) {
    zone.min = key;
    zone.max = key;
  } else {
    zone.min = std::min(zone.min, key);
    zone.max = std::max(zone.max, key);
  }
  ++zone.count;
  ++count_;
  TouchDescriptor();

  if (zone.count >= zone_capacity_) {
    return SplitZone(zi);
  }
  return Status::OK();
}

Status ZoneMapColumn::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  size_t zi = FindZoneCharged(key);
  Zone& zone = zones_[zi];
  if (zone.count == 0 || key < zone.min || key > zone.max) {
    return Status::OK();  // Min/max pruning: nothing to do.
  }
  std::vector<Entry> entries;
  Status s = LoadZone(zone, &entries);
  if (!s.ok()) return s;
  auto it = std::find_if(entries.begin(), entries.end(),
                         [key](const Entry& e) { return e.key == key; });
  if (it == entries.end()) return Status::OK();
  *it = entries.back();
  entries.pop_back();
  s = StoreZone(&zone, entries);
  if (!s.ok()) return s;
  --count_;
  TouchDescriptor();
  return Status::OK();
}

Result<Value> ZoneMapColumn::Get(Key key) {
  counters().OnPointQuery();
  size_t zi = FindZoneCharged(key);
  Zone& zone = zones_[zi];
  if (zone.count == 0 || key < zone.min || key > zone.max) {
    return Status::NotFound();
  }
  // Scan each pinned page in place: no entry materialization.
  for (size_t p = 0; p < zone.pages.size(); ++p) {
    PageReadGuard guard;
    Status s = device_->PinForRead(zone.pages[p], &guard);
    if (!s.ok()) return s;
    size_t n = 0;
    s = PageFormat::CheckedCount(guard.bytes(), &n);
    if (!s.ok()) return s;
    for (size_t i = 0; i < n; ++i) {
      Entry e = PageFormat::EntryAt(guard.bytes(), i);
      if (e.key == key) {
        counters().OnLogicalRead(kEntrySize);
        return e.value;
      }
    }
  }
  return Status::NotFound();
}

Status ZoneMapColumn::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  counters().OnRead(DataClass::kAux,
                    static_cast<uint64_t>(zones_.size()) * kDescriptorSize);
  std::vector<Entry> hits;
  std::vector<Entry> page;
  for (Zone& zone : zones_) {
    if (zone.count == 0 || zone.max < lo || zone.min > hi) continue;
    for (size_t p = 0; p < zone.pages.size(); ++p) {
      Status s = LoadZonePage(zone, p, &page);
      if (!s.ok()) return s;
      for (const Entry& e : page) {
        if (e.key >= lo && e.key <= hi) hits.push_back(e);
      }
    }
  }
  std::sort(hits.begin(), hits.end());
  counters().OnLogicalRead(static_cast<uint64_t>(hits.size()) * kEntrySize);
  out->insert(out->end(), hits.begin(), hits.end());
  return Status::OK();
}

Status ZoneMapColumn::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  zones_.clear();
  size_t i = 0;
  while (i < entries.size()) {
    size_t end = std::min(i + zone_capacity_, entries.size());
    Zone zone;
    zone.lo = zones_.empty() ? kMinKey : entries[i].key;
    std::vector<Entry> chunk(entries.begin() + static_cast<ptrdiff_t>(i),
                             entries.begin() + static_cast<ptrdiff_t>(end));
    zones_.push_back(std::move(zone));
    s = StoreZone(&zones_.back(), chunk);
    if (!s.ok()) return s;
    counters().OnWrite(DataClass::kAux, kDescriptorSize);
    i = end;
  }
  if (zones_.empty()) {
    zones_.push_back(Zone{kMinKey, kMaxKey, kMinKey, 0, {}});
  }
  count_ = entries.size();
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  RecountAuxSpace();
  return Status::OK();
}

}  // namespace rum
