#include "methods/hash/hash_index.h"

#include <algorithm>
#include <cassert>

#include "methods/sketch/bloom_filter.h"
#include "storage/page_format.h"

namespace rum {

namespace {
constexpr double kMaxLoad = 0.7;
}  // namespace

HashIndex::HashIndex(const Options& options, Device* device)
    : device_(device, options.block_size, &counters()),
      slots_per_page_(PageFormat::CapacityFor(device_->block_size())),
      fanout_(options.hash.directory_fanout),
      heap_(std::make_unique<HeapFile>(device_.get(), DataClass::kBase,
                                       &counters())) {}

HashIndex::~HashIndex() = default;

HashIndex::SlotRef HashIndex::RefFor(size_t slot) const {
  return SlotRef{slot / slots_per_page_, slot % slots_per_page_};
}

Status HashIndex::LoadSlotPage(size_t page_index) {
  if (cached_index_ == page_index) return Status::OK();
  Status s = StoreSlotPage(cached_index_);
  if (!s.ok()) return s;
  PageReadGuard guard;
  s = device_->PinForRead(dir_pages_[page_index], &guard);
  if (!s.ok()) return s;
  s = PageFormat::Unpack(guard.bytes(), &cached_page_);
  // Every directory page is written full; a short one (e.g. a dirty page
  // lost in a crash) must not be indexed by slot offset.
  if (s.ok() && cached_page_.size() != slots_per_page_) {
    s = Status::Corruption("hash directory page is short");
  }
  if (!s.ok()) {
    cached_index_ = static_cast<size_t>(-1);  // cached_page_ is clobbered.
    return s;
  }
  cached_index_ = page_index;
  cached_dirty_ = false;
  return Status::OK();
}

Status HashIndex::StoreSlotPage(size_t page_index) {
  if (page_index == static_cast<size_t>(-1) || !cached_dirty_) {
    return Status::OK();
  }
  assert(page_index == cached_index_);
  PageWriteGuard guard;
  Status s = device_->PinForWrite(dir_pages_[page_index], &guard);
  if (!s.ok()) return s;
  s = PageFormat::PackInto(cached_page_, guard.bytes());
  if (!s.ok()) return s;
  guard.MarkDirty();
  s = guard.Release();
  if (!s.ok()) return s;
  cached_dirty_ = false;
  return Status::OK();
}

Status HashIndex::BuildDirectory(size_t slots) {
  // Round up to whole pages of empty slots. The new pages replace the
  // directory only once all are written: a failed build leaves the old one
  // (and slot_count_ with it) intact.
  size_t pages = (slots + slots_per_page_ - 1) / slots_per_page_;
  pages = std::max<size_t>(pages, 1);
  std::vector<PageId> built;
  std::vector<Entry> empty(slots_per_page_, Entry{0, kEmptySlot});
  for (size_t p = 0; p < pages; ++p) {
    PageId page;
    Status s = device_->Allocate(DataClass::kAux, &page);
    if (s.ok()) {
      built.push_back(page);
      PageWriteGuard guard;
      s = device_->PinForWrite(page, &guard);
      if (s.ok()) s = PageFormat::PackInto(empty, guard.bytes());
      if (s.ok()) {
        guard.MarkDirty();
        s = guard.Release();
      }
    }
    if (!s.ok()) {
      for (PageId b : built) (void)device_->Free(b);
      return s;
    }
  }
  dir_pages_ = std::move(built);
  slot_count_ = pages * slots_per_page_;
  used_slots_ = 0;
  cached_index_ = static_cast<size_t>(-1);
  cached_dirty_ = false;
  return Status::OK();
}

Result<bool> HashIndex::Probe(Key key, size_t* found_slot) {
  assert(slot_count_ > 0);
  size_t slot = static_cast<size_t>(MixHash(key) % slot_count_);
  size_t insertable = static_cast<size_t>(-1);
  for (size_t step = 0; step < slot_count_; ++step) {
    SlotRef ref = RefFor(slot);
    Status s = LoadSlotPage(ref.page_index);
    if (!s.ok()) return s;
    const Entry& e = cached_page_[ref.offset];
    if (e.value == kEmptySlot) {
      *found_slot = insertable != static_cast<size_t>(-1) ? insertable : slot;
      return false;
    }
    if (e.value == kTombstoneSlot) {
      if (insertable == static_cast<size_t>(-1)) insertable = slot;
    } else if (e.key == key) {
      *found_slot = slot;
      return true;
    }
    slot = (slot + 1) % slot_count_;
  }
  if (insertable != static_cast<size_t>(-1)) {
    *found_slot = insertable;
    return false;
  }
  return Status::ResourceExhausted("hash directory full");
}

Result<Entry> HashIndex::RowFor(Key key, RowId row) {
  Result<Entry> entry = heap_->At(row);
  // A directory slot and its heap row are written separately; after a crash
  // or a failed write the slot can name another key's row.
  if (entry.ok() && entry.value().key != key) {
    return Status::Corruption("hash directory slot names another key's row");
  }
  return entry;
}

Status HashIndex::WriteSlot(size_t slot, Key key, RowId row) {
  SlotRef ref = RefFor(slot);
  Status s = LoadSlotPage(ref.page_index);
  if (!s.ok()) return s;
  cached_page_[ref.offset] = Entry{key, row};
  cached_dirty_ = true;
  return StoreSlotPage(ref.page_index);
}

Status HashIndex::Rehash(size_t new_slots) {
  // Collect all live (key, row) pairs by scanning the old directory.
  std::vector<Entry> pairs;
  pairs.reserve(live_);
  std::vector<Entry> page;
  std::vector<PageId> old_pages = dir_pages_;
  for (PageId p : old_pages) {
    PageReadGuard guard;
    Status s = device_->PinForRead(p, &guard);
    if (!s.ok()) return s;
    s = PageFormat::Unpack(guard.bytes(), &page);
    if (!s.ok()) return s;
    for (const Entry& e : page) {
      if (e.value != kEmptySlot && e.value != kTombstoneSlot) {
        pairs.push_back(e);
      }
    }
  }
  Status s = BuildDirectory(new_slots);
  if (!s.ok()) return s;
  for (PageId p : old_pages) {
    s = device_->Free(p);
    if (!s.ok()) return s;
  }
  for (const Entry& e : pairs) {
    size_t slot;
    Result<bool> found = Probe(e.key, &slot);
    if (!found.ok()) return found.status();
    if (found.value()) {
      return Status::Corruption("hash directory repeats a key");
    }
    SlotRef ref = RefFor(slot);
    s = LoadSlotPage(ref.page_index);
    if (!s.ok()) return s;
    cached_page_[ref.offset] = e;
    cached_dirty_ = true;
    ++used_slots_;
  }
  return StoreSlotPage(cached_index_);
}

Status HashIndex::Insert(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  if (slot_count_ == 0) {
    Status s = BuildDirectory(slots_per_page_);
    if (!s.ok()) return s;
  }
  size_t slot;
  Result<bool> found = Probe(key, &slot);
  if (!found.ok()) return found.status();
  if (found.value()) {
    SlotRef ref = RefFor(slot);
    Status s = LoadSlotPage(ref.page_index);
    if (!s.ok()) return s;
    RowId row = cached_page_[ref.offset].value;
    return heap_->Set(row, Entry{key, value});
  }
  Result<RowId> row = heap_->Append(Entry{key, value});
  if (!row.ok()) return row.status();
  Status s = WriteSlot(slot, key, row.value());
  if (!s.ok()) return s;
  ++live_;
  ++used_slots_;
  if (static_cast<double>(used_slots_) >
      kMaxLoad * static_cast<double>(slot_count_)) {
    return Rehash(slot_count_ * 2);
  }
  return Status::OK();
}

Status HashIndex::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  if (slot_count_ == 0) return Status::OK();
  size_t slot;
  Result<bool> found = Probe(key, &slot);
  if (!found.ok()) return found.status();
  if (!found.value()) return Status::OK();  // Idempotent.

  SlotRef ref = RefFor(slot);
  Status s = LoadSlotPage(ref.page_index);
  if (!s.ok()) return s;
  RowId row = cached_page_[ref.offset].value;
  s = WriteSlot(slot, 0, kTombstoneSlot);
  if (!s.ok()) return s;
  --live_;

  // Keep the heap dense: move the last row into the hole and repoint its
  // directory slot.
  RowId last = heap_->row_count() - 1;
  if (row != last) {
    Result<Entry> moved = heap_->At(last);
    if (!moved.ok()) return moved.status();
    s = heap_->Set(row, moved.value());
    if (!s.ok()) return s;
    size_t moved_slot;
    Result<bool> moved_found = Probe(moved.value().key, &moved_slot);
    if (!moved_found.ok()) return moved_found.status();
    if (!moved_found.value()) {
      return Status::Corruption("hash directory lost a heap row's key");
    }
    s = WriteSlot(moved_slot, moved.value().key, row);
    if (!s.ok()) return s;
  }
  return heap_->PopBack();
}

Result<Value> HashIndex::Get(Key key) {
  counters().OnPointQuery();
  if (slot_count_ == 0) return Status::NotFound();
  size_t slot;
  Result<bool> found = Probe(key, &slot);
  if (!found.ok()) return found.status();
  if (!found.value()) return Status::NotFound();
  SlotRef ref = RefFor(slot);
  Status s = LoadSlotPage(ref.page_index);
  if (!s.ok()) return s;
  RowId row = cached_page_[ref.offset].value;
  Result<Entry> entry = RowFor(key, row);
  if (!entry.ok()) return entry.status();
  counters().OnLogicalRead(kEntrySize);
  return entry.value().value;
}

Status HashIndex::MultiGet(std::span<const Key> keys,
                           std::vector<std::optional<Value>>* out) {
  // A single key gains nothing from batching; take Get's exact path (and
  // its exact charge sequence) via the base-class loop.
  if (keys.size() <= 1) return AccessMethod::MultiGet(keys, out);
  out->assign(keys.size(), std::nullopt);
  for (size_t i = 0; i < keys.size(); ++i) counters().OnPointQuery();
  if (slot_count_ == 0 || keys.empty()) return Status::OK();
  struct Op {
    size_t slot;  // Initial probe slot: MixHash(key) % slot_count_.
    Key key;
    uint32_t idx;
  };
  std::vector<Op> ops;
  ops.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ops.push_back(Op{static_cast<size_t>(MixHash(keys[i]) % slot_count_),
                     keys[i], static_cast<uint32_t>(i)});
  }
  // Ascending initial slots keep the single-page probe cache moving
  // forward: keys landing on the same directory page become adjacent, and
  // equal keys (same slot) become duplicates resolved by copy.
  std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    if (a.slot != b.slot) return a.slot < b.slot;
    if (a.key != b.key) return a.key < b.key;
    return a.idx < b.idx;
  });
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0 && ops[i].key == ops[i - 1].key) {
      // Duplicate: the Get loop would have re-run the whole probe; copy the
      // first occurrence's resolution instead.
      if ((*out)[ops[i - 1].idx].has_value()) {
        counters().OnLogicalRead(kEntrySize);
        (*out)[ops[i].idx] = (*out)[ops[i - 1].idx];
      }
      counters().OnBatchedPageHits(1);
      continue;
    }
    if (i > 0 && RefFor(ops[i].slot).page_index ==
                     RefFor(ops[i - 1].slot).page_index) {
      // Same directory page as the previous probe's start: the probe cache
      // serves the fill the Get loop would charge per key.
      counters().OnBatchedPageHits(1);
    }
    size_t slot;
    Result<bool> found = Probe(ops[i].key, &slot);
    if (!found.ok()) return found.status();
    if (!found.value()) continue;
    SlotRef ref = RefFor(slot);
    Status s = LoadSlotPage(ref.page_index);
    if (!s.ok()) return s;
    RowId row = cached_page_[ref.offset].value;
    Result<Entry> entry = RowFor(ops[i].key, row);
    if (!entry.ok()) return entry.status();
    counters().OnLogicalRead(kEntrySize);
    (*out)[ops[i].idx] = entry.value().value;
  }
  return Status::OK();
}

Status HashIndex::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  // Hashing destroys order: the whole heap is scanned (Table 1, O(N/B)).
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

Status HashIndex::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  // Never build a directory the load limit cannot accommodate, whatever
  // the configured fanout.
  double fanout = std::max(fanout_, 1.0 / kMaxLoad + 0.05);
  size_t slots = std::max<size_t>(
      slots_per_page_,
      static_cast<size_t>(static_cast<double>(entries.size()) * fanout));
  s = BuildDirectory(slots);
  if (!s.ok()) return s;
  for (const Entry& e : entries) {
    Result<RowId> row = heap_->Append(e);
    if (!row.ok()) return row.status();
    size_t slot;
    Result<bool> found = Probe(e.key, &slot);
    if (!found.ok()) return found.status();
    SlotRef ref = RefFor(slot);
    s = LoadSlotPage(ref.page_index);
    if (!s.ok()) return s;
    cached_page_[ref.offset] = Entry{e.key, row.value()};
    cached_dirty_ = true;
    ++used_slots_;
    ++live_;  // Counted per slot, so a failed load leaves them in step.
  }
  s = StoreSlotPage(cached_index_);
  if (!s.ok()) return s;
  s = heap_->Flush();
  if (!s.ok()) return s;
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  return Status::OK();
}

Status HashIndex::Flush() {
  Status s = StoreSlotPage(cached_index_);
  if (!s.ok()) return s;
  return heap_->Flush();
}

}  // namespace rum
