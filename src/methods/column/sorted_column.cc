#include "methods/column/sorted_column.h"

#include <algorithm>
#include <cassert>

#include "storage/page_format.h"

namespace rum {

namespace {
/// First slot in [0, n) of a packed entry page whose key is >= `key` (n
/// when none is), searched in place on the pinned block.
size_t LowerBoundInPage(std::span<const uint8_t> block, size_t n, Key key) {
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (PageFormat::EntryAt(block, mid).key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}
}  // namespace

SortedColumn::SortedColumn(const Options& options, Device* device)
    : device_(device, options.block_size, &counters()),
      capacity_(PageFormat::CapacityFor(device_->block_size())),
      sparse_(options.column.sparse_index) {}

void SortedColumn::RecountAuxSpace() {
  counters().SetSpace(DataClass::kAux,
                      static_cast<uint64_t>(fences_.size()) * sizeof(Key));
}

SortedColumn::~SortedColumn() = default;

Status SortedColumn::LoadPage(size_t page_index, std::vector<Entry>* out) {
  assert(page_index < pages_.size());
  PageReadGuard guard;
  Status s = device_->PinForRead(pages_[page_index], &guard);
  if (!s.ok()) return s;
  return PageFormat::Unpack(guard.bytes(), out);
}

Status SortedColumn::StorePage(size_t page_index,
                               const std::vector<Entry>& entries) {
  assert(page_index < pages_.size());
  PageWriteGuard guard;
  Status s = device_->PinForWrite(pages_[page_index], &guard);
  if (!s.ok()) return s;
  s = PageFormat::PackInto(entries, guard.bytes());
  if (!s.ok()) return s;
  guard.MarkDirty();
  s = guard.Release();
  if (!s.ok()) return s;
  if (sparse_ && !entries.empty()) {
    if (fences_.size() <= page_index) {
      fences_.resize(page_index + 1, 0);
    }
    if (fences_[page_index] != entries.front().key) {
      fences_[page_index] = entries.front().key;
      counters().OnWrite(DataClass::kAux, sizeof(Key));
    }
    RecountAuxSpace();
  }
  return Status::OK();
}

Result<size_t> SortedColumn::FindPage(Key key) {
  if (pages_.empty()) return static_cast<size_t>(0);
  if (sparse_) {
    // Binary search the in-memory fences: one aux key read per probe, no
    // device I/O until the single target page is fetched by the caller.
    size_t lo = 0;
    size_t hi = fences_.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      counters().OnRead(DataClass::kAux, sizeof(Key));
      if (fences_[mid] <= key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo == 0 ? 0 : lo - 1;
  }
  size_t lo = 0;
  size_t hi = pages_.size() - 1;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    // Each probe needs only the page's last key; read it off the pinned
    // block instead of materializing the page.
    PageReadGuard guard;
    Status s = device_->PinForRead(pages_[mid], &guard);
    if (!s.ok()) return s;
    size_t n = 0;
    s = PageFormat::CheckedCount(guard.bytes(), &n);
    if (!s.ok()) return s;
    // A page mid-column is never legitimately empty (Delete's borrow
    // cascade keeps all but the tail full); a zero count means the block
    // was lost before reaching the device (e.g. a dropped dirty page).
    if (n == 0) return Status::Corruption("empty sorted-column page");
    Key last_key = PageFormat::EntryAt(guard.bytes(), n - 1).key;
    if (last_key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status SortedColumn::Insert(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  if (pages_.empty()) {
    PageId first;
    Status alloc = device_->Allocate(DataClass::kBase, &first);
    if (!alloc.ok()) return alloc;
    pages_.push_back(first);
    Status s = StorePage(0, {Entry{key, value}});
    if (!s.ok()) return s;
    ++count_;
    return Status::OK();
  }
  Result<size_t> page = FindPage(key);
  if (!page.ok()) return page.status();
  size_t p = page.value();

  std::vector<Entry> entries;
  Status s = LoadPage(p, &entries);
  if (!s.ok()) return s;

  // Upsert: replace in place when the key exists.
  auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const Entry& e, Key k) { return e.key < k; });
  if (it != entries.end() && it->key == key) {
    it->value = value;
    return StorePage(p, entries);
  }
  entries.insert(it, Entry{key, value});
  ++count_;

  // Shift cascade: push the overflow entry of each full page into the next
  // page, all the way to the tail. This is Table 1's O(N/B/2) insert.
  Entry carry{};
  bool have_carry = false;
  if (entries.size() > capacity_) {
    carry = entries.back();
    entries.pop_back();
    have_carry = true;
  }
  s = StorePage(p, entries);
  if (!s.ok()) return s;
  size_t q = p + 1;
  while (have_carry) {
    if (q == pages_.size()) {
      PageId tail;
      s = device_->Allocate(DataClass::kBase, &tail);
      if (!s.ok()) return s;
      pages_.push_back(tail);
      s = StorePage(q, {carry});
      if (!s.ok()) return s;
      break;
    }
    std::vector<Entry> next;
    s = LoadPage(q, &next);
    if (!s.ok()) return s;
    next.insert(next.begin(), carry);
    have_carry = false;
    if (next.size() > capacity_) {
      carry = next.back();
      next.pop_back();
      have_carry = true;
    }
    s = StorePage(q, next);
    if (!s.ok()) return s;
    ++q;
  }
  return Status::OK();
}

Status SortedColumn::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  if (pages_.empty()) return Status::OK();
  Result<size_t> page = FindPage(key);
  if (!page.ok()) return page.status();
  size_t p = page.value();

  std::vector<Entry> entries;
  Status s = LoadPage(p, &entries);
  if (!s.ok()) return s;
  auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const Entry& e, Key k) { return e.key < k; });
  if (it == entries.end() || it->key != key) return Status::OK();
  entries.erase(it);
  --count_;

  // Borrow cascade: pull the first entry of every following page back so
  // all pages but the last stay full.
  for (size_t q = p + 1; q < pages_.size(); ++q) {
    std::vector<Entry> next;
    s = LoadPage(q, &next);
    if (!s.ok()) return s;
    if (next.empty()) return Status::Corruption("empty sorted-column page");
    entries.push_back(next.front());
    next.erase(next.begin());
    s = StorePage(p, entries);
    if (!s.ok()) return s;
    entries = std::move(next);
    p = q;
  }
  if (entries.empty()) {
    s = device_->Free(pages_[p]);
    if (!s.ok()) return s;
    pages_.erase(pages_.begin() + static_cast<ptrdiff_t>(p));
    if (sparse_ && p < fences_.size()) {
      fences_.erase(fences_.begin() + static_cast<ptrdiff_t>(p));
      RecountAuxSpace();
    }
  } else {
    s = StorePage(p, entries);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<Value> SortedColumn::Get(Key key) {
  counters().OnPointQuery();
  if (pages_.empty()) return Status::NotFound();
  Result<size_t> page = FindPage(key);
  if (!page.ok()) return page.status();
  // Binary search the pinned page in place: no entry materialization.
  PageReadGuard guard;
  Status s = device_->PinForRead(pages_[page.value()], &guard);
  if (!s.ok()) return s;
  size_t n = 0;
  s = PageFormat::CheckedCount(guard.bytes(), &n);
  if (!s.ok()) return s;
  size_t lo = LowerBoundInPage(guard.bytes(), n, key);
  if (lo >= n) return Status::NotFound();
  Entry e = PageFormat::EntryAt(guard.bytes(), lo);
  if (e.key != key) return Status::NotFound();
  counters().OnLogicalRead(kEntrySize);
  return e.value;
}

Status SortedColumn::MultiGet(std::span<const Key> keys,
                              std::vector<std::optional<Value>>* out) {
  // A single key gains nothing from batching; take Get's exact path (and
  // its exact charge sequence) via the base-class loop.
  if (keys.size() <= 1) return AccessMethod::MultiGet(keys, out);
  out->assign(keys.size(), std::nullopt);
  for (size_t i = 0; i < keys.size(); ++i) counters().OnPointQuery();
  if (pages_.empty() || keys.empty()) return Status::OK();
  std::vector<std::pair<Key, uint32_t>> batch;
  batch.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    batch.push_back({keys[i], static_cast<uint32_t>(i)});
  }
  std::sort(batch.begin(), batch.end());
  // Locate per key with Get's exact FindPage charges (duplicates share one
  // search); ascending keys land on ascending pages, so equal pages form
  // contiguous groups below.
  std::vector<size_t> page_of(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i > 0 && batch[i].first == batch[i - 1].first) {
      page_of[i] = page_of[i - 1];
      continue;
    }
    Result<size_t> page = FindPage(batch[i].first);
    if (!page.ok()) return page.status();
    page_of[i] = page.value();
  }
  size_t s = 0;
  while (s < batch.size()) {
    size_t e = s + 1;
    while (e < batch.size() && page_of[e] == page_of[s]) ++e;
    // One pin serves the whole group; the Get loop would have pinned the
    // page once per key.
    if (e - s > 1) counters().OnBatchedPageHits(e - s - 1);
    PageReadGuard guard;
    Status st = device_->PinForRead(pages_[page_of[s]], &guard);
    if (!st.ok()) return st;
    size_t n = 0;
    st = PageFormat::CheckedCount(guard.bytes(), &n);
    if (!st.ok()) return st;
    for (size_t i = s; i < e; ++i) {
      Key key = batch[i].first;
      size_t lo = LowerBoundInPage(guard.bytes(), n, key);
      if (lo >= n) continue;
      Entry entry = PageFormat::EntryAt(guard.bytes(), lo);
      if (entry.key != key) continue;
      counters().OnLogicalRead(kEntrySize);
      (*out)[batch[i].second] = entry.value;
    }
    s = e;
  }
  return Status::OK();
}

Status SortedColumn::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  if (pages_.empty()) return Status::OK();
  Result<size_t> page = FindPage(lo);
  if (!page.ok()) return page.status();
  uint64_t found = 0;
  std::vector<Entry> entries;
  for (size_t p = page.value(); p < pages_.size(); ++p) {
    Status s = LoadPage(p, &entries);
    if (!s.ok()) return s;
    bool past_end = false;
    for (const Entry& e : entries) {
      if (e.key > hi) {
        past_end = true;
        break;
      }
      if (e.key >= lo) {
        out->push_back(e);
        ++found;
      }
    }
    if (past_end) break;
  }
  counters().OnLogicalRead(found * kEntrySize);
  return Status::OK();
}

Status SortedColumn::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  std::vector<Entry> page;
  page.reserve(capacity_);
  for (const Entry& e : entries) {
    page.push_back(e);
    if (page.size() == capacity_) {
      PageId id;
      s = device_->Allocate(DataClass::kBase, &id);
      if (!s.ok()) return s;
      pages_.push_back(id);
      s = StorePage(pages_.size() - 1, page);
      if (!s.ok()) return s;
      page.clear();
    }
  }
  if (!page.empty()) {
    PageId id;
    s = device_->Allocate(DataClass::kBase, &id);
    if (!s.ok()) return s;
    pages_.push_back(id);
    s = StorePage(pages_.size() - 1, page);
    if (!s.ok()) return s;
  }
  count_ = entries.size();
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  return Status::OK();
}

}  // namespace rum
