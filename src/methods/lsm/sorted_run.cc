#include "methods/lsm/sorted_run.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "storage/page_format.h"

namespace rum {

namespace {
constexpr size_t kRunHeaderSize = sizeof(uint64_t);

size_t RecordsPerBlock(size_t block_size) {
  return (block_size - kRunHeaderSize) / LogRecord::kWireSize;
}

/// The one record binary search every lookup path shares: first index in
/// [lo, n) whose key under `key_at` is >= `key` (n when none is). `key_at`
/// abstracts the page representation -- decoded records or fixed-width wire
/// records searched in place.
template <typename KeyAt>
size_t LowerBoundSlot(size_t lo, size_t n, Key key, const KeyAt& key_at) {
  size_t hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (key_at(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The record count of an uncompressed run page, validated against the
/// block so a corrupt header can never index past it.
Status CheckedRunCount(std::span<const uint8_t> block, size_t* count) {
  if (block.size() < kRunHeaderSize) {
    return Status::Corruption("run block too small");
  }
  uint64_t n = DecodeU64(block.data());
  if (n > RecordsPerBlock(block.size())) {
    return Status::Corruption("run record count exceeds block");
  }
  *count = static_cast<size_t>(n);
  return Status::OK();
}

/// Encodes records [begin, end) (count header + wire records) in place into
/// a block, zeroing it first.
void PackLogRecordsInto(const std::vector<LogRecord>& records, size_t begin,
                        size_t end, std::span<uint8_t> block) {
  assert(end >= begin && end - begin <= RecordsPerBlock(block.size()));
  std::memset(block.data(), 0, block.size());
  EncodeU64(end - begin, block.data());
  uint8_t* cursor = block.data() + kRunHeaderSize;
  for (size_t i = begin; i < end; ++i) {
    EncodeU64(records[i].key, cursor);
    EncodeU64(records[i].value, cursor + 8);
    cursor[16] = static_cast<uint8_t>(records[i].op);
    cursor += LogRecord::kWireSize;
  }
}

Status UnpackLogRecords(std::span<const uint8_t> block,
                        std::vector<LogRecord>* out) {
  size_t n = 0;
  Status s = CheckedRunCount(block, &n);
  if (!s.ok()) return s;
  out->clear();
  out->reserve(n);
  const uint8_t* cursor = block.data() + kRunHeaderSize;
  for (size_t i = 0; i < n; ++i) {
    LogRecord r;
    r.key = DecodeU64(cursor);
    r.value = DecodeU64(cursor + 8);
    r.op = static_cast<LogOp>(cursor[16]);
    out->push_back(r);
    cursor += LogRecord::kWireSize;
  }
  return Status::OK();
}

// Compressed page layout: [0,8) record count, then per record a varint
// key delta (from the previous record in the page; the first record
// stores its full key), 8 raw value bytes, and an op byte.
void AppendCompressedRecord(const LogRecord& r, Key prev_key,
                            std::vector<uint8_t>* payload) {
  EncodeVarint64(r.key - prev_key, payload);
  uint8_t value_buf[8];
  EncodeU64(r.value, value_buf);
  payload->insert(payload->end(), value_buf, value_buf + 8);
  payload->push_back(static_cast<uint8_t>(r.op));
}

size_t CompressedRecordSize(const LogRecord& r, Key prev_key) {
  return VarintLength(r.key - prev_key) + 8 + 1;
}

Status UnpackCompressedRecords(std::span<const uint8_t> block,
                               std::vector<LogRecord>* out) {
  if (block.size() < kRunHeaderSize) {
    return Status::Corruption("run block too small");
  }
  uint64_t n = DecodeU64(block.data());
  out->clear();
  out->reserve(n);
  size_t offset = kRunHeaderSize;
  Key prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (offset + 9 > block.size()) {
      return Status::Corruption("compressed record truncated");
    }
    Key delta = DecodeVarint64(block.data(), block.size(), &offset);
    if (offset + 9 > block.size()) {
      return Status::Corruption("compressed record truncated");
    }
    LogRecord r;
    r.key = prev + delta;
    r.value = DecodeU64(block.data() + offset);
    offset += 8;
    r.op = static_cast<LogOp>(block[offset++]);
    out->push_back(r);
    prev = r.key;
  }
  return Status::OK();
}

}  // namespace

SortedRun::SortedRun(Device* device, RumCounters* counters)
    : device_(device), counters_(counters) {}

Status SortedRun::Build(Device* device, RumCounters* counters,
                        const std::vector<LogRecord>& records,
                        size_t bloom_bits_per_key,
                        std::unique_ptr<SortedRun>* out,
                        size_t fence_entries, bool compress,
                        bool blocked_bloom) {
  assert(device != nullptr && counters != nullptr);
  assert(std::is_sorted(records.begin(), records.end(),
                        [](const LogRecord& a, const LogRecord& b) {
                          return a.key < b.key;
                        }));
  if (records.empty()) {
    return Status::InvalidArgument("cannot build an empty run");
  }
  auto run = std::unique_ptr<SortedRun>(new SortedRun(device, counters));
  run->records_per_page_ = RecordsPerBlock(device->block_size());
  run->record_count_ = records.size();
  run->min_key_ = records.front().key;
  run->max_key_ = records.back().key;

  if (bloom_bits_per_key > 0) {
    if (blocked_bloom) {
      run->blocked_bloom_ = std::make_unique<BlockedBloomFilter>(
          records.size(), bloom_bits_per_key, counters);
      for (const LogRecord& r : records) {
        run->blocked_bloom_->Add(r.key);
      }
    } else {
      run->bloom_ = std::make_unique<BloomFilter>(
          records.size(), bloom_bits_per_key, counters);
      for (const LogRecord& r : records) {
        run->bloom_->Add(r.key);
      }
    }
  }

  run->pages_per_fence_ = std::max<size_t>(
      1, (fence_entries + run->records_per_page_ - 1) /
             run->records_per_page_);
  run->compressed_ = compress;

  if (!compress) {
    for (size_t i = 0; i < records.size(); i += run->records_per_page_) {
      size_t end = std::min(i + run->records_per_page_, records.size());
      PageId page;
      Status alloc = device->Allocate(DataClass::kBase, &page);
      if (!alloc.ok()) return alloc;
      // Encode directly into the pinned page; no staging copy.
      PageWriteGuard guard;
      Status s = device->PinForWrite(page, &guard);
      if (!s.ok()) {
        (void)device->Free(page);  // Un-tracked page must not leak space.
        return s;
      }
      PackLogRecordsInto(records, i, end, guard.bytes());
      guard.MarkDirty();
      s = guard.Release();
      if (!s.ok()) {
        (void)device->Free(page);
        return s;
      }
      if (run->pages_.size() % run->pages_per_fence_ == 0) {
        run->fences_.push_back(records[i].key);
      }
      run->pages_.push_back(page);
    }
  } else {
    // Greedy variable packing: fill each page until the next record's
    // encoded form would overflow.
    size_t block_size = device->block_size();
    std::vector<uint8_t> payload;
    payload.reserve(block_size);
    uint64_t page_count = 0;
    Key prev = 0;
    Key first_key = 0;
    auto seal = [&]() -> Status {
      PageId page;
      Status alloc = device->Allocate(DataClass::kBase, &page);
      if (!alloc.ok()) return alloc;
      PageWriteGuard guard;
      Status s = device->PinForWrite(page, &guard);
      if (!s.ok()) {
        (void)device->Free(page);  // Un-tracked page must not leak space.
        return s;
      }
      std::memset(guard.bytes().data(), 0, guard.bytes().size());
      EncodeU64(page_count, guard.bytes().data());
      std::copy(payload.begin(), payload.end(),
                guard.bytes().begin() + kRunHeaderSize);
      guard.MarkDirty();
      s = guard.Release();
      if (!s.ok()) {
        (void)device->Free(page);
        return s;
      }
      if (run->pages_.size() % run->pages_per_fence_ == 0) {
        run->fences_.push_back(first_key);
      }
      run->pages_.push_back(page);
      payload.clear();
      page_count = 0;
      prev = 0;
      return Status::OK();
    };
    for (const LogRecord& r : records) {
      size_t need = CompressedRecordSize(r, page_count == 0 ? 0 : prev);
      if (page_count > 0 &&
          kRunHeaderSize + payload.size() + need > block_size) {
        Status s = seal();
        if (!s.ok()) return s;
      }
      if (page_count == 0) first_key = r.key;
      AppendCompressedRecord(r, page_count == 0 ? 0 : prev, &payload);
      prev = r.key;
      ++page_count;
    }
    if (page_count > 0) {
      Status s = seal();
      if (!s.ok()) return s;
    }
  }
  // Fence pointers are auxiliary structure held in memory. Charged exactly
  // once, here, and released exactly once (Destroy checks the flag): a run
  // abandoned before this point never held the charge.
  counters->AdjustSpace(
      DataClass::kAux,
      static_cast<int64_t>(run->fences_.size() * sizeof(Key)));
  run->fences_charged_ = true;
  *out = std::move(run);
  return Status::OK();
}

SortedRun::~SortedRun() {
  // Destroy() may already have run; it is idempotent via destroyed_.
  (void)Destroy();
}

Status SortedRun::Destroy() {
  if (destroyed_) return Status::OK();
  destroyed_ = true;
  // Free every page even when one Free fails (e.g. a page pinned in a cache
  // level above). Returning on the first failure used to leak the remaining
  // page frees AND skip the fence-space release below -- destroyed_ was
  // already set, so the destructor's retry no-oped and the auxiliary-MO
  // ledger drifted permanently. One stuck page must not wedge the rest of
  // the teardown; the first failure is still reported.
  Status first_failure = Status::OK();
  for (PageId page : pages_) {
    Status s = device_->Free(page);
    if (!s.ok() && first_failure.ok()) first_failure = s;
  }
  pages_.clear();
  if (fences_charged_) {
    counters_->AdjustSpace(
        DataClass::kAux, -static_cast<int64_t>(fences_.size() * sizeof(Key)));
    fences_charged_ = false;
  }
  fences_.clear();
  bloom_.reset();  // Releases its own space.
  blocked_bloom_.reset();
  return first_failure;
}

Status SortedRun::LoadPage(size_t page_index, std::vector<LogRecord>* out) {
  assert(page_index < pages_.size());
  PageReadGuard guard;
  Status s = device_->PinForRead(pages_[page_index], &guard);
  if (!s.ok()) return s;
  if (compressed_) {
    return UnpackCompressedRecords(guard.bytes(), out);
  }
  return UnpackLogRecords(guard.bytes(), out);
}

size_t SortedRun::FenceSearch(Key key) const {
  // Binary search over fences; each probe reads one fence key.
  size_t lo = 0;
  size_t hi = fences_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    counters_->OnRead(DataClass::kAux, sizeof(Key));
    if (fences_[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

Result<std::optional<LogRecord>> SortedRun::Get(Key key) {
  if (key < min_key_ || key > max_key_) {
    return std::optional<LogRecord>();
  }
  if (has_bloom() && !MayContainKey(key)) {
    if (filter_stats_ != nullptr) {
      filter_stats_->negatives.fetch_add(1, std::memory_order_relaxed);
    }
    return std::optional<LogRecord>();
  }
  size_t group = FenceSearch(key);
  size_t first_page = group * pages_per_fence_;
  size_t end_page = std::min(first_page + pages_per_fence_, pages_.size());
  if (!compressed_) {
    // Fixed-width wire records allow binary search directly on the pinned
    // block: no record materialization on the lookup path.
    for (size_t p = first_page; p < end_page; ++p) {
      PageReadGuard guard;
      Status s = device_->PinForRead(pages_[p], &guard);
      if (!s.ok()) return s;
      std::span<const uint8_t> block = guard.bytes();
      size_t n = 0;
      s = CheckedRunCount(block, &n);
      if (!s.ok()) return s;
      if (n == 0) continue;
      auto key_at = [&](size_t i) {
        return DecodeU64(block.data() + kRunHeaderSize +
                         i * LogRecord::kWireSize);
      };
      if (key_at(n - 1) < key) continue;  // Key is further right.
      size_t lo = LowerBoundSlot(0, n, key, key_at);
      if (lo >= n || key_at(lo) != key) {
        NoteFilterOutcome(/*found=*/false);
        return std::optional<LogRecord>();
      }
      const uint8_t* rec =
          block.data() + kRunHeaderSize + lo * LogRecord::kWireSize;
      LogRecord r;
      r.key = DecodeU64(rec);
      r.value = DecodeU64(rec + 8);
      r.op = static_cast<LogOp>(rec[16]);
      NoteFilterOutcome(/*found=*/true);
      return std::optional<LogRecord>(r);
    }
    NoteFilterOutcome(/*found=*/false);
    return std::optional<LogRecord>();
  }
  std::vector<LogRecord> records;
  for (size_t p = first_page; p < end_page; ++p) {
    Status s = LoadPage(p, &records);
    if (!s.ok()) return s;
    if (records.empty()) continue;
    if (records.back().key < key) continue;  // Key is further right.
    size_t slot = LowerBoundSlot(0, records.size(), key,
                                 [&](size_t i) { return records[i].key; });
    if (slot >= records.size() || records[slot].key != key) {
      NoteFilterOutcome(/*found=*/false);
      return std::optional<LogRecord>();
    }
    NoteFilterOutcome(/*found=*/true);
    return std::optional<LogRecord>(records[slot]);
  }
  NoteFilterOutcome(/*found=*/false);
  return std::optional<LogRecord>();
}

Status SortedRun::MultiGet(std::span<const Key> keys, ProbeHashCache* cache,
                           std::vector<std::pair<uint32_t, LogRecord>>* hits) {
  hits->clear();
  if (keys.empty()) return Status::OK();
  assert(std::is_sorted(keys.begin(), keys.end()));
  assert(cache != nullptr);
  // Get's per-key bounds check, hoisted: ascending keys make the in-range
  // slice [a, b) one binary search per run instead of a check per key.
  size_t a = static_cast<size_t>(
      std::lower_bound(keys.begin(), keys.end(), min_key_) - keys.begin());
  size_t b = static_cast<size_t>(
      std::upper_bound(keys.begin(), keys.end(), max_key_) - keys.begin());
  if (a >= b) return Status::OK();
  // Up-front filter pass over the slice. Probe charges and filter-tally
  // updates are accumulated and applied once per run: the same totals the
  // per-key Get loop reaches one call at a time. Blocked filters prefetch
  // a few keys ahead so the single-cache-line fetches overlap the probes.
  std::vector<uint32_t>& live = mg_live_;
  live.clear();
  uint64_t negatives = 0;
  if (bloom_ != nullptr) {
    // Reduce each key's probe offsets modulo this filter's bit count once
    // per batch; same-sized filters (the common case -- sibling runs share
    // a geometry) reuse the reductions verbatim across runs.
    const uint64_t m = bloom_->bit_count();
    if (cache->mode != m) {
      cache->mode = m;
      cache->a.resize(keys.size());
      cache->b.resize(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        uint64_t h1 = MixHash(keys[i]);
        cache->a[i] = h1 % m;
        cache->b[i] = (MixHash(h1) | 1) % m;
      }
    }
    uint64_t probe_bytes = 0;
    for (size_t i = a; i < b; ++i) {
      if (bloom_->MayContainReduced(cache->a[i], cache->b[i], &probe_bytes)) {
        live.push_back(static_cast<uint32_t>(i));
      } else {
        ++negatives;
      }
    }
    if (counters_ != nullptr) {
      counters_->OnRead(DataClass::kAux, probe_bytes);
    }
  } else if (blocked_bloom_ != nullptr) {
    // Blocked filters probe with the raw mixed pair (block choice needs the
    // full h1); the cache still saves re-mixing each key per run.
    if (cache->mode != ProbeHashCache::kRawHashes) {
      cache->mode = ProbeHashCache::kRawHashes;
      cache->a.resize(keys.size());
      cache->b.resize(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        uint64_t h1 = MixHash(keys[i]);
        cache->a[i] = h1;
        cache->b[i] = MixHash(h1) | 1;
      }
    }
    constexpr size_t kPrefetchAhead = 8;
    for (size_t i = a; i < std::min(a + kPrefetchAhead, b); ++i) {
      blocked_bloom_->PrefetchPrepared(cache->a[i]);
    }
    uint64_t probe_bytes = 0;
    for (size_t i = a; i < b; ++i) {
      if (i + kPrefetchAhead < b) {
        blocked_bloom_->PrefetchPrepared(cache->a[i + kPrefetchAhead]);
      }
      if (blocked_bloom_->MayContainPrepared(cache->a[i], cache->b[i],
                                             &probe_bytes)) {
        live.push_back(static_cast<uint32_t>(i));
      } else {
        ++negatives;
      }
    }
    if (counters_ != nullptr) {
      counters_->OnRead(DataClass::kAux, probe_bytes);
    }
  } else {
    for (size_t i = a; i < b; ++i) live.push_back(static_cast<uint32_t>(i));
  }
  if (negatives > 0 && filter_stats_ != nullptr) {
    filter_stats_->negatives.fetch_add(negatives, std::memory_order_relaxed);
  }
  if (live.empty()) return Status::OK();
  // Fence search per surviving key (Get's charge), then group consecutive
  // keys that land in the same fence group: the group's pages are walked
  // once for all of them.
  std::vector<size_t>& groups = mg_groups_;
  groups.resize(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    groups[i] = FenceSearch(keys[live[i]]);
  }
  size_t s = 0;
  while (s < live.size()) {
    size_t e = s + 1;
    while (e < live.size() && groups[e] == groups[s]) ++e;
    size_t first_page = groups[s] * pages_per_fence_;
    size_t end_page = std::min(first_page + pages_per_fence_, pages_.size());
    size_t next = s;  // First key of the group not yet resolved.
    // Resolves every waiting key that can land on the current page (its key
    // is <= the page's last); keys further right wait for the next page.
    // Each of the e-next waiting keys would have pinned this page in its
    // own Get, so one shared pin saves e-next-1.
    auto resolve_page = [&](size_t n, const auto& key_at,
                            const auto& record_at) {
      if (e - next > 1) counters_->OnBatchedPageHits(e - next - 1);
      if (n == 0) return;
      Key last = key_at(n - 1);
      size_t slot = 0;
      while (next < e && keys[live[next]] <= last) {
        Key key = keys[live[next]];
        slot = LowerBoundSlot(slot, n, key, key_at);
        if (slot < n && key_at(slot) == key) {
          hits->push_back({live[next], record_at(slot)});
          NoteFilterOutcome(/*found=*/true);
        } else {
          NoteFilterOutcome(/*found=*/false);
        }
        ++next;
      }
    };
    if (!compressed_) {
      for (size_t p = first_page; p < end_page && next < e; ++p) {
        PageReadGuard guard;
        Status st = device_->PinForRead(pages_[p], &guard);
        if (!st.ok()) return st;
        std::span<const uint8_t> block = guard.bytes();
        size_t n = 0;
        st = CheckedRunCount(block, &n);
        if (!st.ok()) return st;
        auto key_at = [&](size_t i) {
          return DecodeU64(block.data() + kRunHeaderSize +
                           i * LogRecord::kWireSize);
        };
        auto record_at = [&](size_t i) {
          const uint8_t* rec =
              block.data() + kRunHeaderSize + i * LogRecord::kWireSize;
          LogRecord r;
          r.key = DecodeU64(rec);
          r.value = DecodeU64(rec + 8);
          r.op = static_cast<LogOp>(rec[16]);
          return r;
        };
        resolve_page(n, key_at, record_at);
      }
    } else {
      std::vector<LogRecord> records;
      for (size_t p = first_page; p < end_page && next < e; ++p) {
        Status st = LoadPage(p, &records);
        if (!st.ok()) return st;
        resolve_page(
            records.size(), [&](size_t i) { return records[i].key; },
            [&](size_t i) { return records[i]; });
      }
    }
    // Keys greater than the group's last record: Get walks the same pages
    // (already pinned once above) and comes back empty-handed.
    for (; next < e; ++next) NoteFilterOutcome(/*found=*/false);
    s = e;
  }
  return Status::OK();
}

Status SortedRun::Cursor::LoadCurrent() {
  while (page_ < run_->pages_.size()) {
    Status s = run_->LoadPage(page_, &records_);
    if (!s.ok()) return s;
    if (slot_ < records_.size()) return Status::OK();
    // Empty page, or a stored slot past this page's record count (possible
    // after crash recovery truncated page contents): clamp forward.
    ++page_;
    slot_ = 0;
  }
  records_.clear();
  return Status::OK();
}

Status SortedRun::Cursor::SeekTo(size_t page, size_t slot) {
  assert(run_ != nullptr);
  page_ = page;
  slot_ = slot;
  return LoadCurrent();
}

Status SortedRun::Cursor::SeekFirstAtLeast(Key key) {
  assert(run_ != nullptr);
  if (key <= run_->min_key_) return SeekTo(0, 0);
  if (key > run_->max_key_) {
    page_ = run_->pages_.size();
    slot_ = 0;
    return Status::OK();
  }
  // FenceSearch lands on the last group whose fence is <= key; the first
  // record >= key lives there or in a later group (when key exceeds the
  // group's last record), so AdvanceToAtLeast's forward walk finishes it.
  Status s = SeekTo(run_->FenceSearch(key) * run_->pages_per_fence_, 0);
  if (!s.ok()) return s;
  return AdvanceToAtLeast(key);
}

Status SortedRun::Cursor::AdvanceToAtLeast(Key key) {
  assert(run_ != nullptr);
  while (Valid()) {
    if (records_.back().key >= key) {
      slot_ = LowerBoundSlot(slot_, records_.size(), key,
                             [&](size_t i) { return records_[i].key; });
      if (slot_ < records_.size()) return Status::OK();
    }
    ++page_;
    slot_ = 0;
    Status s = LoadCurrent();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SortedRun::Cursor::Next() {
  assert(Valid());
  ++slot_;
  if (slot_ >= records_.size()) {
    ++page_;
    slot_ = 0;
    return LoadCurrent();
  }
  return Status::OK();
}

Status SortedRun::VisitRange(Key lo, Key hi,
                             const std::function<void(const LogRecord&)>&
                                 visit) {
  if (hi < min_key_ || lo > max_key_) return Status::OK();
  size_t first_page = FenceSearch(lo) * pages_per_fence_;
  std::vector<LogRecord> records;
  for (size_t p = first_page; p < pages_.size(); ++p) {
    Status s = LoadPage(p, &records);
    if (!s.ok()) return s;
    for (const LogRecord& r : records) {
      if (r.key > hi) return Status::OK();
      if (r.key >= lo) visit(r);
    }
  }
  return Status::OK();
}

Status SortedRun::VisitAll(
    const std::function<void(const LogRecord&)>& visit) {
  std::vector<LogRecord> records;
  for (size_t p = 0; p < pages_.size(); ++p) {
    Status s = LoadPage(p, &records);
    if (!s.ok()) return s;
    for (const LogRecord& r : records) {
      visit(r);
    }
  }
  return Status::OK();
}

}  // namespace rum
