#include "methods/lsm/sorted_run.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "methods/newest_wins_merge.h"
#include "storage/page_format.h"

namespace rum {

namespace {
// Run page layout: [0,8) record count, then the records in key order. A
// record is its key, 8 value bytes and an op byte. Fixed-width pages store
// the key as 8 raw bytes (LogRecord::kWireSize per record); compressed
// pages store a varint delta from the previous record of the page, and the
// page's first record its full key.
constexpr size_t kRunHeaderSize = sizeof(uint64_t);
constexpr size_t kRecordTail = sizeof(Value) + 1;  // Value, then op byte.
// A record's smallest and largest compressed encodings (1- and 10-byte
// varints); fixed-width records are always LogRecord::kWireSize.
constexpr size_t kMinCompressedRecord = 1 + kRecordTail;
constexpr size_t kMaxCompressedRecord = 10 + kRecordTail;

/// Bytes `r` takes on a page right after a record keyed `prev`.
size_t EncodedSize(const LogRecord& r, Key prev, bool compressed) {
  return (compressed ? VarintLength(r.key - prev) : sizeof(Key)) +
         kRecordTail;
}

/// Writes `r` (after a record keyed `prev`) at `at`; returns the byte past
/// it.
uint8_t* EncodeRecord(const LogRecord& r, Key prev, bool compressed,
                      uint8_t* at) {
  if (compressed) {
    at = EncodeVarint64(r.key - prev, at);
  } else {
    EncodeU64(r.key, at);
    at += sizeof(Key);
  }
  EncodeU64(r.value, at);
  at[sizeof(Value)] = static_cast<uint8_t>(r.op);
  return at + kRecordTail;
}

/// The record keyed `key` whose value and op byte start at `tail`.
LogRecord DecodeRecord(Key key, const uint8_t* tail) {
  return LogRecord{key, DecodeU64(tail),
                   static_cast<LogOp>(tail[sizeof(Value)])};
}

/// Fixed-width record `i` of a page, in place.
const uint8_t* FixedRecord(const uint8_t* block, size_t i) {
  return block + kRunHeaderSize + i * LogRecord::kWireSize;
}

/// The page's record count, bounded by what the block holds at the
/// smallest record encoding so a corrupt header can never index past the
/// block.
Status CheckedRunCount(std::span<const uint8_t> block, bool compressed,
                       size_t* count) {
  if (block.size() < kRunHeaderSize) {
    return Status::Corruption("run block too small");
  }
  uint64_t n = DecodeU64(block.data());
  size_t smallest = compressed ? kMinCompressedRecord : LogRecord::kWireSize;
  if (n > (block.size() - kRunHeaderSize) / smallest) {
    return Status::Corruption("run record count exceeds block");
  }
  *count = static_cast<size_t>(n);
  return Status::OK();
}

/// Adds the key delta of the compressed record at `*at` to `*key` and moves
/// `*at` to the record's value bytes; false when those would run past the
/// block.
bool ReadDelta(const uint8_t* block, size_t size, size_t* at, Key* key) {
  *key += DecodeVarint64(block, size, at);
  return *at + kRecordTail <= size;
}

Status TruncatedRecord() {
  return Status::Corruption("compressed record truncated");
}

}  // namespace

SortedRun::SortedRun(Device* device, RumCounters* counters)
    : device_(device), counters_(counters) {}

Status SortedRun::Build(Device* device, RumCounters* counters,
                        const std::vector<LogRecord>& records,
                        size_t bloom_bits_per_key,
                        std::unique_ptr<SortedRun>* out,
                        size_t fence_entries, bool compress) {
  assert(device != nullptr && counters != nullptr);
  assert(std::is_sorted(records.begin(), records.end(),
                        [](const LogRecord& a, const LogRecord& b) {
                          return a.key < b.key;
                        }));
  if (records.empty()) {
    return Status::InvalidArgument("cannot build an empty run");
  }
  // Every page takes its first record whatever that record's size.
  const size_t block_size = device->block_size();
  if (block_size < kRunHeaderSize + (compress ? kMaxCompressedRecord
                                              : LogRecord::kWireSize)) {
    return Status::InvalidArgument("block too small for a run record");
  }
  auto run = std::unique_ptr<SortedRun>(new SortedRun(device, counters));
  run->record_count_ = records.size();
  run->min_key_ = records.front().key;
  run->max_key_ = records.back().key;

  if (bloom_bits_per_key > 0) {
    run->bloom_ = std::make_unique<BloomFilter>(records.size(),
                                                bloom_bits_per_key, counters);
    for (const LogRecord& r : records) {
      run->bloom_->Add(r.key);
    }
  }

  // Fence groups are sized in fixed-width pages for both formats.
  const size_t records_per_page =
      (block_size - kRunHeaderSize) / LogRecord::kWireSize;
  run->pages_per_fence_ = std::max<size_t>(
      1, (fence_entries + records_per_page - 1) / records_per_page);
  run->compressed_ = compress;

  // The one packer: each page is encoded in place, greedily, until the
  // next record would not fit -- exactly records_per_page records when
  // fixed-width, as many small deltas as fit when compressed.
  for (size_t i = 0; i < records.size();) {
    PageId page;
    Status s = device->Allocate(DataClass::kBase, &page);
    if (!s.ok()) return s;
    PageWriteGuard guard;
    s = device->PinForWrite(page, &guard);
    if (!s.ok()) {
      (void)device->Free(page);  // Un-tracked page must not leak space.
      return s;
    }
    std::span<uint8_t> block = guard.bytes();
    std::memset(block.data(), 0, block.size());
    uint8_t* at = block.data() + kRunHeaderSize;
    const uint8_t* const end = block.data() + block.size();
    const size_t first = i;
    Key prev = 0;  // The page's first record stores its full key.
    do {
      at = EncodeRecord(records[i], prev, compress, at);
      prev = records[i].key;
    } while (++i < records.size() &&
             EncodedSize(records[i], prev, compress) <=
                 static_cast<size_t>(end - at));
    EncodeU64(i - first, block.data());
    guard.MarkDirty();
    s = guard.Release();
    if (!s.ok()) {
      (void)device->Free(page);
      return s;
    }
    if (run->pages_.size() % run->pages_per_fence_ == 0) {
      run->fences_.push_back(records[first].key);
    }
    run->pages_.push_back(page);
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
  return first_failure;
}

Status SortedRun::PageReader::Open(std::span<const uint8_t> block,
                                   bool compressed) {
  block_ = block.data();
  block_size_ = block.size();
  compressed_ = compressed;
  truncated_ = false;
  slot_ = 0;
  size_ = 0;
  Status s = CheckedRunCount(block, compressed, &size_);
  if (!s.ok()) return s;
  if (compressed_ && size_ > 0) {
    key_ = 0;  // The page's first record stores its full key.
    tail_ = kRunHeaderSize;
    if (!ReadDelta(block_, block_size_, &tail_, &key_)) Truncate();
  }
  return Status::OK();
}

void SortedRun::PageReader::Skip(size_t slot, Key key) {
  // Locals, so the loop runs in registers.
  const uint8_t* block = block_;
  const size_t block_size = block_size_;
  const size_t size = size_;
  size_t at = tail_;
  Key k = key_;
  size_t i = slot_;
  while (i < size && (i < slot || k < key)) {
    if (++i == size) break;
    at += kRecordTail;
    if (!ReadDelta(block, block_size, &at, &k)) {
      Truncate();
      return;
    }
  }
  tail_ = at;
  key_ = k;
  slot_ = i;
}

Key SortedRun::PageReader::KeyAt(size_t slot) const {
  return DecodeU64(FixedRecord(block_, slot));
}

Key SortedRun::PageReader::key() const {
  assert(valid());
  return compressed_ ? key_ : KeyAt(slot_);
}

LogRecord SortedRun::PageReader::record() const {
  assert(valid());
  return compressed_ ? DecodeRecord(key_, block_ + tail_)
                     : DecodeRecord(KeyAt(slot_),
                                    FixedRecord(block_, slot_) + sizeof(Key));
}

void SortedRun::PageReader::Next() {
  assert(valid());
  if (compressed_) {
    Skip(slot_ + 1, 0);
  } else {
    ++slot_;
  }
}

void SortedRun::PageReader::SeekSlot(size_t slot) {
  assert(!valid() || slot >= slot_);
  if (compressed_) {
    Skip(slot, 0);
  } else {
    slot_ = std::min(slot, size_);
  }
}

void SortedRun::PageReader::SeekAtLeast(Key key) {
  if (compressed_) {
    Skip(0, key);
    return;
  }
  // Keys past the page's last record are not on this page.
  if (!valid() || KeyAt(size_ - 1) < key) {
    slot_ = size_;
    return;
  }
  // Binary search over [slot_, size_ - 1], whose last key is >= `key`.
  size_t hi = size_ - 1;
  while (slot_ < hi) {
    size_t mid = slot_ + (hi - slot_) / 2;
    if (KeyAt(mid) < key) {
      slot_ = mid + 1;
    } else {
      hi = mid;
    }
  }
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

Status SortedRun::WalkGroup(size_t group, std::span<const Key> keys,
                            std::span<const uint32_t> waiting, Hits* hits) {
  const size_t first_page = group * pages_per_fence_;
  const size_t end_page =
      std::min(first_page + pages_per_fence_, pages_.size());
  size_t next = 0;  // First waiting key not yet resolved.
  PageReader page;
  for (size_t p = first_page; p < end_page && next < waiting.size(); ++p) {
    PageReadGuard guard;
    Status s = device_->PinForRead(pages_[p], &guard);
    if (!s.ok()) return s;
    s = page.Open(guard.bytes(), compressed_);
    if (!s.ok()) return s;
    // Each waiting key would have pinned this page in its own Get.
    if (waiting.size() - next > 1) {
      counters_->OnBatchedPageHits(waiting.size() - next - 1);
    }
    // One forward pass over the page for all the ascending keys; keys past
    // its last record wait for the next page.
    for (; next < waiting.size(); ++next) {
      const Key key = keys[waiting[next]];
      page.SeekAtLeast(key);
      if (!page.valid()) break;
      const bool found = page.key() == key;
      if (found) hits->push_back({waiting[next], page.record()});
      NoteFilterOutcome(found);
    }
    if (page.truncated()) return TruncatedRecord();
  }
  // Keys past the group's last record: their Get walks the same pages and
  // finds nothing.
  for (; next < waiting.size(); ++next) NoteFilterOutcome(/*found=*/false);
  return Status::OK();
}

Result<std::optional<LogRecord>> SortedRun::Get(Key key) {
  if (key < min_key_ || key > max_key_) {
    return std::optional<LogRecord>();
  }
  if (bloom_ != nullptr && !bloom_->MayContain(key)) {
    if (filter_stats_ != nullptr) {
      filter_stats_->negatives.fetch_add(1, std::memory_order_relaxed);
    }
    return std::optional<LogRecord>();
  }
  const uint32_t position = 0;
  get_hits_.clear();
  Status s = WalkGroup(FenceSearch(key), {&key, 1}, {&position, 1},
                       &get_hits_);
  if (!s.ok()) return s;
  if (get_hits_.empty()) return std::optional<LogRecord>();
  return std::optional<LogRecord>(get_hits_.front().second);
}

Status SortedRun::MultiGet(std::span<const Key> keys, ProbeHashCache* cache,
                           Hits* hits) {
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
  // per-key Get loop reaches one call at a time.
  std::vector<uint32_t>& live = mg_live_;
  live.clear();
  if (bloom_ == nullptr) {
    for (size_t i = a; i < b; ++i) live.push_back(static_cast<uint32_t>(i));
  } else {
    // Reduce each key's probe offsets modulo this filter's bit count once
    // per batch; same-sized filters (the common case -- sibling runs share
    // a geometry) reuse the reductions verbatim across runs.
    const uint64_t m = bloom_->bit_count();
    if (cache->bit_count != m) {
      cache->bit_count = m;
      cache->a.resize(keys.size());
      cache->b.resize(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        uint64_t h1 = MixHash(keys[i]);
        cache->a[i] = h1 % m;
        cache->b[i] = (MixHash(h1) | 1) % m;
      }
    }
    uint64_t probe_bytes = 0;
    uint64_t negatives = 0;
    for (size_t i = a; i < b; ++i) {
      if (bloom_->MayContainReduced(cache->a[i], cache->b[i], &probe_bytes)) {
        live.push_back(static_cast<uint32_t>(i));
      } else {
        ++negatives;
      }
    }
    counters_->OnRead(DataClass::kAux, probe_bytes);
    if (negatives > 0 && filter_stats_ != nullptr) {
      filter_stats_->negatives.fetch_add(negatives,
                                         std::memory_order_relaxed);
    }
  }
  // Fence search per surviving key (Get's charge), then one walk per run
  // of consecutive keys that land in the same fence group.
  std::vector<size_t>& groups = mg_groups_;
  groups.resize(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    groups[i] = FenceSearch(keys[live[i]]);
  }
  for (size_t s = 0; s < live.size();) {
    size_t e = s + 1;
    while (e < live.size() && groups[e] == groups[s]) ++e;
    Status st = WalkGroup(groups[s], keys,
                          std::span<const uint32_t>(live).subspan(s, e - s),
                          hits);
    if (!st.ok()) return st;
    s = e;
  }
  return Status::OK();
}

Status SortedRun::Cursor::LoadCurrent(size_t slot) {
  // Off the old page first, so a re-pin of it charges like any other pin.
  guard_.Release();
  for (; page_ < run_->pages_.size(); ++page_, slot = 0) {
    Status s = run_->device_->PinForRead(run_->pages_[page_], &guard_);
    if (!s.ok()) return s;
    s = page_reader_.Open(guard_.bytes(), run_->compressed_);
    if (!s.ok()) return s;
    page_reader_.SeekSlot(slot);
    if (page_reader_.valid()) {
      record_ = page_reader_.record();
      return Status::OK();
    }
    if (page_reader_.truncated()) return TruncatedRecord();
    // Empty page, or a stored slot past this page's record count (possible
    // after crash recovery truncated page contents): clamp forward.
    guard_.Release();
  }
  return Status::OK();
}

Status SortedRun::Cursor::Land() {
  if (page_reader_.valid()) {
    record_ = page_reader_.record();
    return Status::OK();
  }
  if (page_reader_.truncated()) return TruncatedRecord();
  ++page_;
  return LoadCurrent(0);
}

Status SortedRun::Cursor::SeekTo(size_t page, size_t slot) {
  assert(run_ != nullptr);
  page_ = page;
  return LoadCurrent(slot);
}

Status SortedRun::Cursor::SeekFirstAtLeast(Key key) {
  assert(run_ != nullptr);
  if (key <= run_->min_key_) return SeekTo(0, 0);
  if (key > run_->max_key_) {
    guard_.Release();
    page_ = run_->pages_.size();
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
    page_reader_.SeekAtLeast(key);
    if (page_reader_.valid()) {
      record_ = page_reader_.record();
      return Status::OK();
    }
    Status s = Land();  // The page ran out: on to the next one.
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SortedRun::Cursor::Next() {
  assert(Valid());
  page_reader_.Next();
  return Land();
}

Status SortedRun::VisitAll(
    const std::function<void(const LogRecord&)>& visit) {
  PageReader page;
  for (PageId id : pages_) {
    PageReadGuard guard;
    Status s = device_->PinForRead(id, &guard);
    if (!s.ok()) return s;
    s = page.Open(guard.bytes(), compressed_);
    if (!s.ok()) return s;
    for (; page.valid(); page.Next()) visit(page.record());
    if (page.truncated()) return TruncatedRecord();
  }
  return Status::OK();
}

Status MergeSortedRuns(std::vector<LogRecord> newest,
                       const std::vector<SortedRun*>& inputs,
                       bool drop_tombstones, std::vector<LogRecord>* merged) {
  std::vector<std::vector<LogRecord>> streams(inputs.size() + 1);
  streams[0] = std::move(newest);
  for (size_t i = 0; i < inputs.size(); ++i) {
    std::vector<LogRecord>& records = streams[i + 1];
    records.reserve(inputs[i]->record_count());
    Status s = inputs[i]->VisitAll(
        [&](const LogRecord& r) { records.push_back(r); });
    if (!s.ok()) return s;
  }
  std::vector<SpanSource<LogRecord>> sources(streams.begin(), streams.end());
  merged->clear();
  return MergeNewestWins(std::span(sources), kMaxKey,
                         [&](const LogRecord& r) {
                           if (!drop_tombstones || r.op != LogOp::kDelete) {
                             merged->push_back(r);
                           }
                         });
}

}  // namespace rum
