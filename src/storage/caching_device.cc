#include "storage/caching_device.h"

#include <cassert>
#include <chrono>
#include <utility>

#include "core/status_builder.h"
#include "core/trace.h"

namespace rum {

namespace {
/// Steady-clock nanoseconds, read only on traced pin transitions.
uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

CachingDevice::CachingDevice(Device* base, size_t capacity_pages,
                             MemoryRegistrar* registrar)
    : base_(base), registrar_(registrar), capacity_pages_(capacity_pages) {
  assert(base_ != nullptr);
  if (registrar_ != nullptr) registrar_->RegisterPool(this);
  metrics_.Init("caching_device");
  metrics_.Gauge("hits", [this] { return hits(); });
  metrics_.Gauge("misses", [this] { return misses(); });
  metrics_.Gauge("evictions", [this] { return evictions(); });
  metrics_.Gauge("write_backs", [this] { return write_backs(); });
  metrics_.Gauge("write_back_failures",
                 [this] { return write_back_failures(); });
  metrics_.Gauge("cached_pages",
                 [this] { return static_cast<uint64_t>(cached_pages()); });
  metrics_.Gauge("pinned_pages",
                 [this] { return static_cast<uint64_t>(pinned_pages()); });
}

CachingDevice::~CachingDevice() {
  if (registrar_ != nullptr) registrar_->UnregisterPool(this);
}

void CachingDevice::TickRegistrar() {
  if (registrar_ != nullptr) registrar_->NotePoolOps(1);
}

Status CachingDevice::SetCapacity(size_t capacity_pages) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_pages_ = capacity_pages;
  // Trim immediately with the pin-safe sweep: pinned entries and victims
  // whose write-back fails are skipped, never sweep-ending, so a shrink
  // below the pinned population cannot wedge -- residency converges to the
  // new cap through the unpin-time EvictDownTo as pins release.
  return EvictDownTo(capacity_pages_);
}

uint64_t CachingDevice::pool_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint64_t>(capacity_pages_) * block_size();
}

void CachingDevice::SetPoolBytes(uint64_t bytes) {
  (void)SetCapacity(static_cast<size_t>(bytes / block_size()));
}

uint64_t CachingDevice::BenefitSignal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_ * block_size();
}

size_t CachingDevice::capacity_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_pages_;
}

Status CachingDevice::Allocate(DataClass cls, PageId* out) {
  std::lock_guard<std::mutex> lock(mu_);
  NoteRecoveryLocked();
  return base_->Allocate(cls, out);
}

void CachingDevice::NoteRecoveryLocked() {
  if (!crashed_) return;
  crashed_ = false;
  Trace::Emit(TraceKind::kRecovery, TraceOp::kNone, kInvalidPageId,
              DataClass::kAux);
}

size_t CachingDevice::cached_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t CachingDevice::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t CachingDevice::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t CachingDevice::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

uint64_t CachingDevice::write_backs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_backs_;
}

uint64_t CachingDevice::write_back_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_back_failures_;
}

size_t CachingDevice::pinned_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pins_outstanding_;
}

Status CachingDevice::Free(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(page);
  if (it != entries_.end()) {
    if (it->second.pins != 0) {
      return Status::InvalidArgument("cannot free a pinned page");
    }
    DropEntry(page, &it->second);
  }
  return base_->Free(page);
}

void CachingDevice::Touch(PageId page, CacheEntry* entry) {
  lru_.erase(entry->lru_pos);
  lru_.push_front(page);
  entry->lru_pos = lru_.begin();
}

std::list<PageId>::iterator CachingDevice::DropEntry(PageId page,
                                                     CacheEntry* entry) {
  counters_.AdjustSpace(DataClass::kAux, -static_cast<int64_t>(block_size()));
  auto next = lru_.erase(entry->lru_pos);
  entries_.erase(page);
  return next;
}

Status CachingDevice::EvictDownTo(size_t target) {
  // One backward sweep, LRU toward MRU. Skipping (rather than aborting on)
  // pinned entries and failed write-backs is what keeps a single unwritable
  // dirty page from wedging eviction while clean victims exist -- and the
  // cache can never grow past capacity under repeated write-back faults,
  // because the stuck victims stay *within* the existing entry set and
  // inserts that cannot make room below capacity fail instead of growing.
  Status first_failure = Status::OK();
  auto it = lru_.end();
  while (entries_.size() > target && it != lru_.begin()) {
    --it;
    PageId page = *it;
    CacheEntry& entry = entries_.at(page);
    if (entry.pins != 0) continue;  // Must stay at a stable address.
    bool was_dirty = entry.dirty;
    if (was_dirty) {
      Status s = base_->Write(page, entry.bytes);
      if (!s.ok()) {
        ++write_back_failures_;
        Trace::Emit(TraceKind::kCacheWriteBackFail, TraceOp::kWrite, page,
                    DataClass::kAux);
        if (first_failure.ok()) {
          // Name the victim: the caller's op (an unrelated insert or unpin)
          // is not the page whose write-back actually failed.
          first_failure =
              StatusBuilder(s).Op("EvictDownTo write-back").Page(page);
        }
        continue;  // Victim stays cached (and dirty); try the next one.
      }
      ++write_backs_;
      Trace::Emit(TraceKind::kCacheWriteBack, TraceOp::kWrite, page,
                  DataClass::kAux);
    }
    ++evictions_;
    Trace::Emit(TraceKind::kCacheEvict, TraceOp::kNone, page, DataClass::kAux,
                was_dirty ? 1 : 0);
    it = DropEntry(page, &entry);
  }
  // Report a failure only when it actually kept the cache above target; an
  // all-pinned overshoot is the caller's documented transient state.
  if (entries_.size() > target && !first_failure.ok()) return first_failure;
  return Status::OK();
}

Status CachingDevice::InsertEntry(PageId page, std::vector<uint8_t> bytes,
                                  bool dirty) {
  if (capacity_pages_ == 0) {
    // Degenerate cache: write-through, cache nothing.
    if (dirty) return base_->Write(page, bytes);
    return Status::OK();
  }
  if (entries_.size() >= capacity_pages_) {
    Status s = EvictDownTo(capacity_pages_ - 1);
    if (!s.ok()) return s;
  }
  lru_.push_front(page);
  CacheEntry entry;
  entry.bytes = std::move(bytes);
  entry.dirty = dirty;
  entry.lru_pos = lru_.begin();
  entries_.emplace(page, std::move(entry));
  counters_.AdjustSpace(DataClass::kAux, static_cast<int64_t>(block_size()));
  return Status::OK();
}

CachingDevice::CacheEntry* CachingDevice::InsertPinnedEntry(
    PageId page, std::vector<uint8_t> bytes, bool speculative, Status* s) {
  // Unlike Read/Write, pins always need a resident entry -- even at
  // capacity 0, where the entry lives only for the pin window and is
  // trimmed away (write-back if dirty) when the last pin releases.
  if (capacity_pages_ > 0 && entries_.size() >= capacity_pages_) {
    *s = EvictDownTo(capacity_pages_ - 1);
    if (!s->ok()) return nullptr;
  }
  lru_.push_front(page);
  CacheEntry entry;
  entry.bytes = std::move(bytes);
  entry.pins = 1;
  entry.speculative = speculative;
  entry.lru_pos = lru_.begin();
  CacheEntry* inserted = &entries_.emplace(page, std::move(entry)).first->second;
  counters_.AdjustSpace(DataClass::kAux, static_cast<int64_t>(block_size()));
  ++pins_outstanding_;
  *s = Status::OK();
  return inserted;
}

Status CachingDevice::Read(PageId page, std::vector<uint8_t>* out) {
  Status result = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    NoteRecoveryLocked();
    auto it = entries_.find(page);
    if (it != entries_.end()) {
      ++hits_;
      Trace::Emit(TraceKind::kCacheHit, TraceOp::kRead, page, DataClass::kAux);
      // Served at this level: charge the cache, not the device below.
      counters_.OnRead(DataClass::kAux, block_size());
      counters_.OnBlockRead();
      Touch(page, &it->second);
      *out = it->second.bytes;
      return Status::OK();
    }
    ++misses_;
    Trace::Emit(TraceKind::kCacheMiss, TraceOp::kRead, page, DataClass::kAux);
    Status s = base_->Read(page, out);
    if (!s.ok()) return s;
    return InsertEntry(page, *out, /*dirty=*/false);
  }();
  TickRegistrar();  // Outside mu_: a replan here re-enters SetCapacity.
  return result;
}

Status CachingDevice::Write(PageId page, const std::vector<uint8_t>& data) {
  Status result = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    NoteRecoveryLocked();
    if (data.size() != block_size()) {
      return Status::InvalidArgument("write size must equal block size");
    }
    counters_.OnWrite(DataClass::kAux, block_size());
    counters_.OnBlockWrite();
    auto it = entries_.find(page);
    if (it != entries_.end()) {
      Trace::Emit(TraceKind::kCacheHit, TraceOp::kWrite, page,
                  DataClass::kAux);
      it->second.bytes = data;
      it->second.dirty = true;
      Touch(page, &it->second);
      return Status::OK();
    }
    Trace::Emit(TraceKind::kCacheMiss, TraceOp::kWrite, page, DataClass::kAux);
    return InsertEntry(page, data, /*dirty=*/true);
  }();
  TickRegistrar();
  return result;
}

Status CachingDevice::PinForRead(PageId page, PageReadGuard* out) {
  Status result = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    NoteRecoveryLocked();
    auto it = entries_.find(page);
    if (it != entries_.end()) {
      ++hits_;
      Trace::Emit(TraceKind::kCacheHit, TraceOp::kPin, page, DataClass::kAux);
      // Served at this level: charge the cache, not the device below.
      counters_.OnRead(DataClass::kAux, block_size());
      counters_.OnBlockRead();
      Touch(page, &it->second);
      ++it->second.pins;
      ++pins_outstanding_;
      if (Trace::enabled()) {
        if (it->second.pins == 1) it->second.pinned_at_ns = NowNs();
        Trace::Emit(TraceKind::kPinAcquire, TraceOp::kPin, page,
                    DataClass::kAux);
      }
      *out = MakeReadGuard(this, page, it->second.bytes.data(), block_size());
      return Status::OK();
    }
    ++misses_;
    Trace::Emit(TraceKind::kCacheMiss, TraceOp::kPin, page, DataClass::kAux);
    std::vector<uint8_t> bytes;
    Status s = base_->Read(page, &bytes);
    if (!s.ok()) return s;
    CacheEntry* entry =
        InsertPinnedEntry(page, std::move(bytes), /*speculative=*/false, &s);
    if (entry == nullptr) return s;
    if (Trace::enabled()) {
      entry->pinned_at_ns = NowNs();
      Trace::Emit(TraceKind::kPinAcquire, TraceOp::kPin, page,
                  DataClass::kAux);
    }
    *out = MakeReadGuard(this, page, entry->bytes.data(), block_size());
    return Status::OK();
  }();
  // Outside mu_. The just-pinned entry is eviction-exempt, so a replan
  // fired by this tick cannot invalidate the guard handed out above.
  TickRegistrar();
  return result;
}

Status CachingDevice::PinForWrite(PageId page, PageWriteGuard* out) {
  Status result = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    NoteRecoveryLocked();
    auto it = entries_.find(page);
    if (it != entries_.end()) {
      Touch(page, &it->second);
      ++it->second.pins;
      ++pins_outstanding_;
      if (Trace::enabled()) {
        if (it->second.pins == 1) it->second.pinned_at_ns = NowNs();
        Trace::Emit(TraceKind::kPinAcquire, TraceOp::kPin, page,
                    DataClass::kAux);
      }
      *out = MakeWriteGuard(this, page, it->second.bytes.data(), block_size());
      return Status::OK();
    }
    // Blind write pin: hand out a zeroed block without faulting the page in,
    // mirroring Write-on-miss (no base read is charged).
    Status s;
    CacheEntry* entry = InsertPinnedEntry(
        page, std::vector<uint8_t>(block_size(), 0), /*speculative=*/true, &s);
    if (entry == nullptr) return s;
    if (Trace::enabled()) {
      entry->pinned_at_ns = NowNs();
      Trace::Emit(TraceKind::kPinAcquire, TraceOp::kPin, page,
                  DataClass::kAux);
    }
    *out = MakeWriteGuard(this, page, entry->bytes.data(), block_size());
    return Status::OK();
  }();
  TickRegistrar();
  return result;
}

void CachingDevice::UnpinRead(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(page);
  if (it == entries_.end() || it->second.pins == 0) {
    return;  // Post-crash abandoned guard.
  }
  --it->second.pins;
  --pins_outstanding_;
  if (Trace::enabled()) {
    uint64_t held = it->second.pins == 0 && it->second.pinned_at_ns != 0
                        ? NowNs() - it->second.pinned_at_ns
                        : 0;
    Trace::Emit(TraceKind::kPinRelease, TraceOp::kPin, page, DataClass::kAux,
                held);
  }
  if (it->second.pins == 0) {
    // Trim any pin-induced overshoot. A failed write-back here simply
    // leaves the dirty victim cached; it retries on the next eviction.
    EvictDownTo(capacity_pages_);
  }
}

Status CachingDevice::UnpinWrite(PageId page, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(page);
  if (it == entries_.end() || it->second.pins == 0) {
    return Status::OK();  // Post-crash abandoned guard.
  }
  CacheEntry& entry = it->second;
  --entry.pins;
  --pins_outstanding_;
  if (Trace::enabled()) {
    uint64_t held = entry.pins == 0 && entry.pinned_at_ns != 0
                        ? NowNs() - entry.pinned_at_ns
                        : 0;
    Trace::Emit(TraceKind::kPinRelease, TraceOp::kPin, page, DataClass::kAux,
                held);
  }
  if (dirty) {
    // The write lands at this level; charge it here exactly like Write.
    counters_.OnWrite(DataClass::kAux, block_size());
    counters_.OnBlockWrite();
    entry.dirty = true;
    entry.speculative = false;
  } else if (entry.speculative && entry.pins == 0) {
    // A missed write pin released clean never became real data; drop it so
    // later reads are not served zeros.
    DropEntry(page, &entry);
    return Status::OK();
  }
  if (entry.pins == 0) {
    return EvictDownTo(capacity_pages_);
  }
  return Status::OK();
}

Status CachingDevice::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  NoteRecoveryLocked();
  for (auto& [page, entry] : entries_) {
    if (entry.dirty) {
      Status s = base_->Write(page, entry.bytes);
      if (!s.ok()) {
        Trace::Emit(TraceKind::kCacheWriteBackFail, TraceOp::kFlush, page,
                    DataClass::kAux);
        return StatusBuilder(s).Op("FlushAll write-back").Page(page);
      }
      ++write_backs_;
      Trace::Emit(TraceKind::kCacheWriteBack, TraceOp::kFlush, page,
                  DataClass::kAux);
      entry.dirty = false;
    }
  }
  return base_->FlushAll();
}

void CachingDevice::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  Trace::Emit(TraceKind::kCrash, TraceOp::kNone, kInvalidPageId,
              DataClass::kAux, entries_.size());
  crashed_ = true;
  // All buffered state -- dirty or clean -- is volatile at this level;
  // releasing it adjusts this level's resident space back down. Dirty bytes
  // that never reached the base are simply lost, which is the point.
  counters_.AdjustSpace(
      DataClass::kAux,
      -static_cast<int64_t>(entries_.size() * block_size()));
  entries_.clear();
  lru_.clear();
  pins_outstanding_ = 0;
  base_->Crash();
}

}  // namespace rum
