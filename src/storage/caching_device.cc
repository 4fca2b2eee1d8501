#include "storage/caching_device.h"

#include <cassert>
#include <chrono>
#include <type_traits>
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
    : base_(base),
      registrar_(registrar),
      capacity_pages_(capacity_pages),
      table_(kMinTableSlots) {
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
  return resident_;
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
  uint32_t f = Find(page);
  if (f != kNoFrame) {
    if (frames_[f].pins != 0) {
      return Status::InvalidArgument("cannot free a pinned page");
    }
    DropFrame(f);
  }
  return base_->Free(page);
}

size_t CachingDevice::HomeSlot(PageId page) const {
  // Fibonacci hashing: the product's high word spreads dense page ids.
  return static_cast<size_t>((uint64_t{page} * 0x9E3779B97F4A7C15ULL) >> 32) &
         (table_.size() - 1);
}

uint32_t CachingDevice::Find(PageId page) const {
  // The table is at most half full, so every probe run ends at an empty
  // slot.
  const size_t mask = table_.size() - 1;
  for (size_t i = HomeSlot(page);; i = (i + 1) & mask) {
    const Slot& slot = table_[i];
    if (slot.page == page || slot.frame == kNoFrame) return slot.frame;
  }
}

void CachingDevice::MapPage(PageId page, uint32_t frame) {
  auto place = [this](Slot slot) {
    const size_t mask = table_.size() - 1;
    size_t i = HomeSlot(slot.page);
    while (table_[i].frame != kNoFrame) i = (i + 1) & mask;
    table_[i] = slot;
  };
  if ((resident_ + 1) * 2 > table_.size()) {
    std::vector<Slot> old =
        std::exchange(table_, std::vector<Slot>(table_.size() * 2));
    for (const Slot& slot : old) {
      if (slot.frame != kNoFrame) place(slot);
    }
  }
  place(Slot{page, frame});
}

void CachingDevice::UnmapPage(PageId page) {
  const size_t mask = table_.size() - 1;
  size_t hole = HomeSlot(page);
  while (table_[hole].page != page) hole = (hole + 1) & mask;
  // Backward-shift deletion: a later slot of the probe run moves into the
  // hole when the hole lies on its path from its home slot, which keeps
  // every remaining page reachable without tombstones.
  for (size_t i = (hole + 1) & mask; table_[i].frame != kNoFrame;
       i = (i + 1) & mask) {
    if (((i - HomeSlot(table_[i].page)) & mask) >= ((i - hole) & mask)) {
      table_[hole] = table_[i];
      hole = i;
    }
  }
  table_[hole] = Slot{};
}

void CachingDevice::LinkMru(uint32_t f) {
  Frame& frame = frames_[f];
  frame.newer = kNoFrame;
  frame.older = mru_;
  (mru_ != kNoFrame ? frames_[mru_].newer : lru_) = f;
  mru_ = f;
}

void CachingDevice::Unlink(uint32_t f) {
  const Frame& frame = frames_[f];
  (frame.newer != kNoFrame ? frames_[frame.newer].older : mru_) = frame.older;
  (frame.older != kNoFrame ? frames_[frame.older].newer : lru_) = frame.newer;
}

void CachingDevice::Touch(uint32_t f) {
  if (f == mru_) return;
  Unlink(f);
  LinkMru(f);
}

uint32_t CachingDevice::AddFrame(PageId page, std::vector<uint8_t> bytes) {
  // Guards point into frame buffers, so growing `frames_` must move each
  // buffer rather than copy it.
  static_assert(std::is_nothrow_move_constructible_v<Frame>);
  uint32_t f = static_cast<uint32_t>(frames_.size());
  if (free_frames_.empty()) {
    frames_.emplace_back();
  } else {
    f = free_frames_.back();
    free_frames_.pop_back();
  }
  frames_[f] = Frame{.page = page, .bytes = std::move(bytes)};
  MapPage(page, f);
  LinkMru(f);
  ++resident_;
  counters_.AdjustSpace(DataClass::kAux, static_cast<int64_t>(block_size()));
  return f;
}

void CachingDevice::DropFrame(uint32_t f) {
  Frame& frame = frames_[f];
  UnmapPage(frame.page);
  Unlink(f);
  std::vector<uint8_t>().swap(frame.bytes);  // Free the buffer now.
  free_frames_.push_back(f);
  --resident_;
  counters_.AdjustSpace(DataClass::kAux, -static_cast<int64_t>(block_size()));
}

void CachingDevice::PinFrame(uint32_t f) {
  Frame& frame = frames_[f];
  ++frame.pins;
  ++pins_outstanding_;
  if (Trace::enabled()) {
    if (frame.pins == 1) frame.pinned_at_ns = NowNs();
    Trace::Emit(TraceKind::kPinAcquire, TraceOp::kPin, frame.page,
                DataClass::kAux);
  }
}

uint32_t CachingDevice::UnpinFrame(PageId page) {
  uint32_t f = Find(page);
  assert(f != kNoFrame && frames_[f].pins != 0);
  Frame& frame = frames_[f];
  --frame.pins;
  --pins_outstanding_;
  if (Trace::enabled()) {
    uint64_t held = frame.pins == 0 && frame.pinned_at_ns != 0
                        ? NowNs() - frame.pinned_at_ns
                        : 0;
    Trace::Emit(TraceKind::kPinRelease, TraceOp::kPin, page, DataClass::kAux,
                held);
  }
  return f;
}

Status CachingDevice::EvictDownTo(size_t target) {
  // One sweep, LRU toward MRU. Skipping (rather than aborting on) pinned
  // entries and failed write-backs is what keeps a single unwritable dirty
  // page from wedging eviction while clean victims exist -- and the cache
  // can never grow past capacity under repeated write-back faults, because
  // the stuck victims stay *within* the existing entry set and inserts that
  // cannot make room below capacity fail instead of growing.
  Status first_failure = Status::OK();
  uint32_t f = lru_;
  while (resident_ > target && f != kNoFrame) {
    Frame& frame = frames_[f];
    const uint32_t newer = frame.newer;
    if (frame.pins != 0) {  // Must stay at a stable address.
      f = newer;
      continue;
    }
    const PageId page = frame.page;
    const bool was_dirty = frame.dirty;
    if (was_dirty) {
      Status s = base_->Write(page, frame.bytes);
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
        f = newer;  // Victim stays cached (and dirty); try the next one.
        continue;
      }
      ++write_backs_;
      Trace::Emit(TraceKind::kCacheWriteBack, TraceOp::kWrite, page,
                  DataClass::kAux);
    }
    ++evictions_;
    Trace::Emit(TraceKind::kCacheEvict, TraceOp::kNone, page, DataClass::kAux,
                was_dirty ? 1 : 0);
    DropFrame(f);
    f = newer;
  }
  // Report a failure only when it actually kept the cache above target; an
  // all-pinned overshoot is the caller's documented transient state.
  if (resident_ > target && !first_failure.ok()) return first_failure;
  return Status::OK();
}

Status CachingDevice::MakeRoom() {
  // At capacity 0 a pin's entry lives only for the pin window and is
  // trimmed away (written back if dirty) when the last pin releases.
  if (capacity_pages_ == 0 || resident_ < capacity_pages_) return Status::OK();
  return EvictDownTo(capacity_pages_ - 1);
}

Status CachingDevice::InsertEntry(PageId page, std::vector<uint8_t> bytes,
                                  bool dirty) {
  if (capacity_pages_ == 0) {
    // Degenerate cache: write-through, cache nothing.
    if (dirty) return base_->Write(page, bytes);
    return Status::OK();
  }
  Status s = MakeRoom();
  if (!s.ok()) return s;
  frames_[AddFrame(page, std::move(bytes))].dirty = dirty;
  return Status::OK();
}

Status CachingDevice::Read(PageId page, std::vector<uint8_t>* out) {
  Status result = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    NoteRecoveryLocked();
    uint32_t f = Find(page);
    if (f != kNoFrame) {
      ++hits_;
      Trace::Emit(TraceKind::kCacheHit, TraceOp::kRead, page, DataClass::kAux);
      // Served at this level: charge the cache, not the device below.
      counters_.OnRead(DataClass::kAux, block_size());
      counters_.OnBlockRead();
      Touch(f);
      *out = frames_[f].bytes;
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
    uint32_t f = Find(page);
    if (f != kNoFrame) {
      Trace::Emit(TraceKind::kCacheHit, TraceOp::kWrite, page,
                  DataClass::kAux);
      frames_[f].bytes = data;
      frames_[f].dirty = true;
      // The bytes are real data now, even in a frame a missed write pin
      // created: that pin's clean release must not drop them.
      frames_[f].speculative = false;
      Touch(f);
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
    uint32_t f = Find(page);
    if (f != kNoFrame) {
      ++hits_;
      Trace::Emit(TraceKind::kCacheHit, TraceOp::kPin, page, DataClass::kAux);
      // Served at this level: charge the cache, not the device below.
      counters_.OnRead(DataClass::kAux, block_size());
      counters_.OnBlockRead();
      Touch(f);
    } else {
      ++misses_;
      Trace::Emit(TraceKind::kCacheMiss, TraceOp::kPin, page, DataClass::kAux);
      std::vector<uint8_t> bytes;
      Status s = base_->Read(page, &bytes);
      if (!s.ok()) return s;
      s = MakeRoom();
      if (!s.ok()) return s;
      f = AddFrame(page, std::move(bytes));
    }
    PinFrame(f);
    *out = MakeReadGuard(this, page, frames_[f].bytes.data(), block_size());
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
    uint32_t f = Find(page);
    if (f != kNoFrame) {
      Touch(f);
    } else {
      // Blind write pin: hand out a zeroed block without faulting the page
      // in, mirroring Write-on-miss (no base read is charged).
      Status s = MakeRoom();
      if (!s.ok()) return s;
      f = AddFrame(page, std::vector<uint8_t>(block_size(), 0));
      frames_[f].speculative = true;
    }
    PinFrame(f);
    *out = MakeWriteGuard(this, page, frames_[f].bytes.data(), block_size());
    return Status::OK();
  }();
  TickRegistrar();
  return result;
}

void CachingDevice::UnpinRead(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t f = UnpinFrame(page);
  if (frames_[f].pins == 0) {
    // Trim any pin-induced overshoot. A failed write-back here simply
    // leaves the dirty victim cached; it retries on the next eviction.
    EvictDownTo(capacity_pages_);
  }
}

Status CachingDevice::UnpinWrite(PageId page, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t f = UnpinFrame(page);
  Frame& frame = frames_[f];
  if (dirty) {
    // The write lands at this level; charge it here exactly like Write.
    counters_.OnWrite(DataClass::kAux, block_size());
    counters_.OnBlockWrite();
    frame.dirty = true;
    frame.speculative = false;
  } else if (frame.speculative && frame.pins == 0) {
    // A missed write pin released clean never became real data; drop it so
    // later reads are not served zeros.
    DropFrame(f);
    return Status::OK();
  }
  if (frame.pins == 0) {
    return EvictDownTo(capacity_pages_);
  }
  return Status::OK();
}

Status CachingDevice::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  NoteRecoveryLocked();
  for (uint32_t f = lru_; f != kNoFrame; f = frames_[f].newer) {
    Frame& frame = frames_[f];
    if (!frame.dirty) continue;
    Status s = base_->Write(frame.page, frame.bytes);
    if (!s.ok()) {
      Trace::Emit(TraceKind::kCacheWriteBackFail, TraceOp::kFlush, frame.page,
                  DataClass::kAux);
      return StatusBuilder(s).Op("FlushAll write-back").Page(frame.page);
    }
    ++write_backs_;
    Trace::Emit(TraceKind::kCacheWriteBack, TraceOp::kFlush, frame.page,
                DataClass::kAux);
    frame.dirty = false;
  }
  return base_->FlushAll();
}

void CachingDevice::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  Trace::Emit(TraceKind::kCrash, TraceOp::kNone, kInvalidPageId,
              DataClass::kAux, resident_);
  AdvanceCrashEpoch();
  crashed_ = true;
  // All buffered state -- dirty or clean -- is volatile at this level;
  // releasing it adjusts this level's resident space back down. Dirty bytes
  // that never reached the base are simply lost, which is the point.
  counters_.AdjustSpace(DataClass::kAux,
                        -static_cast<int64_t>(resident_ * block_size()));
  frames_.clear();
  free_frames_.clear();
  table_.assign(kMinTableSlots, Slot{});
  resident_ = 0;
  mru_ = kNoFrame;
  lru_ = kNoFrame;
  pins_outstanding_ = 0;
  base_->Crash();
}

}  // namespace rum
