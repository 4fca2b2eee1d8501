#include "storage/faulty_device.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/status_builder.h"
#include "core/trace.h"

namespace rum {

namespace {
TraceOp TraceOpFor(FaultOp op) {
  switch (op) {
    case FaultOp::kRead: return TraceOp::kRead;
    case FaultOp::kWrite: return TraceOp::kWrite;
    case FaultOp::kPin: return TraceOp::kPin;
    case FaultOp::kAllocate: return TraceOp::kAllocate;
    case FaultOp::kFlush: return TraceOp::kFlush;
  }
  return TraceOp::kNone;
}
}  // namespace

FaultyDevice::FaultyDevice(Device* base) : base_(base) {
  assert(base_ != nullptr);
  metrics_.Init("faulty_device");
  metrics_.Gauge("faults_injected", [this] { return faults_injected(); });
  metrics_.Gauge("torn_writes", [this] { return torn_writes(); });
  metrics_.Gauge("pinned_pages",
                 [this] { return static_cast<uint64_t>(pinned_pages()); });
}

FaultyDevice::FaultyDevice(Device* base, FaultPlan plan) : FaultyDevice(base) {
  SetPlan(std::move(plan));
}

void FaultyDevice::SetPlan(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  io_budget_left_ = plan_.fail_after_io;
  draw_index_.fill(0);
  torn_draw_index_ = 0;
}

const FaultPlan& FaultyDevice::plan() const { return plan_; }

bool FaultyDevice::fault_active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_.fail_after_io != FaultPlan::kNever && io_budget_left_ == 0;
}

uint64_t FaultyDevice::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (uint64_t n : injected_) total += n;
  return total;
}

uint64_t FaultyDevice::faults_injected(FaultOp op) const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_[static_cast<size_t>(op)];
}

uint64_t FaultyDevice::torn_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return torn_writes_;
}

bool FaultyDevice::page_torn(PageId page) const {
  std::lock_guard<std::mutex> lock(mu_);
  return torn_.count(page) != 0;
}

size_t FaultyDevice::pinned_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pins_outstanding_;
}

Status FaultyDevice::MaybeFault(FaultOp op, PageId page, bool counts_io) {
  size_t idx = static_cast<size_t>(op);
  uint64_t draw = draw_index_[idx]++;
  if (FaultDraw(plan_.seed, op, draw, plan_.transient_rate[idx])) {
    ++injected_[idx];
    Trace::Emit(TraceKind::kFaultInjected, TraceOpFor(op), page,
                DataClass::kBase);
    StatusBuilder b(Code::kIOError, "injected transient fault");
    b.Op(FaultOpName(op));
    if (page != kInvalidPageId) b.Page(page);
    return b;
  }
  if (counts_io && plan_.fail_after_io != FaultPlan::kNever) {
    if (io_budget_left_ == 0) {
      ++injected_[idx];
      Trace::Emit(TraceKind::kFaultInjected, TraceOpFor(op), page,
                  DataClass::kBase);
      StatusBuilder b(Code::kIOError, "injected device fault");
      b.Op(FaultOpName(op));
      if (page != kInvalidPageId) b.Page(page);
      return b;
    }
    --io_budget_left_;
  }
  return Status::OK();
}

bool FaultyDevice::DrawTorn() {
  if (plan_.torn_write_rate <= 0.0) return false;
  // An offset seed keeps the torn stream independent of the fault stream.
  return FaultDraw(plan_.seed + 0x7042ULL, FaultOp::kWrite, torn_draw_index_++,
                   plan_.torn_write_rate);
}

void FaultyDevice::FlipTail(std::span<uint8_t> bytes) {
  size_t n = std::min(plan_.torn_tail_bytes, bytes.size());
  for (size_t i = bytes.size() - n; i < bytes.size(); ++i) {
    bytes[i] ^= 0xFF;
  }
}

Status FaultyDevice::TornStatus(PageId page, const char* op) const {
  return StatusBuilder(Code::kCorruption, "checksum mismatch on torn page")
      .Op(op)
      .Page(page);
}

Status FaultyDevice::Allocate(DataClass cls, PageId* out) {
  std::lock_guard<std::mutex> lock(mu_);
  Status s = MaybeFault(FaultOp::kAllocate, kInvalidPageId, false);
  if (!s.ok()) return s;
  s = base_->Allocate(cls, out);
  // A recycled slot comes back zeroed; any old tear is gone.
  if (s.ok()) torn_.erase(*out);
  return s;
}

Status FaultyDevice::Free(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  Status s = base_->Free(page);
  if (s.ok()) torn_.erase(page);
  return s;
}

Status FaultyDevice::Read(PageId page, std::vector<uint8_t>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (torn_.count(page) != 0) return TornStatus(page, "Read");
  Status s = MaybeFault(FaultOp::kRead, page, true);
  if (!s.ok()) return s;
  return base_->Read(page, out);
}

Status FaultyDevice::Write(PageId page, const std::vector<uint8_t>& data) {
  std::lock_guard<std::mutex> lock(mu_);
  Status s = MaybeFault(FaultOp::kWrite, page, true);
  if (!s.ok()) {
    if (DrawTorn() && data.size() == base_->block_size()) {
      // The tear lands part of the new image without accounting: mutate the
      // block in place through a clean write-pin release (charges nothing,
      // leaves the mutation visible -- the pin contract's torn analogue).
      PageWriteGuard guard;
      if (base_->PinForWrite(page, &guard).ok()) {
        std::copy(data.begin(), data.end(), guard.bytes().begin());
        FlipTail(guard.bytes());
        guard.Release();  // Clean: uncharged.
        torn_.insert(page);
        ++torn_writes_;
        Trace::Emit(TraceKind::kTornWrite, TraceOp::kWrite, page,
                    DataClass::kBase);
      }
    }
    return s;
  }
  s = base_->Write(page, data);
  if (s.ok()) torn_.erase(page);  // Fully rewritten: checksum valid again.
  return s;
}

Status FaultyDevice::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  Status s = MaybeFault(FaultOp::kFlush, kInvalidPageId, false);
  if (!s.ok()) return s;
  return base_->FlushAll();
}

Status FaultyDevice::PinForRead(PageId page, PageReadGuard* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (torn_.count(page) != 0) return TornStatus(page, "PinForRead");
  // Pin-read acquisition is a charged read, so it consumes the budget
  // exactly like a Read.
  Status s = MaybeFault(FaultOp::kPin, page, true);
  if (!s.ok()) return s;
  PageReadGuard base_guard;
  s = base_->PinForRead(page, &base_guard);
  if (!s.ok()) return s;
  std::span<const uint8_t> bytes = base_guard.bytes();
  pins_[page].read_guards.push_back(std::move(base_guard));
  ++pins_outstanding_;
  *out = MakeReadGuard(this, page, bytes.data(), bytes.size());
  return Status::OK();
}

Status FaultyDevice::PinForWrite(PageId page, PageWriteGuard* out) {
  std::lock_guard<std::mutex> lock(mu_);
  // Write-pin acquisition charges nothing, so it cannot consume the budget;
  // the write-class fault waits at the dirty release.
  Status s = MaybeFault(FaultOp::kPin, page, false);
  if (!s.ok()) return s;
  PageWriteGuard base_guard;
  s = base_->PinForWrite(page, &base_guard);
  if (!s.ok()) return s;
  std::span<uint8_t> bytes = base_guard.bytes();
  pins_[page].write_guards.push_back(std::move(base_guard));
  ++pins_outstanding_;
  *out = MakeWriteGuard(this, page, bytes.data(), bytes.size());
  return Status::OK();
}

void FaultyDevice::UnpinRead(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(page);
  assert(it != pins_.end() && !it->second.read_guards.empty());
  it->second.read_guards.pop_back();  // Releases the base pin.
  --pins_outstanding_;
  if (it->second.read_guards.empty() && it->second.write_guards.empty()) {
    pins_.erase(it);
  }
}

Status FaultyDevice::UnpinWrite(PageId page, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(page);
  assert(it != pins_.end() && !it->second.write_guards.empty());
  PageWriteGuard base_guard = std::move(it->second.write_guards.back());
  it->second.write_guards.pop_back();
  --pins_outstanding_;
  if (it->second.read_guards.empty() && it->second.write_guards.empty()) {
    pins_.erase(it);
  }
  if (!dirty) return base_guard.Release();  // Clean through and through.
  Status s = MaybeFault(FaultOp::kWrite, page, true);
  if (!s.ok()) {
    // The failed dirty release: the caller's in-place mutations stay
    // visible and uncharged. A torn draw additionally flips the tail and
    // poisons the page so no read can silently serve it.
    if (DrawTorn()) {
      FlipTail(base_guard.bytes());
      torn_.insert(page);
      ++torn_writes_;
      Trace::Emit(TraceKind::kTornWrite, TraceOp::kWrite, page,
                  DataClass::kBase);
    }
    base_guard.Release();  // Clean: uncharged.
    return s;
  }
  base_guard.MarkDirty();
  s = base_guard.Release();
  if (s.ok()) torn_.erase(page);  // Fully rewritten in place.
  return s;
}

void FaultyDevice::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  Trace::Emit(TraceKind::kCrash, TraceOp::kNone, kInvalidPageId,
              DataClass::kBase, pins_outstanding_);
  // Drop this level's pin bookkeeping first (releasing the base pins while
  // the base is still pre-crash), then crash the levels below. Torn pages
  // stay poisoned: the damage is on the durable medium.
  AdvanceCrashEpoch();
  pins_.clear();
  pins_outstanding_ = 0;
  base_->Crash();
}

}  // namespace rum
