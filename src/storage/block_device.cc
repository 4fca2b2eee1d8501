#include "storage/block_device.h"

#include <cassert>

#include "core/trace.h"

namespace rum {

BlockDevice::BlockDevice(size_t block_size, RumCounters* counters)
    : block_size_(block_size), counters_(counters) {
  assert(block_size_ > 0);
  assert(counters_ != nullptr);
  metrics_.Init("block_device");
  metrics_.Gauge("live_pages",
                 [this] { return static_cast<uint64_t>(live_total_); });
  metrics_.Gauge("live_pages_base",
                 [this] { return static_cast<uint64_t>(live_base_); });
  metrics_.Gauge("live_pages_aux",
                 [this] { return static_cast<uint64_t>(live_aux_); });
  metrics_.Gauge("pinned_pages",
                 [this] { return static_cast<uint64_t>(pins_outstanding_); });
}

Status BlockDevice::Allocate(DataClass cls, PageId* out) {
  PageId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    pages_[id].bytes.assign(block_size_, 0);
    pages_[id].cls = cls;
    pages_[id].live = true;
  } else {
    id = static_cast<PageId>(pages_.size());
    PageSlot slot;
    slot.bytes.assign(block_size_, 0);
    slot.cls = cls;
    slot.live = true;
    pages_.push_back(std::move(slot));
  }
  ++live_total_;
  if (cls == DataClass::kBase) {
    ++live_base_;
  } else {
    ++live_aux_;
  }
  counters_->AdjustSpace(cls, static_cast<int64_t>(block_size_));
  *out = id;
  return Status::OK();
}

Status BlockDevice::CheckLive(PageId page) const {
  if (page >= pages_.size() || !pages_[page].live) {
    return Status::InvalidArgument("page not live");
  }
  return Status::OK();
}

Status BlockDevice::Free(PageId page) {
  Status s = CheckLive(page);
  if (!s.ok()) return s;
  PageSlot& slot = pages_[page];
  if (slot.pins != 0) {
    return Status::InvalidArgument("cannot free a pinned page");
  }
  slot.live = false;
  // Keep the slot's capacity: Allocate() re-zeroes recycled slots in place,
  // so freeing must not force a reallocation on the next reuse.
  slot.bytes.clear();
  free_list_.push_back(page);
  --live_total_;
  if (slot.cls == DataClass::kBase) {
    --live_base_;
  } else {
    --live_aux_;
  }
  counters_->AdjustSpace(slot.cls, -static_cast<int64_t>(block_size_));
  return Status::OK();
}

Status BlockDevice::Read(PageId page, std::vector<uint8_t>* out) {
  Status s = ChargeRead(page);
  if (!s.ok()) return s;
  *out = pages_[page].bytes;
  return Status::OK();
}

Status BlockDevice::Write(PageId page, const std::vector<uint8_t>& data) {
  if (data.size() != block_size_) {
    return Status::InvalidArgument("write size must equal block size");
  }
  Status s = ChargeWrite(page);
  if (!s.ok()) return s;
  pages_[page].bytes = data;
  return Status::OK();
}

Status BlockDevice::PinForRead(PageId page, PageReadGuard* out) {
  Status s = ChargeRead(page);
  if (!s.ok()) return s;
  PageSlot& slot = pages_[page];
  ++slot.pins;
  ++pins_outstanding_;
  *out = MakeReadGuard(this, page, slot.bytes.data(), block_size_);
  return Status::OK();
}

Status BlockDevice::PinForWrite(PageId page, PageWriteGuard* out) {
  Status s = CheckLive(page);
  if (!s.ok()) return s;
  PageSlot& slot = pages_[page];
  ++slot.pins;
  ++pins_outstanding_;
  *out = MakeWriteGuard(this, page, slot.bytes.data(), block_size_);
  return Status::OK();
}

void BlockDevice::UnpinRead(PageId page) {
  assert(page < pages_.size() && pages_[page].pins != 0);
  --pages_[page].pins;
  --pins_outstanding_;
}

Status BlockDevice::UnpinWrite(PageId page, bool dirty) {
  assert(page < pages_.size() && pages_[page].pins != 0);
  --pages_[page].pins;
  --pins_outstanding_;
  if (!dirty) return Status::OK();
  return ChargeWrite(page);
}

void BlockDevice::Crash() {
  Trace::Emit(TraceKind::kCrash, TraceOp::kNone, kInvalidPageId,
              DataClass::kBase, pins_outstanding_);
  AdvanceCrashEpoch();
  for (PageSlot& slot : pages_) slot.pins = 0;
  pins_outstanding_ = 0;
}

std::vector<uint8_t>* BlockDevice::mutable_page_unaccounted(PageId page) {
  if (!CheckLive(page).ok()) return nullptr;
  return &pages_[page].bytes;
}

Status BlockDevice::ChargeRead(PageId page) const {
  Status s = CheckLive(page);
  if (!s.ok()) return s;
  counters_->OnRead(pages_[page].cls, block_size_);
  counters_->OnBlockRead();
  return Status::OK();
}

Status BlockDevice::ChargeWrite(PageId page) {
  Status s = CheckLive(page);
  if (!s.ok()) return s;
  counters_->OnWrite(pages_[page].cls, block_size_);
  counters_->OnBlockWrite();
  return Status::OK();
}

}  // namespace rum
