#include "storage/append_log.h"

#include <cassert>
#include <cstring>

#include "storage/page_format.h"

namespace rum {

namespace {
// Tail/log page layout: [0,8) record count, then packed records.
constexpr size_t kLogHeaderSize = sizeof(uint64_t);
}  // namespace

AppendLog::AppendLog(Device* device, DataClass cls, RumCounters* counters)
    : device_(device), cls_(cls), counters_(counters) {
  assert(device_ != nullptr && counters_ != nullptr);
  records_per_block_ =
      (device_->block_size() - kLogHeaderSize) / LogRecord::kWireSize;
  assert(records_per_block_ > 0);
}

AppendLog::~AppendLog() = default;

void AppendLog::EncodeRecord(const LogRecord& r, uint8_t* dst) {
  EncodeU64(r.key, dst);
  EncodeU64(r.value, dst + 8);
  dst[16] = static_cast<uint8_t>(r.op);
}

LogRecord AppendLog::DecodeRecord(const uint8_t* src) {
  LogRecord r;
  r.key = DecodeU64(src);
  r.value = DecodeU64(src + 8);
  r.op = static_cast<LogOp>(src[16]);
  return r;
}

Status AppendLog::Append(const LogRecord& record) {
  if (tail_page_ == kInvalidPageId) {
    Status s = device_->Allocate(cls_, &tail_page_);
    if (!s.ok()) return s;
  }
  tail_.push_back(record);
  ++record_count_;
  if (tail_.size() == records_per_block_) {
    Status s = Flush();
    if (!s.ok()) return s;
    pages_.push_back(tail_page_);
    tail_page_ = kInvalidPageId;
    tail_.clear();
  }
  return Status::OK();
}

Status AppendLog::Flush() {
  if (tail_.empty() || tail_page_ == kInvalidPageId) return Status::OK();
  PageWriteGuard guard;
  Status s = device_->PinForWrite(tail_page_, &guard);
  if (!s.ok()) return s;
  uint8_t* block = guard.bytes().data();
  std::memset(block, 0, guard.bytes().size());
  EncodeU64(tail_.size(), block);
  uint8_t* cursor = block + kLogHeaderSize;
  for (const LogRecord& r : tail_) {
    EncodeRecord(r, cursor);
    cursor += LogRecord::kWireSize;
  }
  guard.MarkDirty();
  return guard.Release();
}

Status AppendLog::ForEach(
    const std::function<Status(const LogRecord&)>& visit) const {
  // Decoded into a per-call scratch so the pin is released before the
  // visitor runs (visitors may touch the device themselves).
  std::vector<LogRecord> records;
  records.reserve(records_per_block_);
  for (PageId page : pages_) {
    PageReadGuard guard;
    Status s = device_->PinForRead(page, &guard);
    if (!s.ok()) return s;
    const uint8_t* data = guard.bytes().data();
    uint64_t n = DecodeU64(data);
    if (n > records_per_block_) {
      return Status::Corruption("log record count exceeds block");
    }
    const uint8_t* cursor = data + kLogHeaderSize;
    records.clear();
    for (uint64_t i = 0; i < n; ++i) {
      records.push_back(DecodeRecord(cursor));
      cursor += LogRecord::kWireSize;
    }
    guard.Release();
    for (const LogRecord& r : records) {
      s = visit(r);
      if (!s.ok()) return s;
    }
  }
  // Records still buffered in the tail are served from memory; charge their
  // bytes as a read at this level.
  if (!tail_.empty()) {
    counters_->OnRead(cls_, tail_.size() * LogRecord::kWireSize);
    for (const LogRecord& r : tail_) {
      Status s = visit(r);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

Status AppendLog::Clear() {
  for (PageId page : pages_) {
    Status s = device_->Free(page);
    if (!s.ok()) return s;
  }
  pages_.clear();
  if (tail_page_ != kInvalidPageId) {
    Status s = device_->Free(tail_page_);
    if (!s.ok()) return s;
    tail_page_ = kInvalidPageId;
  }
  tail_.clear();
  record_count_ = 0;
  return Status::OK();
}

}  // namespace rum
