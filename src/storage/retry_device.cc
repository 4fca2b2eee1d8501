#include "storage/retry_device.h"

#include <cassert>
#include <string>
#include <utility>

#include "core/status_builder.h"
#include "core/trace.h"

namespace rum {

RetryingDevice::RetryingDevice(Device* base, const Options& options,
                               RumCounters* counters)
    : base_(base), counters_(counters), policy_(options.storage.retry) {
  assert(base_ != nullptr);
  assert(counters_ != nullptr);
  if (policy_.max_attempts == 0) policy_.max_attempts = 1;
  metrics_.Init("retrying_device");
  metrics_.Gauge("simulated_backoff_us",
                 [this] { return simulated_backoff_us(); });
}

uint64_t RetryingDevice::simulated_backoff_us() const {
  return backoff_us_.load(std::memory_order_relaxed);
}

template <typename Op>
Status RetryingDevice::WithRetries(TraceOp traced_op, PageId page, Op&& op) {
  uint64_t waited_us = 0;
  Status s;
  for (size_t attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (attempt > 1) {
      counters_->OnRetry();
      Trace::Emit(TraceKind::kRetryAttempt, traced_op, page, DataClass::kBase,
                  attempt);
      uint64_t wait = policy_.backoff_base_us << (attempt - 2);
      waited_us += wait;
      backoff_us_.fetch_add(wait, std::memory_order_relaxed);
    }
    s = op();
    if (s.ok()) return s;
    // Only operations that actually returned kIOError charge the io_errors
    // tick (the counters.h contract); a kCorruption or argument failure is
    // not an I/O error and is never retried either.
    if (s.code() != Code::kIOError) return s;
    counters_->OnIoError();
  }
  // A real retry budget (> 1 attempt) that never saw the fault clear is a
  // different signal than one transient kIOError: the resource is
  // unavailable. Surface it as such, with the budget and the total
  // simulated backoff attached, so callers can distinguish "fail-fast
  // error" from "kept trying and gave up". Fail-fast policies (1 attempt)
  // keep the raw kIOError.
  if (policy_.max_attempts > 1) {
    return StatusBuilder(Code::kUnavailable, s.message())
        .Detail("retry budget exhausted after " +
                std::to_string(policy_.max_attempts) + " attempts, " +
                std::to_string(waited_us) + "us simulated backoff");
  }
  return s;
}

Status RetryingDevice::Allocate(DataClass cls, PageId* out) {
  return WithRetries(TraceOp::kAllocate, kInvalidPageId,
                     [&] { return base_->Allocate(cls, out); });
}

Status RetryingDevice::Free(PageId page) {
  // Free is not an I/O in the fault model; forward directly.
  return base_->Free(page);
}

Status RetryingDevice::Read(PageId page, std::vector<uint8_t>* out) {
  return WithRetries(TraceOp::kRead, page,
                     [&] { return base_->Read(page, out); });
}

Status RetryingDevice::Write(PageId page, const std::vector<uint8_t>& data) {
  return WithRetries(TraceOp::kWrite, page,
                     [&] { return base_->Write(page, data); });
}

Status RetryingDevice::FlushAll() {
  return WithRetries(TraceOp::kFlush, kInvalidPageId,
                     [&] { return base_->FlushAll(); });
}

Status RetryingDevice::PinForRead(PageId page, PageReadGuard* out) {
  return WithRetries(TraceOp::kPin, page,
                     [&] { return base_->PinForRead(page, out); });
}

Status RetryingDevice::PinForWrite(PageId page, PageWriteGuard* out) {
  return WithRetries(TraceOp::kPin, page,
                     [&] { return base_->PinForWrite(page, out); });
}

}  // namespace rum
