#ifndef RUMLAB_STORAGE_RETRY_DEVICE_H_
#define RUMLAB_STORAGE_RETRY_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/counters.h"
#include "core/metrics.h"
#include "core/options.h"
#include "core/status.h"
#include "core/trace.h"
#include "core/types.h"
#include "storage/device.h"

namespace rum {

/// A retry/degradation decorator over any Device, driven by
/// Options::Storage::Retry.
///
/// Each fallible operation (Allocate/Read/Write/FlushAll and pin
/// acquisitions) is attempted up to `max_attempts` times. Only kIOError
/// is retried: a transient fault may clear on re-attempt, but kCorruption
/// is a checksum mismatch on durable bytes and does not heal, and argument
/// errors are the caller's bug. Every attempt that failed *with kIOError* charges
/// one `io_errors` tick and every re-attempt one `retries` tick on the
/// counters supplied at construction (so `io_errors - retries` equals the
/// number of operations that ultimately failed with kIOError, and wrapping
/// a FaultyDevice directly makes io_errors equal its faults_injected());
/// non-kIOError failures charge nothing here. Failed attempts never charge
/// traffic (the device contract: a faulted op moves no bytes). Those
/// counters need serialized callers, as RumCounters does; a CachingDevice
/// above this one provides that with its mutex.
///
/// Backoff is simulated, not slept: before retry k (1-based) the decorator
/// adds `backoff_base_us << (k-1)` to an accumulated virtual wait readable
/// via simulated_backoff_us(). This keeps chaos runs fast and replays
/// deterministic.
///
/// Exhausting a real retry budget (max_attempts > 1) without the
/// fault clearing returns kUnavailable wrapping the last kIOError message,
/// with the attempt count and total simulated backoff attached -- a
/// terminal "kept trying and gave up" signal distinct from a fail-fast
/// kIOError (policies with 1 attempt keep the raw code).
///
/// Pin guards are forwarded straight from the wrapped device: acquisition
/// failures retry here, but a guard's dirty-release fault surfaces to the
/// caller unretried -- the caller's in-place mutations may already be torn,
/// so blind re-release would hide a torn write. Callers that want release
/// retries must re-pin and rewrite.
class RetryingDevice : public Device {
 public:
  /// Wraps `base` (borrowed, must outlive this), charging error/retry ticks
  /// to `counters` (borrowed). Policy is copied out of `options`.
  RetryingDevice(Device* base, const Options& options, RumCounters* counters);

  /// Total simulated backoff accumulated across all retries, in
  /// microseconds. Deterministic for a deterministic op/fault sequence.
  uint64_t simulated_backoff_us() const;

  // -- Device interface.
  Status Allocate(DataClass cls, PageId* out) override;
  Status Free(PageId page) override;
  Status Read(PageId page, std::vector<uint8_t>* out) override;
  Status Write(PageId page, const std::vector<uint8_t>& data) override;
  Status FlushAll() override;
  Status PinForRead(PageId page, PageReadGuard* out) override;
  Status PinForWrite(PageId page, PageWriteGuard* out) override;
  void Crash() override { base_->Crash(); }
  size_t block_size() const override { return base_->block_size(); }
  size_t live_pages() const override { return base_->live_pages(); }

 protected:
  // Guards are handed out by the wrapped device, so releases never route
  // through this decorator.
  void UnpinRead(PageId) override {}
  Status UnpinWrite(PageId, bool) override { return Status::OK(); }

 private:
  /// Runs `op()` with the retry policy; `op` must be re-invocable.
  /// `traced_op`/`page` label the kRetryAttempt trace events.
  template <typename Op>
  Status WithRetries(TraceOp traced_op, PageId page, Op&& op);

  Device* base_;           // Not owned.
  RumCounters* counters_;  // Not owned.
  Options::Storage::Retry policy_;
  std::atomic<uint64_t> backoff_us_{0};
  /// Last member: unregisters before any state its callbacks read dies.
  MetricsGroup metrics_;
};

}  // namespace rum

#endif  // RUMLAB_STORAGE_RETRY_DEVICE_H_
