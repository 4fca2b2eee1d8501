#ifndef RUMLAB_SERVICE_REQUEST_H_
#define RUMLAB_SERVICE_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/status.h"
#include "core/types.h"
#include "workload/op.h"

namespace rum {

/// The operation a request asks of the access method: the workload op
/// vocabulary (workload/op.h), so the scheduler and the closed-loop runner
/// share one op kind, executor, benign-status rule and degrade gate.
/// BulkLoad/Flush are setup traffic, not request traffic, and bypass the
/// scheduler.
using RequestOp = OpKind;

/// One request flowing through the scheduler. Times are *virtual*
/// microseconds on the scheduler's discrete-event clock, which is what makes
/// queueing dynamics a deterministic function of the seed (DESIGN.md §3h).
struct Request {
  RequestOp op = RequestOp::kGet;
  Key key = 0;
  Value value = 0;  ///< Payload for kInsert/kUpdate.
  Key scan_hi = 0;  ///< Inclusive upper bound for kScan.
  /// Sink for kScan results; may be null (results discarded). In-process
  /// only -- the pointer must outlive the request's completion.
  std::vector<Entry>* scan_out = nullptr;

  uint64_t arrival_us = 0;   ///< Virtual arrival time (nondecreasing).
  uint64_t deadline_us = 0;  ///< Absolute virtual deadline; 0 = none.
  uint8_t priority = 0;      ///< 0 = high, 1 = normal (FIFO within a class).
  uint64_t seq = 0;          ///< Submission order; assigned by the scheduler.
};

/// What finally happened to a submitted request. Exactly one of these per
/// request -- the ledger invariant below counts them.
enum class RequestOutcome : uint8_t {
  kCompleted = 0,      ///< Dispatched to the method (possibly failing there).
  kDeadlineExceeded,   ///< Expired in queue; the device was never touched.
  kShed,               ///< Refused by admission control or queue overflow.
};

/// Completion record handed to the submitter's callback.
struct RequestResult {
  RequestOutcome outcome = RequestOutcome::kShed;
  /// The method's status for kCompleted (benign misses mapped through
  /// as-is); kDeadlineExceeded / kResourceExhausted otherwise.
  Status status = Status::OK();
  Value value = 0;            ///< Get result when found.
  bool found = false;         ///< Get hit (status OK and value valid).
  /// True when a mutation was withheld under degraded service (kDegrade
  /// after the first failure): counted completed, storage untouched.
  bool degraded_skip = false;
  /// True when the method was invoked and returned a failure under the
  /// shared benign-status rule (IsFailure in workload/op.h).
  bool failed = false;
  uint64_t completion_us = 0; ///< Virtual completion time.
};

/// The scheduler's ledger and latency record. All durations are virtual
/// microseconds. The headline invariant -- checked exactly by
/// saturation_test -- is conservation of requests:
///
///   submitted == completed + deadline_missed + shed
///   accepted  == completed + deadline_missed + shed_codel
///   shed      == shed_queue_full + shed_rate_gate + shed_codel
///
/// `failed` is a subset of `completed` (the method was invoked and returned
/// a non-benign error); `completed_within_slo` is the goodput numerator.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t accepted = 0;  ///< Passed the front door into a queue.
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t degraded_skips = 0;  ///< Mutations withheld in degraded service.
  uint64_t deadline_missed = 0;
  uint64_t shed = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_rate_gate = 0;
  uint64_t shed_codel = 0;

  uint64_t batches = 0;       ///< Dispatch windows executed.
  uint64_t batched_ops = 0;   ///< Requests dispatched inside those windows.
  uint64_t coalesced_reads = 0;  ///< Gets served by piggybacking on a peer.
  /// Dispatch windows served by a single MultiGet call instead of a per-key
  /// Get loop (each such window is also counted in `batches`).
  uint64_t batched_reads = 0;
  uint64_t completed_within_slo = 0;
  uint64_t max_queue_depth = 0;  ///< High-water mark across shards.
  uint64_t end_us = 0;           ///< Virtual clock after the final drain.

  LatencyHistogram queue_delay_us;  ///< Arrival -> dispatch.
  LatencyHistogram service_us;      ///< Dispatch -> completion.
  LatencyHistogram total_us;        ///< Arrival -> completion (completed only).
  /// Unique keys per MultiGet dispatch (recorded once per batched read).
  LatencyHistogram batch_size;

  /// True when the conservation invariants above hold exactly.
  bool LedgerHolds() const {
    return submitted == completed + deadline_missed + shed &&
           accepted == completed + deadline_missed + shed_codel &&
           shed == shed_queue_full + shed_rate_gate + shed_codel;
  }

  /// Completions within the SLO per virtual second of run time.
  double goodput_ops_per_sec() const {
    return end_us == 0 ? 0.0
                       : static_cast<double>(completed_within_slo) * 1e6 /
                             static_cast<double>(end_us);
  }

  /// One JSON object with every counter plus the three histograms.
  /// Deterministic for a deterministic run (no wall-clock inputs), so
  /// same-seed replays compare byte-for-byte.
  std::string ToJson() const;
};

}  // namespace rum

#endif  // RUMLAB_SERVICE_REQUEST_H_
