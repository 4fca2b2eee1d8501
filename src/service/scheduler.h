#ifndef RUMLAB_SERVICE_SCHEDULER_H_
#define RUMLAB_SERVICE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/access_method.h"
#include "core/metrics.h"
#include "core/options.h"
#include "service/admission.h"
#include "service/request.h"
#include "workload/op.h"
#include "workload/spec.h"

namespace rum {

/// The request-scheduling front end between workload drivers and an access
/// method: per-shard bounded priority queues, group-commit batching, read
/// coalescing, per-request deadlines, and CoDel + token-bucket admission
/// control (DESIGN.md §3h).
///
/// Time is *virtual*: the scheduler is a discrete-event simulation whose
/// service costs come from Options::service's cost model (a dispatch window
/// costs dispatch_overhead_us + op_cost_us per op, scan_cost_us per scan, of
/// server time on its shard). Queueing dynamics -- depths, sojourns, sheds,
/// deadline misses, p99s -- are therefore a deterministic function of the
/// submitted request sequence, independent of wall-clock speed, sanitizers,
/// or host load. Shards serve in virtual parallel: each KeyPartitioned
/// partition is an independent server with its own queue and busy-until
/// horizon (non-partitioned methods are one shard).
///
/// Threading: single-threaded by contract, like the access methods it
/// fronts. Submit() arrivals must be nondecreasing in arrival_us. Export
/// metrics (registered under "scheduler[k].*") only between calls, per the
/// usual RumCounters synchronization contract.
///
/// Request lifecycle:
///   Submit -> front door (token bucket, queue bound) -> queue ->
///   dispatch (deadline check, CoDel head drop) -> batch -> method call ->
///   completion callback.
/// Every submitted request reaches the callback exactly once, with one of
/// the three RequestOutcomes; ServiceStats's ledger counts them.
class RequestScheduler {
 public:
  using CompletionFn =
      std::function<void(const Request&, const RequestResult&)>;

  /// `method` must outlive the scheduler. `error_mode` applies the workload
  /// error policy *inside* the dispatch loop through the shared DegradeGate:
  /// under kDegrade, the first method failure flips the scheduler into
  /// degraded service and every later mutation completes as a degraded skip
  /// without touching storage. `options.service` supplies every knob.
  RequestScheduler(AccessMethod* method, const Options& options,
                   ErrorMode error_mode = ErrorMode::kAbort);

  /// Invoked at each request's completion (any outcome), in virtual-time
  /// order. Set before the first Submit.
  void set_completion(CompletionFn fn) { completion_ = std::move(fn); }

  /// Serves all work due before `req.arrival_us`, then admits or sheds the
  /// request. Returns true when the request entered a queue (it will later
  /// complete, miss its deadline, or be CoDel-shed), false when the front
  /// door shed it. arrival_us values must be nondecreasing across calls.
  bool Submit(Request req);

  /// Dispatches every batch whose start time falls strictly before `t_us`.
  /// Batches started before `t_us` may complete after it (busy_until_us
  /// advances past the horizon); that is the open-loop overhang.
  void ServeUntil(uint64_t t_us);

  /// Drains every queue and records ServiceStats::end_us.
  void RunUntilIdle();

  /// Current virtual time: the later of the arrival frontier and the last
  /// completion processed.
  uint64_t now_us() const { return now_us_; }

  /// Queued (admitted, not yet dispatched) requests across all shards.
  size_t queue_depth() const;

  /// True once a failure flipped degraded service (kDegrade).
  bool degraded() const { return gate_.degraded(); }

  const ServiceStats& stats() const { return stats_; }

 private:
  struct Shard {
    std::deque<Request> queue[2];  ///< [0] = high priority, [1] = normal.
    uint64_t busy_until_us = 0;    ///< Server free time.
    CoDelController codel;

    explicit Shard(const Options::Service& s)
        : codel(s.codel_target_us, s.codel_interval_us) {}
    size_t depth() const { return queue[0].size() + queue[1].size(); }
  };

  size_t ShardOf(const Request& req) const;
  /// Earliest time shard `s` can start its next batch, or UINT64_MAX when
  /// its queues are empty.
  uint64_t NextStart(const Shard& s) const;
  /// Pops and runs one batch on shard `s` starting at virtual time `start`.
  void DispatchBatch(Shard* s, uint64_t start);
  /// Executes one dispatched request against the method (or withholds it
  /// under degraded service) and fills `result`.
  void Execute(const Request& req, RequestResult* result);
  void Complete(const Request& req, const RequestResult& result);

  AccessMethod* method_;
  const KeyPartitioned* partitioned_;  ///< Null when method is unsharded.
  Options::Service opts_;
  DegradeGate gate_;
  TokenBucket bucket_;
  std::vector<Shard> shards_;

  uint64_t now_us_ = 0;
  uint64_t next_seq_ = 0;
  ServiceStats stats_;
  CompletionFn completion_;
  std::vector<Entry> scan_scratch_;

  MetricsGroup metrics_;  ///< Last member: unregisters before state dies.
};

}  // namespace rum

#endif  // RUMLAB_SERVICE_SCHEDULER_H_
