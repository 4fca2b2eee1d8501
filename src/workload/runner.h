#ifndef RUMLAB_WORKLOAD_RUNNER_H_
#define RUMLAB_WORKLOAD_RUNNER_H_

#include <string>

#include "core/access_method.h"
#include "core/counters.h"
#include "core/memory_budget.h"
#include "core/metrics.h"
#include "core/rum_point.h"
#include "core/status.h"
#include "workload/op.h"
#include "workload/spec.h"

namespace rum {

/// Order statistics of a per-operation cost distribution (bytes touched).
struct CostPercentiles {
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;

  /// Computes percentiles from raw per-op samples (sorted internally).
  static CostPercentiles From(std::vector<uint64_t> samples);
};

/// Per-worker tally of operation errors absorbed during a phase run with
/// ErrorMode::kSkipAndCount or kDegrade. Deterministic for a deterministic
/// fault plan and serial op order.
struct ErrorTally {
  uint64_t io_errors = 0;    ///< Operations failed with kIOError.
  uint64_t corruption = 0;   ///< Operations failed with kCorruption.
  uint64_t other = 0;        ///< Any other non-benign failure.
  uint64_t degraded_skips = 0;  ///< Mutations withheld in degraded service.

  uint64_t failed() const { return io_errors + corruption + other; }
  void Count(const Status& s);
  ErrorTally& operator+=(const ErrorTally& o);
  std::string ToString() const;
};

/// Wall-clock latency distributions per operation class, in nanoseconds.
/// Each worker records into its own copy (plain adds, no sharing); the
/// runner merges per-worker copies after the join, so concurrent phases get
/// latency tails too. Values are wall-clock and therefore not deterministic
/// run-to-run -- unlike the byte-cost percentiles, which are.
struct OpLatencies {
  LatencyHistogram point;   ///< Get
  LatencyHistogram scan;    ///< Scan
  LatencyHistogram insert;  ///< Insert
  LatencyHistogram update;  ///< Update
  LatencyHistogram erase;   ///< Delete

  /// The histogram of an op kind's class.
  LatencyHistogram& For(OpKind kind);
  void Merge(const OpLatencies& o);
  /// All classes folded together.
  LatencyHistogram Total() const;
  /// {"point":{...},"scan":{...},...} -- class keys with histogram summaries.
  std::string ToJson() const;
};

/// Result of running a workload phase against an access method: the
/// counter delta over the phase plus derived RUM coordinates.
struct RumProfile {
  std::string method;
  WorkloadSpec spec;
  CounterSnapshot delta;  ///< Traffic during the phase; space = at end.
  RumPoint point;         ///< Derived from `delta`.
  double wall_seconds = 0;
  /// Per-operation bytes-read distribution: means hide tails (an LSM's
  /// occasional compaction, a sorted column's shift cascade); these don't.
  /// Sampled from the per-thread traffic tally (ThisThreadIo), so both
  /// serial and concurrent phases get samples without any cross-thread
  /// probing. The tally counts every byte the op's thread charged anywhere
  /// in the stack, so for device-injected stacks the samples include
  /// cache-layer charges alongside the method's own.
  CostPercentiles read_cost;
  /// Per-operation bytes-written distribution (same sampling path).
  CostPercentiles write_cost;
  /// Wall-clock latency histograms per op class (serial and concurrent).
  OpLatencies latency;
  /// One tally per worker (one entry for serial phases). Empty unless the
  /// spec ran with kSkipAndCount or kDegrade.
  std::vector<ErrorTally> worker_errors;
  /// End-of-phase global memory split (all zeros unless the phase ran via
  /// the registrar-sampling Run overload): how the arbiter had the byte
  /// budget divided when the phase finished, with `replans` counting its
  /// adaptations so far. Phase-by-phase deltas of this are the experiment
  /// evidence that memory overhead migrates between hierarchy levels.
  MemorySplit memory_split{};

  /// All workers' tallies merged.
  ErrorTally errors() const;

  /// Per-operation averages.
  double bytes_read_per_op() const;
  double bytes_written_per_op() const;

  std::string ToString() const;
};

/// Executes workload specs against access methods and snapshots RUM
/// accounting around each phase.
class WorkloadRunner {
 public:
  /// Runs `spec` against `method`, returning the phase profile. The method
  /// may already contain data (e.g. bulk-loaded); the profile measures only
  /// this phase's traffic. A spec that fails ValidateSpec returns its
  /// kInvalidArgument before anything runs.
  ///
  /// With spec.concurrency > 1 the phase is driven by a worker pool;
  /// `method` must implement KeyPartitioned (ShardedMethod does) or the run
  /// fails with kInvalidArgument. Each worker derives an independent seed
  /// stream from (spec.seed, worker) and owns a disjoint set of partitions,
  /// so every partition sees a deterministic operation order and the phase's
  /// counter delta is byte-identical run-to-run (for specs without scans;
  /// scans cross partitions, so their physical read traffic depends on the
  /// interleaving while contents stay exact). The worker count is capped at
  /// the method's partition count.
  static Result<RumProfile> Run(AccessMethod* method,
                                const WorkloadSpec& spec);

  /// As Run, but samples `registrar->split()` into the profile's
  /// memory_split when the phase ends (null registrar = plain Run), so
  /// arbitrated experiments report where the budget sat per phase.
  static Result<RumProfile> Run(AccessMethod* method, const WorkloadSpec& spec,
                                MemoryRegistrar* registrar);

  /// Convenience: bulk-loads `n` dense entries, then runs `spec`.
  static Result<RumProfile> LoadAndRun(AccessMethod* method, size_t n,
                                       const WorkloadSpec& spec);
};

}  // namespace rum

#endif  // RUMLAB_WORKLOAD_RUNNER_H_
