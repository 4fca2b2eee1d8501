#ifndef RUMLAB_WORKLOAD_SPEC_H_
#define RUMLAB_WORKLOAD_SPEC_H_

#include <cstdint>
#include <string>

#include "core/status.h"
#include "core/types.h"
#include "workload/distribution.h"

namespace rum {

/// How the runner responds to an operation failing with a real error (the
/// mix always tolerates the benign kNotFound/kOutOfRange statuses).
enum class ErrorMode {
  /// Stop the phase and return the error (the classic behavior).
  kAbort,
  /// Tally the error by code in the worker's ErrorTally and continue --
  /// the "keep serving through faults" stance of a chaos run.
  kSkipAndCount,
  /// Like kSkipAndCount, but after the first error the worker stops issuing
  /// mutations (each one tallied as degraded-skipped) and serves reads
  /// only: degraded service instead of risking compound damage on a
  /// structure that may be mid-reorganization.
  kDegrade,
};

/// How requests arrive in time. Closed loop is the classic runner: the next
/// operation issues the instant the previous one returns, so offered load
/// always equals capacity. The open-loop processes issue requests on their
/// own (virtual) clock regardless of completions -- the only shape under
/// which offered load can *exceed* capacity, which is what the service
/// layer's admission control exists to survive.
enum class ArrivalProcess {
  kClosedLoop,
  /// Poisson arrivals: i.i.d. exponential inter-arrival gaps at
  /// `offered_ops_per_sec` (virtual time, seeded, deterministic).
  kPoisson,
  /// On/off modulated Poisson: within each `burst_period_us` window the
  /// first `burst_on_fraction` runs at `burst_factor` times the base rate
  /// and the remainder runs slower, preserving the configured average.
  kBursty,
};

/// Declarative description of a workload phase: an operation mix over a key
/// space, plus scan selectivity. Fractions must sum to <= 1; the remainder
/// is point queries.
struct WorkloadSpec {
  /// Operations to execute.
  uint64_t operations = 10000;
  /// Key space [0, key_range).
  Key key_range = 1u << 16;
  /// Key distribution for every operation's key.
  KeyDistribution distribution = KeyDistribution::kUniform;
  /// Zipfian skew (when distribution == kZipfian).
  double zipf_theta = 0.99;

  /// Fraction of operations that are inserts.
  double insert_fraction = 0;
  /// Fraction that are updates (value overwrite).
  double update_fraction = 0;
  /// Fraction that are deletes.
  double delete_fraction = 0;
  /// Fraction that are range scans.
  double scan_fraction = 0;
  // The remaining fraction is point queries (Get).

  /// Width of each range scan as a fraction of the key range.
  double scan_selectivity = 0.001;

  /// RNG seed (operation choice and keys derive from it).
  uint64_t seed = 42;

  /// Worker threads driving the phase. 1 = the classic serial runner.
  /// Values > 1 require a partition-aware method (ShardedMethod): each
  /// worker gets a deterministic seed split plus a disjoint set of
  /// partitions, so concurrent RUM accounting replays exactly run-to-run
  /// (see WorkloadRunner). Capped at the method's partition count.
  uint32_t concurrency = 1;

  /// Response to operation errors (fault injection); see ErrorMode.
  ErrorMode error_mode = ErrorMode::kAbort;

  /// Arrival process driving the phase (see ArrivalProcess). Open-loop
  /// shapes are consumed by RunOpenLoop; the classic runner only accepts
  /// kClosedLoop (ValidateSpec enforces both).
  ArrivalProcess arrival = ArrivalProcess::kClosedLoop;
  /// Open-loop offered load, in requests per virtual second. Must be > 0
  /// for kPoisson/kBursty.
  double offered_ops_per_sec = 0;
  /// kBursty modulation: peak multiplier, on-fraction, and period.
  double burst_factor = 8.0;
  double burst_on_fraction = 0.25;
  uint64_t burst_period_us = 100000;

  /// Canonical mixes used across the benches.
  static WorkloadSpec ReadOnly(uint64_t ops, Key key_range);
  static WorkloadSpec WriteOnly(uint64_t ops, Key key_range);
  static WorkloadSpec ReadMostly(uint64_t ops, Key key_range);
  static WorkloadSpec Mixed(uint64_t ops, Key key_range);
  static WorkloadSpec ScanHeavy(uint64_t ops, Key key_range);

  std::string ToString() const;
};

/// The spec check WorkloadRunner and RunOpenLoop both run first: a nonempty
/// key range, mix fractions that are each >= 0 and sum to at most 1, and an
/// arrival process the caller accepts. WorkloadRunner (`open_loop` false)
/// takes only kClosedLoop; RunOpenLoop takes kPoisson or kBursty with
/// offered_ops_per_sec > 0 and, for kBursty, a valid modulation. Returns
/// kInvalidArgument naming the first violation.
Status ValidateSpec(const WorkloadSpec& spec, bool open_loop);

}  // namespace rum

#endif  // RUMLAB_WORKLOAD_SPEC_H_
