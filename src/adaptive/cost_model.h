#ifndef RUMLAB_ADAPTIVE_COST_MODEL_H_
#define RUMLAB_ADAPTIVE_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "core/options.h"
#include "core/rum_point.h"

namespace rum {

/// One policy's predicted amplification triple under the canonical LSM
/// workload (insert `entries` unique keys, then uniform point reads with an
/// empty memtable). All three are the ratios CounterSnapshot measures, so
/// cost_model_test can pin prediction against measurement directly.
struct LsmCostPrediction {
  /// Window of the canonical range scan the range-RO term models.
  static constexpr uint64_t kRangeScanRecords = 128;

  LsmPolicy policy = LsmPolicy::kLeveled;
  double levels = 0;      ///< Populated levels after the load.
  double runs = 0;        ///< Total resident runs after the load.
  double read_amp = 1;    ///< RO: bytes read per uniform point hit / entry.
  double update_amp = 1;  ///< UO: bytes written per insert / entry.
  double memory_amp = 1;  ///< MO: resident bytes / live base bytes.
  /// RO of a kRangeScanRecords-wide scan at a uniform start key, with every
  /// run overlapping the window (the shuffled-insert worst case): bytes
  /// read / bytes returned. Honors Options::lsm.cross_run_index -- with
  /// the index on, a scan pays one charged segment search plus exact
  /// cursor positioning per run; off, it pays a fence search plus
  /// fence-group start slack per run. Steady state: segment (re)build
  /// costs are amortized out.
  double range_read_amp = 1;

  /// The prediction as a point in the paper's RUM space.
  RumPoint AsRumPoint() const;

  /// "policy L=.. runs=.. RO=.. UO=.. MO=.." one-liner for tables.
  std::string ToString() const;
};

/// Predicts the RUM amplifications an LsmTree with `policy` reaches after
/// inserting `entries` distinct keys (VAT / "How to Grow an LSM-tree" style,
/// specialized to this simulator's accounting).
///
/// The model has two layers:
///  1. *Structure*: `entries / memtable_entries` flushes through the
///     policy's own CompactionPolicy::HandleFlush, over a CompactionContext
///     whose runs are record counts. That yields per-level run sizes and
///     the total records every run build wrote, exactly as the tree lays
///     them out. Closed forms for the totals are the classic ones -- with
///     L = log_T(N/M) levels, records are rewritten ~L(T+1)/2 times under
///     leveled, ~L under tiered, ~(L-1) + (T+1)/2 under lazy leveling, and
///     ~k + (L-k)(T+1)/2 under a hybrid with k tiered levels -- the replay
///     just also captures partially-filled levels exactly.
///  2. *Accounting*: structure maps to bytes with the simulator's charge
///     rates: records pack (block_size-8)/17 per block and builds charge
///     whole blocks; Bloom construction charges one auxiliary byte per
///     probe (ln2 * bits_per_key probes/key); a negative filter check
///     charges ~(1-f^k)/(1-f) bytes at fill f and passes with probability
///     f^k; fence search charges 8 bytes per binary-search probe; a probed
///     run reads (g+1)/2 blocks of its fence group (g pages per group);
///     memtable inserts charge 16 base bytes plus two 8-byte pointer
///     splices per expected tower level 1/(1-p).
///
/// Assumptions (stated so the validation tolerance is honest): keys are
/// distinct and uniformly distributed, reads run against a flushed (empty)
/// memtable, and bulk loads are not modeled.
LsmCostPrediction PredictLsmCost(LsmPolicy policy, uint64_t entries,
                                 const Options& options);

/// Ranks all four policies by the weighted sum of their predicted
/// amplifications (each axis normalized by the best policy's value so the
/// weights compare like with like) and returns the cheapest. Weights are
/// relative pain, e.g. the tuner's measured/target excess ratios.
/// `scan_weight` prices range-scan pain via the range_read_amp term --
/// scan-heavy workloads push toward policies with fewer runs (and benefit
/// most from the cross-run index, which the term also honors).
LsmPolicy PickLsmPolicy(uint64_t entries, const Options& options,
                        double read_weight, double write_weight,
                        double space_weight, double scan_weight = 0.0);

}  // namespace rum

#endif  // RUMLAB_ADAPTIVE_COST_MODEL_H_
