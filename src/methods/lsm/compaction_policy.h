#ifndef RUMLAB_METHODS_LSM_COMPACTION_POLICY_H_
#define RUMLAB_METHODS_LSM_COMPACTION_POLICY_H_

#include <memory>
#include <string_view>
#include <vector>

#include "core/options.h"
#include "core/status.h"
#include "methods/lsm/sorted_run.h"

namespace rum {

/// The services and state a compaction policy reorganizes. LsmTree
/// implements this; the policy objects themselves stay stateless so one
/// instance could drive any number of trees.
///
/// Levels are vectors of immutable runs, newest last; level 0 is the flush
/// target. Relocating a run between levels is a pointer move (free);
/// rewriting records costs charged device I/O via BuildRun.
class CompactionContext {
 public:
  virtual ~CompactionContext() = default;

  virtual const Options::Lsm& lsm_options() const = 0;

  /// The level array itself; policies splice runs in and out directly.
  virtual std::vector<std::vector<std::unique_ptr<SortedRun>>>& levels() = 0;

  /// Target record capacity of a level (memtable_entries * T^(level+1)).
  virtual uint64_t LevelTarget(size_t level) const = 0;

  /// True when no populated level exists strictly below `level` -- the
  /// tombstone-GC gate: a merge writing the lowest populated data may drop
  /// tombstones because nothing older can resurface.
  virtual bool IsLastPopulated(size_t level) const = 0;

  /// Builds a run from `records` and appends it at `level` (charged device
  /// writes + filter/fence space). Empty input is a no-op.
  virtual Status BuildRun(size_t level, std::vector<LogRecord> records) = 0;

  /// Bookkeeping hook: a merge of `input_runs` existing on-device runs
  /// covering `input_records` records just ran (flush-run builds are not
  /// compactions). Feeds the MetricsRegistry signals the tuner watches.
  virtual void NoteCompaction(size_t input_runs, uint64_t input_records) = 0;

  /// Maintenance hook: `run` is about to be destroyed (compaction consumed
  /// it). The tree uses this to invalidate the cross-run index segments
  /// covering the run's key range; the default is a no-op so contexts
  /// without an index need not care. Relocating a run between levels is
  /// NOT a retirement (the run object, and so its stored cursor offsets,
  /// survive the pointer move).
  virtual void NoteRunRetiring(SortedRun* run) { (void)run; }
};

/// One merge discipline for an LSM-tree -- the strategy object behind
/// Options::lsm.policy. HandleFlush absorbs a sealed memtable into the
/// level structure, cascading merges however the policy dictates;
/// MaxRunsAt states the structural invariant the policy restores before
/// returning (compaction_policy_test checks it after every flush).
class CompactionPolicy {
 public:
  virtual ~CompactionPolicy() = default;

  /// Policy name without the "lsm-" prefix ("leveled", "tiered", ...).
  virtual std::string_view name() const = 0;
  virtual LsmPolicy kind() const = 0;

  /// Hard bound on runs `level` may hold once HandleFlush returns.
  virtual size_t MaxRunsAt(size_t level, const CompactionContext& ctx)
      const = 0;

  /// Absorbs one sealed memtable (key-sorted records, the newest data in
  /// the tree) and restores the policy's run-count invariants.
  virtual Status HandleFlush(CompactionContext* ctx,
                             std::vector<LogRecord> records) = 0;

  /// The strategy for an LsmPolicy value.
  static std::unique_ptr<CompactionPolicy> Make(LsmPolicy kind);
};

/// Merges sorted record streams (newest first) into one; drops shadowed
/// versions, and tombstones too when `drop_tombstones`. Shared by the
/// policies and exposed through LsmTree's static wrappers for tests.
std::vector<LogRecord> MergeLogStreams(
    std::vector<std::vector<LogRecord>> streams, bool drop_tombstones);

/// Appends one run's records to `records` (charged: compaction reads every
/// input page). A failed page read is returned, never merged around.
Status GatherSortedRun(SortedRun* run, std::vector<LogRecord>* records);

/// Gathers `inputs` (newest first, charged reads) and merges them.
Status MergeSortedRuns(const std::vector<SortedRun*>& inputs,
                       bool drop_tombstones, std::vector<LogRecord>* merged);

}  // namespace rum

#endif  // RUMLAB_METHODS_LSM_COMPACTION_POLICY_H_
