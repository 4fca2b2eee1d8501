#ifndef RUMLAB_METHODS_LSM_COMPACTION_POLICY_H_
#define RUMLAB_METHODS_LSM_COMPACTION_POLICY_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "core/options.h"
#include "core/status.h"

namespace rum {

/// What a compaction policy sees of an LSM-tree -- run and record counts --
/// and the three moves it may make. LsmTree implements the moves over real
/// runs (charged reads and writes); PredictLsmCost (adaptive/cost_model)
/// implements them over record counts. Both run the one cascade rule the
/// policies below write down.
///
/// Levels hold runs, newest last; level 0 is the flush target. Each flush
/// hands the policy one sealed memtable, which its first move consumes.
class CompactionContext {
 public:
  virtual ~CompactionContext() = default;

  virtual const Options::Lsm& lsm_options() const = 0;
  /// Levels allocated so far; some may be empty.
  virtual size_t level_count() const = 0;
  /// Runs at `level`; 0 past level_count().
  virtual size_t runs_at(size_t level) const = 0;
  /// Records in the newest run at `level`, which must hold one.
  virtual uint64_t newest_run_records(size_t level) const = 0;

  /// Adds the sealed memtable as a new level-0 run.
  virtual Status AddFlushRun() = 0;
  /// Merges every run of `level` into one run appended at `dest`, together
  /// with the sealed memtable (the newest input) when `with_memtable` and
  /// with level + 1's newest run when `absorb_next`. Tombstones are dropped
  /// when no run older than the output survives the merge.
  virtual Status MergeLevel(size_t level, size_t dest, bool with_memtable,
                            bool absorb_next) = 0;
  /// Moves `level`'s single run one level down: a relocation, no I/O.
  virtual void MoveRunDown(size_t level) = 0;

  /// Target record capacity of a level (memtable_entries * T^(level+1)).
  uint64_t LevelTarget(size_t level) const;
  /// True when no populated level exists strictly below `level` -- the
  /// tombstone-GC gate: a merge writing the lowest populated data may drop
  /// tombstones because nothing older can resurface.
  bool IsLastPopulated(size_t level) const;
  /// The deepest populated level, or level_count() when none is.
  size_t LastPopulated() const;
};

/// One merge discipline for an LSM-tree -- the strategy object behind
/// Options::lsm.policy. HandleFlush absorbs a sealed memtable into the
/// level structure, cascading merges however the policy dictates;
/// MaxRunsAt states the structural invariant the policy restores before
/// returning (the model harness checks it after every flush).
class CompactionPolicy {
 public:
  virtual ~CompactionPolicy() = default;

  /// Policy name without the "lsm-" prefix ("leveled", "tiered", ...).
  virtual std::string_view name() const = 0;
  virtual LsmPolicy kind() const = 0;

  /// Hard bound on runs `level` may hold once HandleFlush returns.
  virtual size_t MaxRunsAt(size_t level, const CompactionContext& ctx)
      const = 0;

  /// Absorbs the context's sealed memtable (the newest data in the tree)
  /// and restores the policy's run-count invariants.
  virtual Status HandleFlush(CompactionContext* ctx) const = 0;

  /// The strategy for an LsmPolicy value.
  static std::unique_ptr<CompactionPolicy> Make(LsmPolicy kind);
};

}  // namespace rum

#endif  // RUMLAB_METHODS_LSM_COMPACTION_POLICY_H_
