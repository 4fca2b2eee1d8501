#ifndef RUMLAB_METHODS_LSM_LSM_TREE_H_
#define RUMLAB_METHODS_LSM_LSM_TREE_H_

#include <atomic>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/access_method.h"
#include "core/memory_budget.h"
#include "core/metrics.h"
#include "core/options.h"
#include "methods/lsm/compaction_policy.h"
#include "methods/lsm/cross_run_index.h"
#include "methods/lsm/sorted_run.h"
#include "methods/skiplist/skiplist.h"
#include "methods/method_device.h"

namespace rum {

/// The LSM tree's in-memory footprint decomposed into its auxiliary-MO
/// ledger terms. The conservation identity (pinned by lsm_test and the
/// chaos tier): with an owned device, stats().total_space() ==
/// total() exactly -- every resident byte is one of these five terms, and
/// stays so after Crash() recovery, mid-compaction invalidation, and
/// fault-aborted run builds.
struct LsmMemoryFootprint {
  /// Memtable bytes (skiplist entries + towers), from the mem counters.
  uint64_t memtable_bytes = 0;
  /// Device pages held by live runs (page_count * block_size summed).
  uint64_t run_page_bytes = 0;
  /// In-memory fence-pointer bytes across live runs.
  uint64_t fence_bytes = 0;
  /// Bloom-filter bytes across live runs.
  uint64_t filter_bytes = 0;
  /// CrossRunIndex segment/offset bytes (0 when the index is off).
  uint64_t index_bytes = 0;

  uint64_t total() const {
    return memtable_bytes + run_page_bytes + fence_bytes + filter_bytes +
           index_bytes;
  }
};

/// A log-structured merge tree -- the write-optimized corner of the paper's
/// Figure 1 and the "Levelled LSM" row of Table 1.
///
/// Writes buffer in a skiplist memtable; flushes produce immutable sorted
/// runs that cascade through exponentially growing levels (size ratio T =
/// `lsm.size_ratio`). The merge discipline is a pluggable CompactionPolicy
/// strategy (Section 5's "dynamic merge depth" knob, selected by
/// `lsm.policy`): leveled, tiered, lazy-leveled, or per-level hybrid --
/// see LsmPolicy in core/options.h for the tradeoffs. The policy decides
/// over run and record counts; the tree implements CompactionContext's
/// three moves over its real runs, so every merge gathers its inputs
/// newest first (charged reads), retires them, then builds its output
/// (charged writes). cost_model.h replays the same policy over record
/// counts to predict its RO/UO/MO, and cost_model_test pins prediction
/// against the measured counters.
///
/// Each run carries fence pointers and an optional Bloom filter
/// (`lsm.bloom_bits_per_key`) -- the paper's "logs enhanced by
/// probabilistic data structures" -- trading auxiliary space for read cost.
///
/// Deletes write tombstones; tombstones and shadowed versions are dropped
/// when a merge writes the lowest populated level. Stale versions are
/// accounted as auxiliary space in stats() (live entries are the base
/// data), so the LSM's MO visibly grows with update skew and shrinks at
/// every deep merge.
class LsmTree : public AccessMethod, public CompactionContext {
 public:
  explicit LsmTree(const Options& options, Device* device = nullptr);

  ~LsmTree() override;

  std::string_view name() const override {
    if (options_.lsm.compress_runs) return "lsm-compressed";
    switch (options_.lsm.policy) {
      case LsmPolicy::kLeveled:
        return "lsm-leveled";
      case LsmPolicy::kTiered:
        return "lsm-tiered";
      case LsmPolicy::kLazyLeveled:
        return "lsm-lazy";
      case LsmPolicy::kHybrid:
        return "lsm-hybrid";
    }
    return "lsm";
  }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  /// Batched Get: memtable per key (the per-key logical charges are
  /// identical to the Get loop), then the unresolved unique keys walk the
  /// runs newest-first as one ascending sub-batch per run -- whole-batch
  /// [min,max] skip, up-front bloom probe pass, and one page pin per page
  /// shared by all keys that land on it (SortedRun::MultiGet).
  Status MultiGet(std::span<const Key> keys,
                  std::vector<std::optional<Value>>* out) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override { return live_keys_.size(); }

  CounterSnapshot stats() const override;
  void ResetStats() override;

  /// Total runs across all levels.
  size_t total_runs() const;

  /// The active merge strategy (also checkable via MaxRunsAt in tests).
  const CompactionPolicy& policy() const { return *policy_; }
  /// Memtable flushes since construction.
  uint64_t flushes() const { return flushes_; }
  /// Merges of existing on-device runs since construction (flush-run
  /// builds excluded). Flushes and compactions are also mirrored into the
  /// process-wide MetricsRegistry counters "lsm.flushes" /
  /// "lsm.compactions" / "lsm.compaction_records".
  uint64_t compactions() const { return compactions_; }
  /// Records read out of existing runs by those merges.
  uint64_t compaction_input_records() const {
    return compaction_input_records_;
  }

  // CompactionContext queries (the moves are private: only the policy
  // makes them, during a flush).
  const Options::Lsm& lsm_options() const override { return options_.lsm; }
  size_t level_count() const override { return levels_.size(); }
  size_t runs_at(size_t level) const override {
    return level < levels_.size() ? levels_[level].size() : 0;
  }
  uint64_t newest_run_records(size_t level) const override {
    return levels_[level].back()->record_count();
  }

  /// The runs, level by level, newest last.
  const std::vector<std::vector<std::unique_ptr<SortedRun>>>& levels() const {
    return levels_;
  }
  /// Builds a run from `records` and appends it at `level` (charged device
  /// writes + filter/fence space). Empty input is a no-op.
  Status BuildRun(size_t level, std::vector<LogRecord> records);

  /// The cross-run sorted view, or nullptr when lsm.cross_run_index is
  /// off (tests inspect segment counts and charged space through this).
  const CrossRunIndex* cross_run_index() const { return index_.get(); }

  // ------------------------------------------------- Live memory resizing
  // The global memory arbiter's control surface (core/memory_budget.h).
  // Both knobs are relaxed atomics: a replan may fire from another shard's
  // thread while this shard operates.

  /// Retargets the memtable flush threshold, effective at the next flush
  /// boundary: Put checks the live limit, so a shrink flushes on the next
  /// write and a growth simply lets the current memtable keep filling.
  void SetMemtableEntryLimit(size_t entries) {
    memtable_limit_.store(entries == 0 ? 1 : entries,
                          std::memory_order_relaxed);
  }
  size_t memtable_entry_limit() const {
    return memtable_limit_.load(std::memory_order_relaxed);
  }

  /// Retargets filter memory, effective on rebuild: runs built after this
  /// call size their bloom filters at the new bits-per-key; existing runs
  /// keep their filters until compaction retires them. 0 disables filters
  /// on future builds.
  void SetBloomBitsPerKey(size_t bits) {
    bloom_bits_.store(bits, std::memory_order_relaxed);
  }
  size_t bloom_bits_per_key() const {
    return bloom_bits_.load(std::memory_order_relaxed);
  }

  /// Bloom-probe outcome tally across all (live and retired) runs.
  const FilterStats& filter_stats() const { return filter_stats_; }

  /// The auxiliary-MO ledger decomposition (see LsmMemoryFootprint).
  LsmMemoryFootprint MemoryFootprint() const;

 private:
  /// Approximate resident bytes per memtable entry (17-byte record plus
  /// average tower overhead), the unit converting an arbitrated byte
  /// budget into an entry limit. A modeling constant, not an accounting
  /// one: the ledger uses the memtable's exact charged bytes.
  static constexpr uint64_t kMemtableEntryFootprint = 32;

  /// The memtable as a resizable pool: assigned bytes map to the entry
  /// limit; the benefit signal is flush+merge bytes (VAT's buffer-size vs
  /// merge-cost trade -- more buffer, fewer and larger cascades).
  class MemtablePool : public MemoryPool {
   public:
    explicit MemtablePool(LsmTree* tree) : tree_(tree) {}
    std::string_view pool_name() const override { return "lsm_memtable"; }
    MemoryPoolKind pool_kind() const override {
      return MemoryPoolKind::kMemtable;
    }
    uint64_t pool_bytes() const override {
      return static_cast<uint64_t>(tree_->memtable_entry_limit()) *
             kMemtableEntryFootprint;
    }
    void SetPoolBytes(uint64_t bytes) override {
      tree_->SetMemtableEntryLimit(
          static_cast<size_t>(bytes / kMemtableEntryFootprint));
    }
    uint64_t BenefitSignal() const override {
      return tree_->merge_bytes_.load(std::memory_order_relaxed);
    }

   private:
    LsmTree* tree_;
  };

  /// Filter memory as a resizable pool: the assigned budget converts to
  /// bits-per-key against the (approximate, atomically published) live key
  /// count, applied to future run builds; the benefit signal is
  /// false-positive page bytes.
  class FilterPool : public MemoryPool {
   public:
    explicit FilterPool(LsmTree* tree) : tree_(tree) {}
    std::string_view pool_name() const override { return "lsm_filters"; }
    MemoryPoolKind pool_kind() const override {
      return MemoryPoolKind::kFilter;
    }
    uint64_t pool_bytes() const override {
      return tree_->filter_budget_bytes_.load(std::memory_order_relaxed);
    }
    void SetPoolBytes(uint64_t bytes) override;
    uint64_t BenefitSignal() const override {
      return tree_->filter_stats_.false_positives.load(
                 std::memory_order_relaxed) *
             tree_->options_.block_size;
    }

   private:
    LsmTree* tree_;
  };

  /// Ticks the arbiter's epoch clock (no-op when arbitration is off).
  /// Called at the end of each logical op, never while the tree holds a
  /// lock (it holds none) -- a replan fired here calls straight back into
  /// the Set* knobs above.
  void TickRegistrar() {
    if (registrar_ != nullptr) registrar_->NotePoolOps(1);
  }
  /// Registers the pools with Options::memory.arbiter when enabled.
  void MaybeRegisterPools();

  // CompactionContext moves over the real runs.
  Status AddFlushRun() override;
  Status MergeLevel(size_t level, size_t dest, bool with_memtable,
                    bool absorb_next) override;
  void MoveRunDown(size_t level) override;
  /// A merge input leaves the tree: its cross-run-index segments are
  /// invalidated, then its pages freed.
  Status RetireRun(SortedRun* run);

  /// One write-buffered record enters the tree.
  Status Put(Key key, Value value, bool tombstone);
  /// Seals the memtable and hands it to the policy.
  Status FlushMemtable();
  /// Wires the MetricsRegistry counters and callback gauges.
  void InitMetrics();
  /// All runs in recency order: levels top-down, newest-first within a
  /// level -- exactly Get's probe order, which is what makes "lowest
  /// priority index wins" the correct newest-wins rule for scans.
  std::vector<SortedRun*> RunsNewestFirst();
  /// Disabled-index cursor positioning: per-run fence search with the
  /// same O(1) bounds skip; fills `out` for the shared MergeCursorSources
  /// template, which is what keeps it differentially identical to
  /// CrossRunIndex::PositionCursors.
  Status PositionRunsFallback(const std::vector<SortedRun*>& runs, Key lo,
                              Key hi,
                              std::vector<SortedRun::Cursor>* out);

  Options options_;
  std::unique_ptr<CompactionPolicy> policy_;
  MethodDevice device_;

  RumCounters mem_counters_;  // The memtable's separate accounting.
  std::unique_ptr<SkipListMap> memtable_;
  // The sealed memtable while the policy runs; its first move consumes it.
  std::vector<LogRecord> sealed_;
  // The REMIX-style cross-run sorted view (nullptr when disabled). Charges
  // its segment space to counters() as auxiliary MO; maintained by
  // BuildRun and RetireRun, consulted only by Scan.
  std::unique_ptr<CrossRunIndex> index_;
  // levels_[i] = runs at level i, newest last. Level 0 is the flush target.
  std::vector<std::vector<std::unique_ptr<SortedRun>>> levels_;

  // Simulator-side bookkeeping (unaccounted): exact live-key set for size()
  // and the stats() base/aux space split.
  std::unordered_set<Key> live_keys_;

  // ------------------------------------------------ Memory arbitration
  // Live knobs and signals (all relaxed atomics: replans fire from
  // whatever thread trips an arbiter epoch, possibly another shard's).
  std::atomic<size_t> memtable_limit_{1};  // Live flush threshold (entries).
  std::atomic<size_t> bloom_bits_{0};      // Live bits/key, future builds.
  /// Live-key count published for FilterPool's budget->bits conversion
  /// (live_keys_.size() itself is not safe to read cross-thread).
  std::atomic<uint64_t> approx_keys_{0};
  /// Flush + compaction record bytes: the memtable pool's benefit signal.
  std::atomic<uint64_t> merge_bytes_{0};
  /// Last filter budget the arbiter assigned (what pool_bytes() reports).
  std::atomic<uint64_t> filter_budget_bytes_{0};
  FilterStats filter_stats_;
  MemtablePool memtable_pool_{this};
  FilterPool filter_pool_{this};
  MemoryRegistrar* registrar_ = nullptr;  // Non-null once pools registered.
  bool filter_pool_registered_ = false;

  // Flush/compaction tallies, mirrored into registry-owned counters (always
  // available) and exported as gauges when the registry is enabled.
  uint64_t flushes_ = 0;
  uint64_t compactions_ = 0;
  uint64_t compaction_input_records_ = 0;
  MetricsRegistry::Counter* flush_counter_ = nullptr;
  MetricsRegistry::Counter* compaction_counter_ = nullptr;
  MetricsRegistry::Counter* compaction_records_counter_ = nullptr;
  MetricsGroup metrics_;  // Last member: unregisters before state dies.
};

}  // namespace rum

#endif  // RUMLAB_METHODS_LSM_LSM_TREE_H_
