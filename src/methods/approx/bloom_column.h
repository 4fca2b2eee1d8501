#ifndef RUMLAB_METHODS_APPROX_BLOOM_COLUMN_H_
#define RUMLAB_METHODS_APPROX_BLOOM_COLUMN_H_

#include <atomic>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/access_method.h"
#include "core/memory_budget.h"
#include "core/options.h"
#include "methods/sketch/bloom_filter.h"
#include "methods/method_device.h"
#include "storage/heap_file.h"

namespace rum {

/// An approximate index in the spirit of BF-Tree (paper reference [5]) and
/// Section 5's "approximate (tree) indexing ... absorbing updates in
/// updatable probabilistic data structures": an append-ordered column
/// chopped into zones of `approx.zone_entries` rows, each zone carrying a
/// Bloom filter of its keys instead of an exact index.
///
/// A point query probes every zone's filter (cheap auxiliary reads) and
/// scans only the zones that *may* contain the key -- typically one true
/// zone plus a handful of false positives, for a tiny fraction of a full
/// index's space. Range scans get no help (filters are orderless) and read
/// the whole column: the structure trades M down, R(point) near an index,
/// and lives with poor range reads -- a distinct point in the RUM space.
///
/// Deletes tombstone rows in a side set; filters keep the stale keys (their
/// false-positive rate degrades honestly) until a rebuild, triggered when
/// `approx.rebuild_deleted_fraction` of rows are dead.
///
/// As a MemoryPool (kind kFilter) the column's zone-filter memory is
/// arbitrable: an assigned byte budget converts to bits-per-key against
/// the published row count, effective for zones created after the call
/// (existing zones re-filter at the next Rebuild).
class BloomZoneColumn : public AccessMethod, public MemoryPool {
 public:
  explicit BloomZoneColumn(const Options& options, Device* device = nullptr);

  ~BloomZoneColumn() override;

  std::string_view name() const override { return "bloom-zones"; }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override { return live_; }

  size_t zone_count() const { return zones_.size(); }
  uint64_t deleted_count() const { return deleted_rows_.size(); }

  /// The live bits-per-key knob for zones built from now on.
  void SetBitsPerKey(size_t bits) {
    bits_per_key_.store(bits, std::memory_order_relaxed);
  }
  size_t bits_per_key() const {
    return bits_per_key_.load(std::memory_order_relaxed);
  }
  /// Filter-probe outcome tally (a FindRow candidate zone that scans to
  /// nothing is one false positive; a skipped zone is one negative).
  const FilterStats& filter_stats() const { return filter_stats_; }

  // MemoryPool (see class comment):
  std::string_view pool_name() const override { return "bloom_zones"; }
  MemoryPoolKind pool_kind() const override {
    return MemoryPoolKind::kFilter;
  }
  uint64_t pool_bytes() const override {
    return filter_budget_bytes_.load(std::memory_order_relaxed);
  }
  void SetPoolBytes(uint64_t bytes) override;
  uint64_t BenefitSignal() const override {
    return filter_stats_.false_positives.load(std::memory_order_relaxed) *
           options_.block_size;
  }

 private:
  struct Zone {
    std::unique_ptr<BloomFilter> filter;
    RowId first_row;
    uint64_t rows;
  };

  /// Probes the zone filters for `key`, then scans candidate zones.
  /// Returns the live row or kInvalidRowId.
  Result<RowId> FindRow(Key key);
  /// Adds `key` for `row` into the tail zone (opening one as needed).
  void IndexAppendedRow(Key key, RowId row);
  /// Rewrites the heap without dead rows and rebuilds all zone filters.
  Status Rebuild();
  /// Registers with Options::memory.arbiter when enabled.
  void MaybeRegisterPool();
  /// Ticks the arbiter's epoch clock (no-op when arbitration is off).
  void TickRegistrar() {
    if (registrar_ != nullptr) registrar_->NotePoolOps(1);
  }

  Options options_;
  MethodDevice device_;
  std::unique_ptr<HeapFile> heap_;
  std::vector<Zone> zones_;
  std::unordered_set<RowId> deleted_rows_;
  size_t live_ = 0;

  // Memory-arbitration state (relaxed atomics: replans may fire from
  // another component's thread; see core/memory_budget.h).
  std::atomic<size_t> bits_per_key_{0};
  std::atomic<uint64_t> approx_rows_{0};  // Published heap row count.
  std::atomic<uint64_t> filter_budget_bytes_{0};
  FilterStats filter_stats_;
  MemoryRegistrar* registrar_ = nullptr;  // Non-null once registered.
};

}  // namespace rum

#endif  // RUMLAB_METHODS_APPROX_BLOOM_COLUMN_H_
