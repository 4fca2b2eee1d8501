#ifndef RUMLAB_METHODS_HOTCOLD_HOT_COLD_H_
#define RUMLAB_METHODS_HOTCOLD_HOT_COLD_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/sketch/count_min.h"

namespace rum {

class Device;

/// The paper's "dynamic RUM balance" (Section 5) applied at key
/// granularity: a store that keeps its *hot* keys in a read-optimized
/// in-memory table and its cold mass in a write/space-optimized LSM,
/// deciding hotness online with a Count-Min sketch.
///
/// Skewed workloads (the common case the paper's Zipf-shaped motivation
/// assumes) concentrate accesses on few keys; promoting exactly those keys
/// buys most of a hash index's read performance for a small fraction of
/// its memory overhead. The sketch is the paper's space-optimized
/// auxiliary structure doing the steering: frequencies are approximate
/// (never under-counted) and cost O(1) space per key tracked.
///
/// Mechanics: reads and writes of a key raise its sketch estimate; once it
/// crosses `hot_cold.promote_estimate` the entry moves into the hot table
/// (write-back, dirty-tracked). When the table exceeds
/// `hot_cold.hot_capacity`, a sampled-coldest victim is written back to
/// the LSM. Scans merge the hot overlay with the cold structure.
///
/// The cold LSM stores its pages on `device` when one is given (see
/// LsmTree); the hot table and sketch stay in memory.
class HotColdStore : public AccessMethod {
 public:
  explicit HotColdStore(const Options& options, Device* device = nullptr);
  ~HotColdStore() override;

  std::string_view name() const override { return "hot-cold"; }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override { return live_keys_.size(); }

  CounterSnapshot stats() const override;
  void ResetStats() override;

  size_t hot_count() const { return hot_.size(); }
  uint64_t promotions() const { return promotions_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct HotEntry {
    Value value;
    bool dirty;
  };

  /// Approximate in-memory footprint of one hot entry (key, value, flag,
  /// hash-map overhead).
  static constexpr uint64_t kHotEntrySize = 32;
  /// Count-Min sketch dimensions: counters per row, and rows.
  static constexpr size_t kSketchWidth = 1024;
  static constexpr size_t kSketchDepth = 4;

  /// Records one access and promotes the key if it is hot enough.
  /// `known_value`/`have_value` let callers promote without a re-read.
  Status Track(Key key, bool have_value, Value known_value);
  /// Moves the sampled-coldest hot entry back to the LSM.
  Status EvictOne();
  void RepublishHotSpace();

  Options options_;
  std::unique_ptr<AccessMethod> cold_;
  RumCounters own_;  // Hot-table + sketch traffic.
  std::unique_ptr<CountMinSketch> sketch_;
  std::unordered_map<Key, HotEntry> hot_;
  uint64_t promotions_ = 0;
  uint64_t evictions_ = 0;
  uint64_t evict_cursor_ = 0;  // Deterministic sampling state.
  // Simulator-side bookkeeping (unaccounted): exact live-key set.
  std::unordered_set<Key> live_keys_;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_HOTCOLD_HOT_COLD_H_
