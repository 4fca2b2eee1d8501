#ifndef RUMLAB_METHODS_DIFF_STEPPED_MERGE_H_
#define RUMLAB_METHODS_DIFF_STEPPED_MERGE_H_

#include <memory>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/key_set.h"
#include "methods/lsm/sorted_run.h"
#include "methods/method_device.h"

namespace rum {

/// A stepped-merge tree (Jagadish et al., VLDB 1997) -- the differential,
/// write-optimized family of the paper's Figure 1 left corner that also
/// covers the Partitioned B-tree and MaSM: updates accumulate in an
/// unsorted in-memory buffer, seal into sorted runs, and each level holds
/// up to `stepped.runs_per_level` runs before they merge one level down.
///
/// Unlike the LSM variant it carries no Bloom filters: a point query probes
/// *every* run (fence search + one page), which is precisely the read
/// price the paper assigns to consolidating updates lazily. Removing the
/// filters isolates that effect (compare with LsmTree in the benches).
class SteppedMergeTree : public AccessMethod {
 public:
  explicit SteppedMergeTree(const Options& options, Device* device = nullptr);

  ~SteppedMergeTree() override;

  std::string_view name() const override { return "stepped-merge"; }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override { return live_keys_.size(); }

  CounterSnapshot stats() const override;

  size_t level_count() const { return levels_.size(); }
  size_t runs_at(size_t level) const { return levels_[level].size(); }
  size_t total_runs() const;

 private:
  Status Put(Key key, Value value, bool tombstone);
  /// Seals the buffer into a level-0 run, cascading full levels.
  Status SealBuffer();
  bool IsLastPopulated(size_t level) const;

  Options options_;
  MethodDevice device_;

  std::vector<LogRecord> buffer_;  // Unsorted, newest last.
  std::vector<std::vector<std::unique_ptr<SortedRun>>> levels_;
  KeySet live_keys_;  // Simulator-side bookkeeping.
};

}  // namespace rum

#endif  // RUMLAB_METHODS_DIFF_STEPPED_MERGE_H_
