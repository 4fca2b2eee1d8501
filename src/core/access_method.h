#ifndef RUMLAB_CORE_ACCESS_METHOD_H_
#define RUMLAB_CORE_ACCESS_METHOD_H_

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/counters.h"
#include "core/rum_point.h"
#include "core/status.h"
#include "core/types.h"

namespace rum {

/// Optional mixin for access methods that hash-partition the key space
/// across independent internal shards (ShardedMethod). WorkloadRunner uses
/// it to give each worker thread a disjoint set of partitions, which is what
/// makes concurrent RUM accounting deterministic: every partition sees a
/// reproducible operation order, so physical traffic replays exactly.
class KeyPartitioned {
 public:
  virtual ~KeyPartitioned() = default;

  /// Number of independent partitions (>= 1).
  virtual size_t partitions() const = 0;
  /// The partition a key routes to, in [0, partitions()).
  virtual size_t PartitionOf(Key key) const = 0;
};

/// The uniform interface every rumlab access method implements.
///
/// Semantics (chosen so in-place and differential structures behave
/// identically to callers, enabling differential testing):
///  - Insert(k, v) upserts: a second insert of the same key replaces the
///    value.
///  - Update(k, v) upserts too, but is accounted as an update operation.
///  - Delete(k) is idempotent; deleting an absent key succeeds.
///  - Get(k) returns kNotFound for absent or deleted keys.
///  - Scan(lo, hi) returns live entries with lo <= key <= hi in ascending
///    key order.
///  - BulkLoad(entries) requires strictly ascending keys and an empty
///    structure; it is the "bulk creation" of the paper's Table 1.
///
/// Accounting: every implementation owns a RumCounters and charges all
/// physical traffic (device blocks or in-memory bytes touched) and all
/// logical denominators to it. `stats()` exposes the cumulative snapshot;
/// `rum_point()` summarizes it as a position in the RUM space.
class AccessMethod {
 public:
  virtual ~AccessMethod() = default;

  AccessMethod(const AccessMethod&) = delete;
  AccessMethod& operator=(const AccessMethod&) = delete;

  /// Short stable identifier ("btree", "lsm-leveled", ...).
  virtual std::string_view name() const = 0;

  /// Upserts one entry.
  virtual Status Insert(Key key, Value value) = 0;

  /// Upserts one entry, accounted as an update. The default forwards to
  /// Insert and fixes up the operation counters.
  virtual Status Update(Key key, Value value);

  /// Removes a key (idempotent).
  virtual Status Delete(Key key) = 0;

  /// Point query.
  virtual Result<Value> Get(Key key) = 0;

  /// Batched point query: `out` is resized to keys.size() and out->at(i)
  /// carries the value for keys[i] (nullopt when absent or deleted). Keys
  /// may repeat and arrive in any order; results always line up with the
  /// input order. A non-benign error (anything but per-key NotFound) aborts
  /// the batch and returns that status.
  ///
  /// Accounting contract (pinned by MultiGetParityTest in
  /// differential_test): the result vector is byte-identical to looping
  /// Get; with one key the counter
  /// deltas are byte-identical too; with larger batches every counter is
  /// <= the per-key Get loop's, and the saved page pins are visible in the
  /// `batched_page_hits` stat. The default implementation is the per-key
  /// Get loop itself; methods with a cheaper shared-traversal path
  /// override.
  virtual Status MultiGet(std::span<const Key> keys,
                          std::vector<std::optional<Value>>* out);

  /// Inclusive range query; appends results to `out` in ascending key order.
  virtual Status Scan(Key lo, Key hi, std::vector<Entry>* out) = 0;

  /// Bulk-creates the structure from strictly-ascending entries. The default
  /// implementation loops Insert; structures with a cheaper path override.
  virtual Status BulkLoad(std::span<const Entry> entries);

  /// Forces buffered state (memtables, delta stores) down to its final
  /// place. Default: no-op.
  virtual Status Flush() { return Status::OK(); }

  /// Number of live entries.
  virtual size_t size() const = 0;

  /// Cumulative RUM accounting since construction or the last ResetStats.
  /// Differential structures override this to recompute the base/aux space
  /// split (live entries are base data; stale versions and tombstones are
  /// auxiliary overhead).
  virtual CounterSnapshot stats() const { return counters_.snapshot(); }

  /// Clears traffic counters; resident-space levels persist. Wrappers that
  /// delegate to an inner method override this to reach it.
  virtual void ResetStats() { counters_.ResetTraffic(); }

  /// Current position in the RUM design space.
  RumPoint rum_point() const { return RumPoint::FromSnapshot(stats()); }

 protected:
  AccessMethod() = default;

  RumCounters& counters() { return counters_; }
  const RumCounters& counters() const { return counters_; }

  /// Validates a BulkLoad input: strictly ascending keys, empty structure.
  Status CheckBulkLoadPreconditions(std::span<const Entry> entries) const;

 private:
  RumCounters counters_;
};

}  // namespace rum

#endif  // RUMLAB_CORE_ACCESS_METHOD_H_
