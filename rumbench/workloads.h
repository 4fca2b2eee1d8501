#ifndef RUMBENCH_WORKLOADS_H_
#define RUMBENCH_WORKLOADS_H_

// The four rumbench workloads: their seeded op streams, the oracle that
// fixes every expected result before timing starts, and the device ladder
// each one runs on.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "adaptive/memory_arbiter.h"
#include "core/access_method.h"
#include "core/counters.h"
#include "methods/btree/btree.h"
#include "methods/lsm/lsm_tree.h"
#include "service/scheduler.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "storage/faulty_device.h"
#include "storage/retry_device.h"
#include "timed.h"

namespace rumbench {

enum class Workload { kReadHot, kWriteMiss, kScanRuns, kServiceOpen };

/// Parses a workload name ("read-hot", ...); nullopt when unknown.
std::optional<Workload> ParseWorkload(std::string_view name);
std::string_view WorkloadName(Workload w);

enum class OpKind : uint8_t { kGet, kMultiGet, kScan, kInsert, kUpdate, kDelete };

struct Op {
  /// The key; for kMultiGet the offset of the batch in OpStream::batch_keys,
  /// for kScan the inclusive lower bound.
  rum::Key key = 0;
  /// The payload of a write; for kScan the inclusive upper bound.
  rum::Value value = 0;
  OpKind kind = OpKind::kGet;
};

/// Keys per MultiGet.
inline constexpr size_t kBatch = 64;

/// Everything a run needs that is generated from the seed before timing.
struct OpStream {
  std::vector<rum::Entry> load;  ///< In load order (bulk loads: ascending).
  bool bulk_load = true;         ///< BulkLoad `load`, else Insert it in order.
  std::vector<rum::Key> warmup;  ///< Gets issued after the load (set-up).
  std::vector<Op> ops;
  std::vector<rum::Key> batch_keys;
  /// Open loop only: virtual arrival time of each op, in microseconds.
  std::vector<uint64_t> arrival_us;
  /// Closed loop only: the oracle's result digest of each op (0 for writes).
  std::vector<uint64_t> expected;
  /// Every key the workload touches is below this.
  rum::Key domain = 0;
};

/// Builds the stream for `w` from `seed`; `scale` multiplies key and op
/// counts (and cache sizes with them). Closed-loop streams come back with
/// `expected` filled by replaying them on the oracle.
OpStream MakeStream(Workload w, uint64_t seed, double scale);

// Result digests: what the harness stores per op and the oracle predicts.
uint64_t GetDigest(bool found, rum::Value value);
uint64_t MultiGetDigest(const std::vector<std::optional<rum::Value>>& values);
uint64_t ScanDigest(const std::vector<rum::Entry>& entries);

/// A reference key-value store over [0, domain): the std::map oracle of the
/// repository's tests, specialized to a dense bounded key domain.
class Oracle {
 public:
  explicit Oracle(const OpStream& stream);
  /// Applies a write; returns the digest the method must match for a read.
  uint64_t Apply(const Op& op, const std::vector<rum::Key>& batch_keys);
  bool Get(rum::Key key, rum::Value* value) const;

 private:
  std::vector<rum::Value> values_;
  std::vector<uint8_t> present_;
};

/// One workload's full stack: BlockDevice -> FaultyDevice -> RetryingDevice
/// -> CachingDevice -> method (-> ShardedMethod -> RequestScheduler for the
/// open-loop workload). On a traced stack a TimedDevice sits on every
/// device boundary and a TimedMethod on every method boundary.
///
/// Members are declared bottom-up, so they are destroyed top-down.
struct Stack {
  // Per-boundary times, named for the rung the calls go into.
  BoundaryTimes block_t;
  BoundaryTimes faulty_t;
  BoundaryTimes retry_t;
  BoundaryTimes cache_t;
  BoundaryTimes method_t;  ///< Into the method (the ShardedMethod if any).
  BoundaryTimes shard_t;   ///< Into the shards of a ShardedMethod.

  std::unique_ptr<rum::MemoryArbiter> arbiter;
  rum::RumCounters block_counters;
  rum::RumCounters retry_counters;
  std::unique_ptr<rum::BlockDevice> block;
  std::unique_ptr<TimedDevice> into_block;
  std::unique_ptr<rum::FaultyDevice> faulty;
  std::unique_ptr<TimedDevice> into_faulty;
  std::unique_ptr<rum::RetryingDevice> retry;
  std::unique_ptr<TimedDevice> into_retry;
  std::unique_ptr<rum::CachingDevice> cache;
  std::unique_ptr<TimedDevice> into_cache;
  std::unique_ptr<rum::AccessMethod> method;
  std::unique_ptr<rum::RequestScheduler> scheduler;

  bool traced = false;
  rum::BTree* btree = nullptr;        ///< Set on the btree workload.
  std::vector<rum::LsmTree*> lsms;    ///< Every LSM tree (one per shard).

  /// The RUM ledger of the whole stack: the method's own counters plus the
  /// cache level, the block device and the retry layer, so every byte is
  /// charged once, at the level that served it.
  rum::CounterSnapshot Merged() const;
};

/// Builds `w`'s stack, loads `stream.load` and issues the warm-up Gets.
/// Everything this does is the set-up the benchmark times.
std::unique_ptr<Stack> BuildStack(Workload w, const OpStream& stream,
                                  uint64_t seed, double scale, bool traced);

}  // namespace rumbench

#endif  // RUMBENCH_WORKLOADS_H_
