#ifndef RUMLAB_TESTS_MODEL_HARNESS_H_
#define RUMLAB_TESTS_MODEL_HARNESS_H_

// The model-based differential harness every correctness tier runs on.
//
// One seeded generator emits a stream of Ops. A Runner applies them in
// order to a Subject -- one factory method on a BlockDevice -> FaultyDevice
// -> [CachingDevice] stack, shaped by a Features row, optionally behind a
// RequestScheduler -- and to a Model of what the method may answer. After
// every step it checks the answer against the model and the accounting
// identities: no pin outlives its operation, the scheduler ledger closes
// with every request issued completed, the arbiter conserves its budget,
// and every LSM tree keeps its aux-MO ledger and merge-policy bounds.
//
// Faults and crashes weaken the model only as far as they must. Until a
// mutation fails or a crash drops dirty pages, every answer must be exact
// (a read may fail explicitly while faults are armed), and a crash right
// after a durable flush must lose nothing. Once data may have been lost, a
// key may be absent, and a present key must carry a value it held since the
// last durable flush -- or, after a mutation failed part-way, any value it
// ever held; never another key's. When faults are disarmed the harness
// reads the whole state back, and if it is self-consistent (ordered, and
// agreeing with point Gets) adopts it, so the rest of the stream is exact
// again. A read-back that is not self-consistent is itself a violation,
// unless a crash dropped dirty pages or a mutation that is not
// failure-atomic failed part-way since the last adoption: only then may a
// method without recovery logic hold in-memory state its pages contradict.
// Errors must be explicit (IOError, Corruption, Unavailable) and only
// appear while a plan is armed or after such damage, until an adoption
// clears it. While no plan is armed, every MultiGet must also equal the
// per-key Get loop on the same instance.
//
// A failing stream shrinks to a short op list that FormatOps prints and
// ParseOps reads back, so a failure replays as
//   Run("btree", ParseFeatures("cache"), ParseOps("I 3 7; C; G 3"))

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "adaptive/memory_arbiter.h"
#include "core/access_method.h"
#include "core/counters.h"
#include "core/options.h"
#include "core/types.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "storage/fault.h"
#include "storage/faulty_device.h"

namespace rum {

class RequestScheduler;

namespace harness {

enum class OpKind : uint8_t {
  kInsert,
  kUpdate,
  kDelete,
  kGet,
  kMultiGet,
  kScan,
  kFlush,       ///< Method Flush, then the stack's FlushAll: a durable point.
  kCrash,       ///< Crash() at the top of the device stack.
  kResetStats,
  kReplan,      ///< Forces a memory-arbiter replan (no-op without one).
  kFaults,      ///< Arms FaultPlanFor(plan) on the FaultyDevice.
  /// BulkLoad of keys key..hi, the i-th taking value + i. Goes to the
  /// method directly, never through the scheduler; only a stream's first
  /// op, since a bulk load needs an empty method.
  kBulkLoad,
};
inline constexpr size_t kOpKinds = 12;

struct Op {
  OpKind kind = OpKind::kGet;
  Key key = 0;        ///< Point ops; Scan's and BulkLoad's lo.
  Key hi = 0;         ///< Scan's and BulkLoad's hi.
  Value value = 0;    ///< Insert/Update; BulkLoad's first value.
  uint32_t plan = 0;  ///< kFaults: index for FaultPlanFor (0 disarms).
  std::vector<Key> keys;  ///< MultiGet batch.
};

/// Plans a kFaults op can arm: 0 none, 1 read-class transients, 2
/// write/allocate transients, 3 a storm on every class with torn writes.
inline constexpr uint32_t kFaultPlans = 4;
FaultPlan FaultPlanFor(uint32_t plan);

struct GenSpec {
  size_t ops = 800;  ///< Ops after the opening bulk load, if any.
  Key key_range = 1u << 12;
  bool faults = true;   ///< Emit kFaults ops.
  bool crashes = true;  ///< Emit kCrash ops.
  /// Open one stream in four with a kBulkLoad of up to key_range / 4
  /// keys. Off for a stream that does not start on an empty method.
  bool bulk_load = true;
};

/// The one op generator. The stream moves through phases (write-heavy,
/// tombstone-heavy, read-heavy) so one seed covers all three shapes. Keys
/// are uniform in [0, key_range); MultiGet batches mix hits, duplicates
/// (half of them the last inserted or updated key, so some repeat a live
/// key), guaranteed misses and the last deleted key; scans take every range
/// shape (narrow, lo == hi, empty gap past the domain, wide, up to kMaxKey).
/// Whether the stream opens with a bulk load, and its range, come from a
/// second stream derived from the seed, so the other ops are the same
/// either way.
std::vector<Op> Generate(uint64_t seed, const GenSpec& spec);

/// "I k v; U k v; D k; G k; M k,k,...; S lo hi; F; C; R; P; X plan;
/// B lo hi v".
std::string FormatOps(std::span<const Op> ops);
std::vector<Op> ParseOps(std::string_view text);

/// One row of the feature matrix. Features that do not apply to a method
/// (the LSM knobs on a B-tree, say) are inert for it.
struct Features {
  /// RequestScheduler front door, driven closed-loop: each op's requests
  /// arrive at the scheduler's current virtual time and drain before the
  /// next op; a MultiGet arrives as one burst of Gets.
  bool service = false;
  bool arbiter = false;          ///< Global MemoryArbiter over the pools.
  bool sharded = false;          ///< "sharded-" prefix on the factory name.
  bool cross_run_index = false;  ///< LSM one-seek range-scan view.
  bool blocked_bloom = false;    ///< LSM single-cache-line filters.
  bool compress = false;         ///< Delta-compressed LSM run pages.
  bool cache = false;            ///< CachingDevice atop the faulty layer.

  static constexpr size_t kCount = 7;
  bool bit(size_t i) const;
  /// "service+arbiter+..." ("plain" when none is set).
  std::string Label() const;
};
Features ParseFeatures(std::string_view label);

/// Six rows in which every pair of the seven features takes all four value
/// combinations (a strength-2 covering array).
const std::vector<Features>& PairwiseFeatureRows();

/// One method under test and the stack it runs on.
class Subject {
 public:
  /// `stacked` false builds the method on its private device (its own
  /// counters then carry every physical charge), with no fault or cache
  /// layer; Crash and kFaults become no-ops.
  Subject(std::string_view method, const Features& features,
          bool stacked = true);
  /// The method built from `options` verbatim, on its private device.
  Subject(std::string_view method, const Options& options);
  ~Subject();

  AccessMethod* method() const { return method_.get(); }
  /// The front door before method(); null unless the `service` feature.
  RequestScheduler* scheduler() const { return scheduler_.get(); }
  const Options& options() const { return options_; }
  FaultyDevice& faulty() { return faulty_; }
  CachingDevice* cache() const { return cache_.get(); }
  MemoryArbiter* arbiter() const { return arbiter_.get(); }
  bool stacked() const { return stacked_; }
  const RumCounters& base_counters() const { return counters_; }

 private:
  std::string name_;
  bool stacked_;
  std::unique_ptr<MemoryArbiter> arbiter_;  // Outlives every pool below.
  RumCounters counters_;
  BlockDevice base_;
  FaultyDevice faulty_;
  std::unique_ptr<CachingDevice> cache_;
  Options options_;
  std::unique_ptr<AccessMethod> method_;
  std::unique_ptr<RequestScheduler> scheduler_;  // Fronts method_.
};

/// What a run exercised, summed so a test can assert its chaos was real.
struct Report {
  uint64_t failed_ops = 0;       ///< Ops that returned an explicit error.
  uint64_t faults_injected = 0;
  uint64_t lossy_crashes = 0;    ///< Crashes that dropped dirty state.
  uint64_t resyncs = 0;          ///< Recovered states checked and adopted.
  uint64_t parity_checks = 0;    ///< MultiGets compared to a Get loop.
  uint64_t final_keys = 0;       ///< Keys in final states held exact.

  Report& operator+=(const Report& other);
};

/// Replays `ops` on a fresh Subject(method, features). Success, or the
/// first violation with its op index, followed by the stream shrunk to a
/// short failing op list printed as a replayable line. `report`
/// (optional) accumulates.
::testing::AssertionResult Run(std::string_view method,
                               const Features& features,
                               std::span<const Op> ops,
                               Report* report = nullptr);

/// Like Run, on Subject(method, options): the configuration sweeps' entry
/// point. Crash and kFaults ops are no-ops there.
::testing::AssertionResult RunWithOptions(std::string_view method,
                                          const Options& options,
                                          std::span<const Op> ops);

/// MultiGet charge parity. The stream runs against the model on a
/// private-device instance (built with `features`, which must leave cache
/// and arbiter off); then MultiGets sampled across the stream, and every
/// batch of 512 keys or more, are each replayed on two fresh instances that
/// took the same prefix, one answering with MultiGet and the other with the
/// per-key Get loop. Results must be identical; a batch of one must charge
/// identical counters; a larger batch no more physical traffic and the same
/// logical work. Expects a stream without faults or crashes. Shrinks on
/// failure like Run.
::testing::AssertionResult RunParity(std::string_view method,
                                     const Features& features,
                                     std::span<const Op> ops,
                                     Report* report = nullptr);

/// Crash-point sweep. `prefix` runs fault-free and should end in a kFlush
/// (the durable point). Then, for k = 0, 1, 2, ... a fresh subject replays
/// the prefix, arms FaultPlan::FailAfter(k), and applies `suffix` until an
/// op fails -- power lost at charged I/O k. The stack crashes, faults
/// disarm, and the rest of the suffix runs. A failed mutation (or a crash
/// that drops dirty pages) leaves the model lossy for the rest of the run,
/// since the failed op may have left any page half-updated: any key may
/// then be absent. So what each such point checks is no hang, no crash,
/// only explicit errors, no key outside a scan's range, and no value the
/// key never held (never another key's) -- not that the durable prefix
/// survived. Exact recovery of a durable flush is checked by replaying a
/// flush-then-crash stream with Run, where the model stays exact. The sweep
/// ends at the first k the whole suffix survives. `points` receives the
/// number of crash points enumerated.
::testing::AssertionResult CrashPointSweep(std::string_view method,
                                           const Features& features,
                                           std::span<const Op> prefix,
                                           std::span<const Op> suffix,
                                           size_t* points);

}  // namespace harness
}  // namespace rum

#endif  // RUMLAB_TESTS_MODEL_HARNESS_H_
