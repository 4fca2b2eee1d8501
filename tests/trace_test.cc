// Observability tier: the trace ring buffer, the latency histograms, and
// the metrics registry -- plus the contracts the tentpole fixes rely on:
// deterministic event order for seeded serial runs, exact agreement between
// drained event counts and device counters, byte-identical RUM accounting
// with tracing off, and the no-per-op-stats-merge sampling regression check.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/trace.h"
#include "methods/factory.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "storage/faulty_device.h"
#include "storage/retry_device.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"
#include "workload/runner.h"

namespace rum {
namespace {

using testing_util::SmallOptions;

constexpr uint64_t kSeed = 0x7ACEULL;

/// Restores the process-wide trace switch to "off, drained" around a test so
/// tests compose regardless of execution order.
struct TraceGuard {
  ~TraceGuard() {
    Trace::Disable();
    Trace::Drain();
  }
};

/// The chaos stack the trace acceptance contract runs over: a tiny cache so
/// evictions and write-backs keep crossing the faulty layer.
struct Stack {
  RumCounters counters;
  BlockDevice base;
  FaultyDevice faulty;
  CachingDevice cache;

  explicit Stack(size_t cache_pages = 8)
      : base(512, &counters), faulty(&base), cache(&faulty, cache_pages) {}
};

WorkloadSpec ChaosSpec() {
  WorkloadSpec spec;
  spec.operations = 600;
  spec.key_range = 1 << 10;
  spec.insert_fraction = 0.4;
  spec.update_fraction = 0.1;
  spec.delete_fraction = 0.1;
  spec.scan_fraction = 0.05;
  spec.seed = kSeed;
  spec.error_mode = ErrorMode::kSkipAndCount;
  return spec;
}

FaultPlan ChaosPlan() {
  return FaultPlan::Transient(kSeed + 7, 0.0)
      .WithRate(FaultOp::kRead, 0.05)
      .WithRate(FaultOp::kWrite, 0.05)
      .WithRate(FaultOp::kAllocate, 0.05);
}

// ------------------------------------------------------- LatencyHistogram

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(v), v);
  }
}

TEST(LatencyHistogramTest, BucketLowerBoundRoundTrips) {
  // Every bucket's lower bound maps back to that bucket, and lower bounds
  // are strictly increasing -- together that pins the bucketing scheme.
  uint64_t prev = 0;
  for (size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    uint64_t lo = LatencyHistogram::BucketLowerBound(i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(lo), i) << "bucket " << i;
    if (i > 0) {
      EXPECT_GT(lo, prev) << "bucket " << i;
    }
    prev = lo;
  }
  // Values below 32 are still exact (the 16..31 group has 16 sub-buckets of
  // width 1); coalescing starts at 32, where sub-buckets widen to 2.
  EXPECT_NE(LatencyHistogram::BucketIndex(17),
            LatencyHistogram::BucketIndex(16));
  EXPECT_EQ(LatencyHistogram::BucketIndex(33),
            LatencyHistogram::BucketIndex(32));
  EXPECT_LT(LatencyHistogram::BucketIndex(~uint64_t{0}),
            LatencyHistogram::kBucketCount);
}

TEST(LatencyHistogramTest, RelativeErrorIsBounded) {
  // The bucket lower bound never understates by more than 1/kSubBuckets.
  for (uint64_t v : {100ull, 999ull, 4096ull, 123456789ull, 1ull << 40}) {
    uint64_t lo =
        LatencyHistogram::BucketLowerBound(LatencyHistogram::BucketIndex(v));
    EXPECT_LE(lo, v);
    EXPECT_GE(lo, v - v / LatencyHistogram::kSubBuckets) << v;
  }
}

TEST(LatencyHistogramTest, StatsAndPercentiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);  // Empty: all stats zero.
  EXPECT_EQ(h.min(), 0u);
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  // Bucket lower bounds never overstate: p50 is in (500 * 15/16, 500].
  EXPECT_LE(h.Percentile(0.50), 500u);
  EXPECT_GE(h.Percentile(0.50), 468u);
  EXPECT_LE(h.Percentile(0.99), 990u);
  EXPECT_GE(h.Percentile(0.99), 927u);
  EXPECT_EQ(h.Percentile(0.0), 1u);
  // The top quantile reports the max's bucket lower bound, never more.
  EXPECT_EQ(h.Percentile(1.0), LatencyHistogram::BucketLowerBound(
                                   LatencyHistogram::BucketIndex(1000)));
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, combined;
  for (uint64_t v = 0; v < 500; v += 3) {
    a.Record(v);
    combined.Record(v);
  }
  for (uint64_t v = 10000; v < 20000; v += 7) {
    b.Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.Percentile(q), combined.Percentile(q)) << q;
  }
}

// The p999 accessor and cumulative counts back the saturation tier's SLO
// arithmetic: completions at-or-under a latency bound must be exact for
// small values (where buckets are 1-wide), and p999 must land between p99
// and max and appear in the JSON export.
TEST(LatencyHistogramTest, TailAccessorsAndCumulativeCounts) {
  LatencyHistogram h;
  EXPECT_EQ(h.p999(), 0u);  // Empty histogram: all tails zero.
  EXPECT_EQ(h.CountAtOrBelow(100), 0u);
  for (uint64_t v = 1; v <= 60; ++v) h.Record(v);
  h.Record(5000);
  // Values <= 64 sit in exact 1-wide buckets.
  EXPECT_EQ(h.CountAtOrBelow(0), 0u);
  EXPECT_EQ(h.CountAtOrBelow(30), 30u);
  EXPECT_EQ(h.CountAtOrBelow(60), 60u);
  EXPECT_EQ(h.CountAtOrBelow(2500), 60u);  // Bound below the outlier's bucket.
  EXPECT_EQ(h.CountAtOrBelow(5000), 61u);
  EXPECT_GE(h.p999(), h.Percentile(0.99));
  EXPECT_LE(h.p999(), h.max());
  std::string json = h.ToJson();
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

// Empty and merged-empty histograms must answer every query with 0 -- the
// dashboards and SLO guards hit this case on any idle op class, and the
// percentile walk must not read past the bucket array doing it.
TEST(LatencyHistogramTest, EmptyAndMergedEmptyQueriesReturnZero) {
  LatencyHistogram a, b;
  a.Merge(b);  // Merging empties keeps count() == 0.
  EXPECT_EQ(a.count(), 0u);
  for (double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_EQ(a.Percentile(q), 0u) << q;
  }
  EXPECT_EQ(a.p999(), 0u);
  EXPECT_EQ(a.CountAtOrBelow(0), 0u);
  EXPECT_EQ(a.CountAtOrBelow(~uint64_t{0}), 0u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

// Degenerate quantiles and bounds must clamp, not index out of range: NaN
// and out-of-[0,1] quantiles, and a cumulative bound in the top bucket.
TEST(LatencyHistogramTest, DegenerateQuantilesAndBoundsClamp) {
  LatencyHistogram h;
  h.Record(7);
  h.Record(~uint64_t{0});  // Top bucket: CountAtOrBelow must include it.
  EXPECT_EQ(h.Percentile(std::numeric_limits<double>::quiet_NaN()),
            h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(-1.0), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(2.0), h.Percentile(1.0));
  EXPECT_EQ(h.CountAtOrBelow(~uint64_t{0}), 2u);
  EXPECT_EQ(h.CountAtOrBelow(6), 0u);
  EXPECT_EQ(h.CountAtOrBelow(7), 1u);
}

// -------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, OwnedCountersWorkRegardlessOfEnabled) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.set_enabled(false);
  MetricsRegistry::Counter* c =
      registry.FindOrCreateCounter("trace_test.disabled_counter");
  ASSERT_NE(c, nullptr);
  uint64_t before = c->value();
  c->Increment(3);
  EXPECT_EQ(c->value(), before + 3);
  // Same name, same counter.
  EXPECT_EQ(registry.FindOrCreateCounter("trace_test.disabled_counter"), c);
  EXPECT_NE(registry.ToJson().find("\"trace_test.disabled_counter\""),
            std::string::npos);
}

TEST(MetricsRegistryTest, CallbackInstrumentsGateOnEnabled) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.set_enabled(false);
  EXPECT_EQ(registry.RegisterGauge("trace_test.dead", [] { return 1u; }), 0u);
  EXPECT_EQ(registry.ToJson().find("trace_test.dead"), std::string::npos);

  registry.set_enabled(true);
  uint64_t id =
      registry.RegisterGauge("trace_test.live", [] { return 42u; });
  EXPECT_NE(id, 0u);
  EXPECT_NE(registry.ToJson().find("\"trace_test.live\":42"),
            std::string::npos);
  registry.Unregister(id);
  EXPECT_EQ(registry.ToJson().find("trace_test.live"), std::string::npos);
  registry.set_enabled(false);
}

TEST(MetricsRegistryTest, MetricsGroupRegistersAndTearsDown) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.set_enabled(true);
  std::string json;
  {
    MetricsGroup group;
    group.Init("trace_test_group");
    ASSERT_TRUE(group.active());
    group.Gauge("answer", [] { return 7u; });
    group.Histogram("lat", [] {
      LatencyHistogram h;
      h.Record(5);
      return h;
    });
    json = registry.ToJson();
    EXPECT_NE(json.find(".answer\":7"), std::string::npos);
    EXPECT_NE(json.find(".lat\":{\"count\":1"), std::string::npos);
  }
  // The group's destructor unregistered everything it owned.
  json = registry.ToJson();
  EXPECT_EQ(json.find("trace_test_group"), std::string::npos);
  registry.set_enabled(false);
}

TEST(MetricsRegistryTest, InstanceNamesAreUniquePerPrefix) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::string a = registry.InstanceName("trace_test_prefix");
  std::string b = registry.InstanceName("trace_test_prefix");
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("trace_test_prefix[", 0), 0u) << a;
}

TEST(MetricsRegistryTest, DeviceStackExportsGaugesWhileEnabled) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.set_enabled(true);
  {
    Stack stack;
    PageId p = testing_util::MustAllocate(stack.cache, DataClass::kBase);
    std::vector<uint8_t> data(512, 0x5A);
    ASSERT_TRUE(stack.cache.Write(p, data).ok());
    std::vector<uint8_t> out;
    ASSERT_TRUE(stack.cache.Read(p, &out).ok());
    std::string json = registry.ToJson();
    // Each layer registered an instance; names carry the layer prefix.
    EXPECT_NE(json.find("block_device["), std::string::npos);
    EXPECT_NE(json.find("faulty_device["), std::string::npos);
    EXPECT_NE(json.find("caching_device["), std::string::npos);
    EXPECT_NE(json.find(".hits\":1"), std::string::npos);
  }
  // Stack destruction unregistered every gauge (MetricsGroup RAII).
  std::string json = registry.ToJson();
  EXPECT_EQ(json.find("block_device["), std::string::npos);
  EXPECT_EQ(json.find("caching_device["), std::string::npos);
  registry.set_enabled(false);
}

// ------------------------------------------------------------- Trace ring

TEST(TraceTest, DisabledEmitIsANoOp) {
  TraceGuard guard;
  Trace::Disable();
  Trace::Drain();
  Trace::Emit(TraceKind::kCacheHit, TraceOp::kRead, 1, DataClass::kBase);
  EXPECT_TRUE(Trace::Drain().empty());
}

TEST(TraceTest, WraparoundKeepsNewestEvents) {
  TraceGuard guard;
  Trace::Enable(/*events_per_thread=*/4);
  for (uint64_t i = 0; i < 11; ++i) {
    Trace::Emit(TraceKind::kCacheMiss, TraceOp::kRead,
                static_cast<PageId>(i), DataClass::kBase, /*detail=*/i);
  }
  EXPECT_EQ(Trace::dropped_events(), 7u);
  std::vector<TraceEvent> events = Trace::Drain();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].detail, 7 + i);  // The newest four, in order.
    EXPECT_EQ(events[i].seq, 7 + i);
  }
  // Drain cleared the rings.
  EXPECT_TRUE(Trace::Drain().empty());
}

TEST(TraceTest, EnableResetsSequenceAndDropCounts) {
  TraceGuard guard;
  Trace::Enable(8);
  for (int i = 0; i < 20; ++i) {
    Trace::Emit(TraceKind::kCacheHit, TraceOp::kRead, 1, DataClass::kBase);
  }
  EXPECT_GT(Trace::dropped_events(), 0u);
  Trace::Enable(8);
  EXPECT_EQ(Trace::dropped_events(), 0u);
  Trace::Emit(TraceKind::kCacheHit, TraceOp::kRead, 1, DataClass::kBase);
  std::vector<TraceEvent> events = Trace::Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 0u);
}

// Two fresh fixed-seed serial chaos runs produce identical event streams:
// same kinds, ops, pages, classes, sequence numbers, and details -- except
// kPinRelease's detail, which is a wall-clock held-duration and is masked.
TEST(TraceTest, SerialChaosRunsReplayIdenticalEventStreams) {
  TraceGuard guard;
  auto run_once = [] {
    Trace::Enable(size_t{1} << 16);
    Stack stack;
    auto method = MakeAccessMethod("btree", SmallOptions(), &stack.cache);
    EXPECT_NE(method, nullptr);
    stack.faulty.SetPlan(ChaosPlan());
    Result<RumProfile> r = WorkloadRunner::Run(method.get(), ChaosSpec());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return Trace::Drain();
  };
  std::vector<TraceEvent> first = run_once();
  std::vector<TraceEvent> second = run_once();
  ASSERT_GT(first.size(), 0u);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].seq, second[i].seq) << i;
    EXPECT_EQ(first[i].kind, second[i].kind) << i;
    EXPECT_EQ(first[i].op, second[i].op) << i;
    EXPECT_EQ(first[i].page, second[i].page) << i;
    EXPECT_EQ(first[i].cls, second[i].cls) << i;
    if (first[i].kind != TraceKind::kPinRelease) {
      EXPECT_EQ(first[i].detail, second[i].detail)
          << i << " " << TraceKindName(first[i].kind);
    }
  }
}

// The acceptance contract: a fixed-seed chaos run's drained event counts
// agree exactly with the device layers' own counters, with nothing dropped.
TEST(TraceTest, ChaosEventCountsMatchDeviceCountersExactly) {
  TraceGuard guard;
  Trace::Enable(size_t{1} << 18);
  Stack stack;
  auto method = MakeAccessMethod("btree", SmallOptions(), &stack.cache);
  ASSERT_NE(method, nullptr);
  stack.faulty.SetPlan(ChaosPlan()
                           .WithRate(FaultOp::kPin, 0.03)
                           .WithTornWrites(0.5, 64));
  Result<RumProfile> r = WorkloadRunner::Run(method.get(), ChaosSpec());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(Trace::dropped_events(), 0u);

  std::vector<TraceEvent> events = Trace::Drain();
  std::map<TraceKind, uint64_t> by_kind;
  for (const TraceEvent& e : events) ++by_kind[e.kind];

  EXPECT_EQ(by_kind[TraceKind::kCacheHit], stack.cache.hits());
  EXPECT_EQ(by_kind[TraceKind::kCacheMiss], stack.cache.misses());
  EXPECT_EQ(by_kind[TraceKind::kCacheEvict], stack.cache.evictions());
  EXPECT_EQ(by_kind[TraceKind::kCacheWriteBack], stack.cache.write_backs());
  EXPECT_EQ(by_kind[TraceKind::kCacheWriteBackFail],
            stack.cache.write_back_failures());
  EXPECT_EQ(by_kind[TraceKind::kFaultInjected],
            stack.faulty.faults_injected());
  EXPECT_EQ(by_kind[TraceKind::kTornWrite], stack.faulty.torn_writes());
  EXPECT_EQ(by_kind[TraceKind::kPinAcquire], by_kind[TraceKind::kPinRelease]);
  EXPECT_GT(by_kind[TraceKind::kFaultInjected], 0u);  // The chaos was real.
  EXPECT_GT(by_kind[TraceKind::kCacheEvict], 0u);
}

// Tracing must observe, never perturb: the same seeded run with tracing on
// and off ends with byte-identical RUM counter snapshots.
TEST(TraceTest, DisabledTraceLeavesRumCountersByteIdentical) {
  TraceGuard guard;
  auto run_once = [](bool traced) {
    if (traced) {
      Trace::Enable(size_t{1} << 16);
    } else {
      Trace::Disable();
      Trace::Drain();
    }
    Stack stack;
    auto method = MakeAccessMethod("btree", SmallOptions(), &stack.cache);
    EXPECT_NE(method, nullptr);
    stack.faulty.SetPlan(ChaosPlan());
    Result<RumProfile> r = WorkloadRunner::Run(method.get(), ChaosSpec());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return stack.counters.snapshot();
  };
  CounterSnapshot off = run_once(false);
  EXPECT_TRUE(Trace::Drain().empty());  // Nothing emitted while disabled.
  CounterSnapshot on = run_once(true);
  testing_util::ExpectSnapshotsEqual(off, on);
}

// Concurrent emission: four workers over one shared stack, rings drained
// after the join. Sequence numbers must come back unique and increasing
// (Drain's merge contract); TSan validates the memory model in that tier.
TEST(TraceTest, ConcurrentEmissionDrainsCleanly) {
  TraceGuard guard;
  Trace::Enable(size_t{1} << 16);
  Stack stack(16);
  auto method =
      MakeAccessMethod("sharded-btree", SmallOptions(), &stack.cache);
  ASSERT_NE(method, nullptr);
  stack.faulty.SetPlan(FaultPlan::Transient(kSeed + 9, 0.0)
                           .WithRate(FaultOp::kRead, 0.02)
                           .WithRate(FaultOp::kWrite, 0.02));
  WorkloadSpec spec = ChaosSpec();
  spec.concurrency = 4;
  spec.scan_fraction = 0;  // Scans cross shards; keep workers disjoint.
  Result<RumProfile> r = WorkloadRunner::Run(method.get(), spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::vector<TraceEvent> events = Trace::Drain();
  ASSERT_GT(events.size(), 0u);
  std::set<uint64_t> seqs;
  uint64_t prev = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(seqs.insert(events[i].seq).second) << "duplicate seq";
    if (i > 0) {
      EXPECT_GT(events[i].seq, prev);
    }
    prev = events[i].seq;
  }
}

// ------------------------------------------------- Retry event accounting

// kRetryAttempt events agree with the retries counter, io_errors agrees
// with the faulty layer's injection count (the satellite-c invariant), and
// io_errors - retries equals the operations that ultimately failed.
TEST(TraceTest, RetryEventsMatchCountersUnderDeterministicReplay) {
  TraceGuard guard;
  Trace::Enable(size_t{1} << 16);
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice faulty(&base);
  Options options;
  options.storage.retry.max_attempts = 3;
  options.storage.retry.backoff_base_us = 10;
  RetryingDevice device(&faulty, options, &counters);

  faulty.SetPlan(FaultPlan::Transient(kSeed, 0.0)
                     .WithRate(FaultOp::kRead, 0.6)
                     .WithRate(FaultOp::kWrite, 0.6));
  std::vector<uint8_t> data(512, 0x33);
  std::vector<uint8_t> out;
  uint64_t failed_ops = 0;
  std::vector<PageId> pages;
  for (int i = 0; i < 40; ++i) {
    pages.push_back(testing_util::MustAllocate(device, DataClass::kBase));
  }
  for (PageId p : pages) {
    if (!device.Write(p, data).ok()) ++failed_ops;
    if (!device.Read(p, &out).ok()) ++failed_ops;
  }

  CounterSnapshot snap = counters.snapshot();
  std::vector<TraceEvent> events = Trace::Drain();
  uint64_t retry_events = 0;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceKind::kRetryAttempt) continue;
    ++retry_events;
    EXPECT_GE(e.detail, 2u);  // Attempt numbers start at the first re-try.
    EXPECT_LE(e.detail, options.storage.retry.max_attempts);
  }
  EXPECT_GT(snap.retries, 0u);
  EXPECT_GT(failed_ops, 0u);
  EXPECT_EQ(retry_events, snap.retries);
  EXPECT_EQ(snap.io_errors, faulty.faults_injected());
  EXPECT_EQ(snap.io_errors - snap.retries, failed_ops);
}

// kCorruption is not an I/O error: it must neither retry nor charge
// io_errors at the retry layer beyond the faults the faulty layer injected.
TEST(TraceTest, CorruptionChargesNoRetryAccounting) {
  TraceGuard guard;
  Trace::Enable(size_t{1} << 12);
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice faulty(&base);
  Options options;
  options.storage.retry.max_attempts = 5;
  RetryingDevice device(&faulty, options, &counters);

  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  std::vector<uint8_t> data(512, 0x44);
  ASSERT_TRUE(device.Write(p, data).ok());
  // One torn write poisons the page...
  faulty.SetPlan(FaultPlan::Transient(kSeed, 0.0)
                     .WithRate(FaultOp::kWrite, 1.0)
                     .WithTornWrites(1.0, 32));
  EXPECT_FALSE(device.Write(p, data).ok());
  faulty.ClearFaults();
  uint64_t io_errors_after_tear = counters.snapshot().io_errors;
  uint64_t retries_after_tear = counters.snapshot().retries;

  // ...and the corrupt read fails once: no retry events, no io_errors tick.
  std::vector<uint8_t> out;
  EXPECT_EQ(device.Read(p, &out).code(), Code::kCorruption);
  CounterSnapshot snap = counters.snapshot();
  EXPECT_EQ(snap.io_errors, io_errors_after_tear);
  EXPECT_EQ(snap.retries, retries_after_tear);
  for (const TraceEvent& e : Trace::Drain()) {
    if (e.kind == TraceKind::kRetryAttempt) {
      EXPECT_NE(e.op, TraceOp::kRead) << "corrupt read was retried";
    }
  }
}

// ------------------------------------------------ Runner latency sampling

TEST(TraceTest, SerialRunnerPopulatesLatencyHistograms) {
  WorkloadSpec spec;
  spec.operations = 500;
  spec.key_range = 1 << 10;
  spec.insert_fraction = 0.3;
  spec.update_fraction = 0.1;
  spec.delete_fraction = 0.1;
  spec.scan_fraction = 0.1;
  spec.seed = kSeed;
  auto method = MakeAccessMethod("btree", SmallOptions());
  ASSERT_NE(method, nullptr);
  Result<RumProfile> r =
      WorkloadRunner::LoadAndRun(method.get(), 1000, spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const OpLatencies& latency = r.value().latency;
  // Every executed op landed in exactly one class histogram.
  EXPECT_EQ(latency.Total().count(), spec.operations);
  EXPECT_GT(latency.point.count(), 0u);
  EXPECT_GT(latency.insert.count(), 0u);
  EXPECT_GT(latency.scan.count(), 0u);
  EXPECT_GT(latency.Total().max(), 0u);
  std::string json = latency.ToJson();
  EXPECT_NE(json.find("\"point\""), std::string::npos);
  EXPECT_NE(json.find("\"scan\""), std::string::npos);
}

TEST(TraceTest, ConcurrentRunnerMergesLatencyAndCostSamples) {
  WorkloadSpec spec;
  spec.operations = 2000;
  spec.key_range = 1 << 12;
  spec.insert_fraction = 0.3;
  spec.seed = kSeed;
  spec.concurrency = 4;
  auto method = MakeAccessMethod("sharded-btree", SmallOptions());
  ASSERT_NE(method, nullptr);
  Result<RumProfile> r =
      WorkloadRunner::LoadAndRun(method.get(), 2000, spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const RumProfile& p = r.value();
  EXPECT_EQ(p.latency.Total().count(), spec.operations);
  // Concurrent phases now carry per-op byte-cost percentiles too (sampled
  // from the per-thread I/O tally, merged after the join).
  EXPECT_GT(p.read_cost.max, 0u);
  EXPECT_GE(p.read_cost.p99, p.read_cost.p50);
  EXPECT_GE(p.read_cost.max, p.read_cost.p99);
}

// --------------------------------------------- Sampling regression check

// The satellite-a fix: RunSerial used to call method->stats() -- an
// O(shards) lock-and-merge -- once per operation to sample per-op costs.
// The per-thread I/O tally made sampling O(1); the stats_merges counter
// proves a phase run performs only a constant handful of full merges.
TEST(TraceTest, SerialRunnerDoesNotMergeShardStatsPerOp) {
  MetricsRegistry::Counter* merges =
      MetricsRegistry::Global().FindOrCreateCounter(
          "sharded_method.stats_merges");
  WorkloadSpec spec;
  spec.operations = 1000;
  spec.key_range = 1 << 10;
  spec.insert_fraction = 0.3;
  spec.seed = kSeed;
  auto method = MakeAccessMethod("sharded-btree", SmallOptions());
  ASSERT_NE(method, nullptr);
  uint64_t before = merges->value();
  Result<RumProfile> r =
      WorkloadRunner::LoadAndRun(method.get(), 1000, spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  uint64_t delta = merges->value() - before;
  // LoadAndRun brackets the load and run phases with a few snapshots; the
  // bound just has to be far below one merge per operation.
  EXPECT_LE(delta, 16u);
}

}  // namespace
}  // namespace rum
