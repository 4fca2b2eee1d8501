// Saturation and admission-control tests for the service layer
// (src/service/): open-loop overload behavior, the request-conservation
// ledger, scheduler mechanisms (priorities, group commit, read coalescing,
// deadlines), and the closed-loop pass-through contract.
//
// Everything here runs on the scheduler's *virtual* clock, so queueing
// dynamics -- p99s, sheds, goodput -- are deterministic functions of the
// seed and identical under ASan/TSan or any host load.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "methods/factory.h"
#include "service/open_loop.h"
#include "service/scheduled_method.h"
#include "service/scheduler.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace rum {
namespace {

using testing_util::SmallOptions;

constexpr uint64_t kSatSeed = 0x5A70ULL;

/// Service options with the cost model pinned explicitly, so capacity and
/// every latency assertion below are stable against default changes.
Options ServiceOptions() {
  Options options = SmallOptions();
  options.service.enabled = true;
  options.service.dispatch_overhead_us = 8;
  options.service.op_cost_us = 2;
  options.service.scan_cost_us = 16;
  options.service.batch_max_ops = 16;
  return options;
}

/// A get-heavy open-loop mix over a prefilled key space. Zipfian keys: the
/// skew is what makes read coalescing and per-shard queue imbalance real.
WorkloadSpec SaturationSpec(uint64_t ops, double offered_ops_per_sec) {
  WorkloadSpec spec;
  spec.operations = ops;
  spec.key_range = 1 << 12;
  spec.distribution = KeyDistribution::kZipfian;
  spec.insert_fraction = 0.1;
  spec.seed = kSatSeed;
  spec.error_mode = ErrorMode::kSkipAndCount;
  spec.arrival = ArrivalProcess::kPoisson;
  spec.offered_ops_per_sec = offered_ops_per_sec;
  return spec;
}

std::unique_ptr<AccessMethod> PrefilledMethod() {
  // The method itself is built with the service layer *disabled*: the
  // open-loop scheduler under test is the RequestScheduler RunOpenLoop
  // constructs, not a factory-installed wrapper.
  auto method = MakeAccessMethod("skiplist", SmallOptions());
  EXPECT_NE(method, nullptr);
  for (Key k = 0; k < (1 << 12); ++k) {
    EXPECT_TRUE(method->Insert(k, ValueFor(k)).ok());
  }
  return method;
}

void ExpectLedgerExact(const ServiceStats& s, uint64_t submitted) {
  EXPECT_EQ(s.submitted, submitted);
  EXPECT_EQ(s.submitted, s.completed + s.deadline_missed + s.shed);
  EXPECT_EQ(s.accepted, s.completed + s.deadline_missed + s.shed_codel);
  EXPECT_EQ(s.shed, s.shed_queue_full + s.shed_rate_gate + s.shed_codel);
  EXPECT_TRUE(s.LedgerHolds());
}

/// Measured capacity: drive far above any plausible capacity with admission
/// off and an unbounded queue, so the server never idles and sheds nothing;
/// completions per virtual second is the service rate.
double MeasureCapacity() {
  auto method = PrefilledMethod();
  Options options = ServiceOptions();
  options.service.admission = false;
  options.service.queue_capacity = 1u << 20;
  WorkloadSpec spec = SaturationSpec(20000, 50e6);
  Result<ServiceReport> r = RunOpenLoop(method.get(), spec, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  const ServiceStats& s = r.value().stats;
  EXPECT_EQ(s.completed, spec.operations);
  EXPECT_GT(s.end_us, 0u);
  return static_cast<double>(s.completed) * 1e6 /
         static_cast<double>(s.end_us);
}

// --------------------------------------------------- The acceptance study

// At 2x measured capacity, the admission package (bounded queue + CoDel)
// keeps accepted p99 inside the SLO and goodput >= 70% of capacity; the
// no-admission baseline -- same load into one big buffer -- demonstrably
// violates both. This is bufferbloat versus load shedding in one test.
TEST(SaturationTest, AdmissionHoldsSloAtTwiceCapacityWhereBaselineViolates) {
  const double capacity = MeasureCapacity();
  ASSERT_GT(capacity, 0.0);
  const uint64_t kSloUs = 20000;  // 20 virtual milliseconds.
  const uint64_t kOps = 80000;

  auto run = [&](bool admission, size_t queue_capacity) {
    auto method = PrefilledMethod();
    Options options = ServiceOptions();
    options.service.admission = admission;
    options.service.queue_capacity = queue_capacity;
    options.service.slo_us = kSloUs;
    options.service.codel_target_us = 1000;
    options.service.codel_interval_us = 5000;
    WorkloadSpec spec = SaturationSpec(kOps, 2.0 * capacity);
    Result<ServiceReport> r = RunOpenLoop(method.get(), spec, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  };

  ServiceReport with = run(true, 1024);
  ServiceReport without = run(false, 1u << 20);

  ExpectLedgerExact(with.stats, kOps);
  ExpectLedgerExact(without.stats, kOps);

  // The overload is real and admission responded to it -- including CoDel,
  // not just the queue bound.
  EXPECT_GT(with.stats.shed, 0u);
  EXPECT_GT(with.stats.shed_codel, 0u);
  EXPECT_EQ(with.stats.shed, with.errors.shed);

  // Admission: completed-request p99 inside the SLO, goodput >= 70% of the
  // measured service rate.
  EXPECT_LE(with.stats.total_us.Percentile(0.99), kSloUs);
  EXPECT_GE(with.stats.goodput_ops_per_sec(), 0.7 * capacity);

  // Baseline: nothing shed, everything eventually served -- and both SLO
  // criteria blown: the standing queue pushes p99 far past the SLO and
  // goodput collapses because late completions are worthless.
  EXPECT_EQ(without.stats.shed, 0u);
  EXPECT_EQ(without.stats.completed, kOps);
  EXPECT_GT(without.stats.total_us.Percentile(0.99), kSloUs);
  EXPECT_LT(without.stats.goodput_ops_per_sec(), 0.7 * capacity);
}

// Same seed, same spec, same options: the full report -- ledger, histogram
// summaries, RUM delta -- replays byte-for-byte.
TEST(SaturationTest, SameSeedReplayIsByteIdentical) {
  auto run = [&] {
    auto method = PrefilledMethod();
    Options options = ServiceOptions();
    options.service.queue_capacity = 512;
    options.service.slo_us = 10000;
    options.service.deadline_us = 50000;
    WorkloadSpec spec = SaturationSpec(20000, 600000);
    Result<ServiceReport> r = RunOpenLoop(method.get(), spec, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  };
  ServiceReport a = run();
  ServiceReport b = run();
  EXPECT_EQ(a.ToJson(), b.ToJson());
  ExpectLedgerExact(a.stats, 20000);
}

// Bursty arrivals at the same *average* load shed more than Poisson: the
// on-windows run far above capacity even when the mean is below it. This is
// why an arrival process, not just a mean rate, is part of WorkloadSpec.
TEST(SaturationTest, BurstyArrivalsStressAdmissionHarderThanPoisson) {
  const double capacity = MeasureCapacity();
  auto run = [&](ArrivalProcess arrival) {
    auto method = PrefilledMethod();
    Options options = ServiceOptions();
    options.service.queue_capacity = 256;
    WorkloadSpec spec = SaturationSpec(40000, 0.8 * capacity);
    spec.arrival = arrival;
    spec.burst_factor = 8.0;
    spec.burst_on_fraction = 0.25;
    spec.burst_period_us = 50000;
    Result<ServiceReport> r = RunOpenLoop(method.get(), spec, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  };
  ServiceReport poisson = run(ArrivalProcess::kPoisson);
  ServiceReport bursty = run(ArrivalProcess::kBursty);
  ExpectLedgerExact(poisson.stats, 40000);
  ExpectLedgerExact(bursty.stats, 40000);
  EXPECT_GT(bursty.stats.shed, poisson.stats.shed);
  EXPECT_GT(bursty.stats.max_queue_depth, poisson.stats.max_queue_depth);
}

// Below capacity, Poisson arrivals pace the run: virtual duration matches
// operations / offered rate, and with no standing queue the latency tail
// stays at batch scale.
TEST(SaturationTest, PoissonArrivalsMatchTheOfferedRate) {
  auto method = PrefilledMethod();
  Options options = ServiceOptions();
  WorkloadSpec spec = SaturationSpec(20000, 10000);  // Far below capacity.
  Result<ServiceReport> r = RunOpenLoop(method.get(), spec, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ServiceStats& s = r.value().stats;
  ExpectLedgerExact(s, 20000);
  double expected_us = 20000.0 / 10000.0 * 1e6;
  EXPECT_GT(static_cast<double>(s.end_us), 0.85 * expected_us);
  EXPECT_LT(static_cast<double>(s.end_us), 1.15 * expected_us);
  EXPECT_LE(s.total_us.Percentile(0.99),
            options.service.dispatch_overhead_us +
                16 * options.service.op_cost_us);
}

// ------------------------------------------------- Scheduler mechanisms

Options UnitOptions() {
  Options options = ServiceOptions();
  options.service.admission = false;
  options.service.queue_capacity = 1u << 16;
  return options;
}

Request GetRequest(Key key, uint64_t arrival_us = 0, uint8_t priority = 0) {
  Request req;
  req.op = RequestOp::kGet;
  req.key = key;
  req.arrival_us = arrival_us;
  req.priority = priority;
  return req;
}

// High-priority requests dispatch before normal ones queued earlier.
TEST(SaturationTest, PriorityRequestsDispatchFirst) {
  auto method = PrefilledMethod();
  Options options = UnitOptions();
  options.service.batch_max_ops = 4;
  RequestScheduler scheduler(method.get(), options);
  std::vector<uint8_t> completion_priorities;
  scheduler.set_completion([&](const Request& rq, const RequestResult& r) {
    EXPECT_EQ(r.outcome, RequestOutcome::kCompleted);
    completion_priorities.push_back(rq.priority);
  });
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(scheduler.Submit(GetRequest(static_cast<Key>(i), 0, 1)));
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(scheduler.Submit(GetRequest(static_cast<Key>(100 + i), 0, 0)));
  }
  scheduler.RunUntilIdle();
  ASSERT_EQ(completion_priorities.size(), 12u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(completion_priorities[i], 0u) << "position " << i;
  }
  for (size_t i = 6; i < 12; ++i) {
    EXPECT_EQ(completion_priorities[i], 1u) << "position " << i;
  }
  ExpectLedgerExact(scheduler.stats(), 12);
}

// Duplicate-key Gets inside one window share one method call: the physical
// read is charged once, every waiter gets the value, and service time
// covers one op, not eight.
TEST(SaturationTest, DuplicateGetsCoalesceToOneMethodCall) {
  auto method = PrefilledMethod();
  Options options = UnitOptions();
  options.service.batch_max_ops = 8;
  RequestScheduler scheduler(method.get(), options);
  uint64_t hits = 0;
  scheduler.set_completion([&](const Request&, const RequestResult& r) {
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.value, ValueFor(42));
    ++hits;
  });
  CounterSnapshot before = method->stats();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(scheduler.Submit(GetRequest(42)));
  }
  scheduler.RunUntilIdle();
  CounterSnapshot delta = method->stats() - before;
  EXPECT_EQ(hits, 8u);
  EXPECT_EQ(delta.point_queries, 1u);  // One inner Get served all eight.
  EXPECT_EQ(scheduler.stats().batches, 1u);
  EXPECT_EQ(scheduler.stats().batched_ops, 8u);
  EXPECT_EQ(scheduler.stats().coalesced_reads, 7u);
  // Service time: one dispatch window, one op charged.
  EXPECT_EQ(scheduler.stats().end_us, options.service.dispatch_overhead_us +
                                          options.service.op_cost_us);
  ExpectLedgerExact(scheduler.stats(), 8);
}

// With coalescing disabled the same traffic pays per-request.
TEST(SaturationTest, CoalescingOffServesEveryGetIndividually) {
  auto method = PrefilledMethod();
  Options options = UnitOptions();
  options.service.batch_max_ops = 8;
  options.service.coalesce_reads = false;
  RequestScheduler scheduler(method.get(), options);
  CounterSnapshot before = method->stats();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(scheduler.Submit(GetRequest(42)));
  }
  scheduler.RunUntilIdle();
  CounterSnapshot delta = method->stats() - before;
  EXPECT_EQ(delta.point_queries, 8u);
  EXPECT_EQ(scheduler.stats().coalesced_reads, 0u);
  EXPECT_EQ(scheduler.stats().end_us,
            options.service.dispatch_overhead_us +
                8 * options.service.op_cost_us);
}

// A request that expires in queue completes kDeadlineExceeded without the
// device ever seeing it, and costs the server nothing.
TEST(SaturationTest, ExpiredRequestsNeverTouchStorage) {
  auto method = PrefilledMethod();
  Options options = UnitOptions();
  options.service.batch_max_ops = 1;
  options.service.dispatch_overhead_us = 10;
  options.service.op_cost_us = 30;
  options.service.deadline_us = 50;
  RequestScheduler scheduler(method.get(), options);
  uint64_t expired = 0;
  scheduler.set_completion([&](const Request&, const RequestResult& r) {
    if (r.outcome == RequestOutcome::kDeadlineExceeded) {
      EXPECT_EQ(r.status.code(), Code::kDeadlineExceeded);
      ++expired;
    }
  });
  CounterSnapshot before = method->stats();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(scheduler.Submit(GetRequest(static_cast<Key>(i))));
  }
  scheduler.RunUntilIdle();
  CounterSnapshot delta = method->stats() - before;
  // Batches of one at 40us each: dispatches at t=0 and t=40 beat the 50us
  // deadline; the remaining three expire in queue.
  EXPECT_EQ(delta.point_queries, 2u);
  EXPECT_EQ(scheduler.stats().deadline_missed, 3u);
  EXPECT_EQ(expired, 3u);
  ExpectLedgerExact(scheduler.stats(), 5);
}

// Group commit batches runs of same-class requests; a class change closes
// the window.
TEST(SaturationTest, GroupCommitBatchesSameClassRuns) {
  auto method = PrefilledMethod();
  Options options = UnitOptions();
  RequestScheduler scheduler(method.get(), options);
  auto mutation = [](Key k) {
    Request req;
    req.op = RequestOp::kInsert;
    req.key = k;
    req.value = ValueFor(k);
    return req;
  };
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(scheduler.Submit(mutation(static_cast<Key>(9000 + i))));
  }
  ASSERT_TRUE(scheduler.Submit(GetRequest(1)));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(scheduler.Submit(mutation(static_cast<Key>(9100 + i))));
  }
  scheduler.RunUntilIdle();
  // Three windows: the insert run, the get, the second insert run.
  EXPECT_EQ(scheduler.stats().batches, 3u);
  EXPECT_EQ(scheduler.stats().batched_ops, 9u);
  ExpectLedgerExact(scheduler.stats(), 9);
}

// The front-door token bucket sheds before storage is touched and the shed
// lands in the ledger, with the expected kResourceExhausted status.
TEST(SaturationTest, RateGateShedsAtTheFrontDoor) {
  auto method = PrefilledMethod();
  Options options = UnitOptions();
  options.service.admission = true;
  options.service.rate_ops_per_sec = 1000;
  options.service.rate_burst_ops = 2;
  RequestScheduler scheduler(method.get(), options);
  uint64_t shed = 0;
  scheduler.set_completion([&](const Request&, const RequestResult& r) {
    if (r.outcome == RequestOutcome::kShed) {
      EXPECT_EQ(r.status.code(), Code::kResourceExhausted);
      ++shed;
    }
  });
  CounterSnapshot before = method->stats();
  // Five simultaneous arrivals against a bucket of two.
  for (int i = 0; i < 5; ++i) {
    scheduler.Submit(GetRequest(static_cast<Key>(i)));
  }
  scheduler.RunUntilIdle();
  CounterSnapshot delta = method->stats() - before;
  EXPECT_EQ(shed, 3u);
  EXPECT_EQ(scheduler.stats().shed_rate_gate, 3u);
  EXPECT_EQ(delta.point_queries, 2u);  // Shed requests never reached it.
  ExpectLedgerExact(scheduler.stats(), 5);
}

// --------------------------------------------- Closed-loop pass-through

void ExpectSnapshotsEqual(const CounterSnapshot& a, const CounterSnapshot& b) {
  EXPECT_EQ(a.bytes_read_base, b.bytes_read_base);
  EXPECT_EQ(a.bytes_read_aux, b.bytes_read_aux);
  EXPECT_EQ(a.bytes_written_base, b.bytes_written_base);
  EXPECT_EQ(a.bytes_written_aux, b.bytes_written_aux);
  EXPECT_EQ(a.blocks_read, b.blocks_read);
  EXPECT_EQ(a.blocks_written, b.blocks_written);
  EXPECT_EQ(a.space_base, b.space_base);
  EXPECT_EQ(a.space_aux, b.space_aux);
  EXPECT_EQ(a.logical_bytes_read, b.logical_bytes_read);
  EXPECT_EQ(a.logical_bytes_written, b.logical_bytes_written);
  EXPECT_EQ(a.point_queries, b.point_queries);
  EXPECT_EQ(a.range_queries, b.range_queries);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.retries, b.retries);
}

// Options::service.enabled installs a ScheduledMethod front door whose
// closed-loop path is pure pass-through: the inner method's RUM accounting
// and returned contents are byte-identical to the undecorated stack, and
// disabled options produce the undecorated stack itself.
TEST(SaturationTest, ClosedLoopServiceLayerIsByteIdenticalPassThrough) {
  Options direct_options = SmallOptions();
  Options service_options = SmallOptions();
  service_options.service.enabled = true;

  auto direct = MakeAccessMethod("btree", direct_options);
  auto fronted = MakeAccessMethod("btree", service_options);
  ASSERT_NE(direct, nullptr);
  ASSERT_NE(fronted, nullptr);
  // Disabled options return the bare method; enabled ones the decorator.
  EXPECT_EQ(dynamic_cast<ScheduledMethod*>(direct.get()), nullptr);
  auto* wrapper = dynamic_cast<ScheduledMethod*>(fronted.get());
  ASSERT_NE(wrapper, nullptr);
  EXPECT_EQ(fronted->name(), direct->name());

  WorkloadSpec spec = WorkloadSpec::Mixed(5000, 1 << 12);
  spec.seed = kSatSeed;
  Result<RumProfile> rd = WorkloadRunner::Run(direct.get(), spec);
  Result<RumProfile> rf = WorkloadRunner::Run(fronted.get(), spec);
  ASSERT_TRUE(rd.ok()) << rd.status().ToString();
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();

  ExpectSnapshotsEqual(rd.value().delta, rf.value().delta);
  ExpectSnapshotsEqual(direct->stats(), fronted->stats());
  ASSERT_EQ(direct->size(), fronted->size());
  for (Key k = 0; k < (1 << 12); k += 3) {
    Result<Value> a = direct->Get(k);
    Result<Value> b = fronted->Get(k);
    ASSERT_EQ(a.ok(), b.ok()) << "key " << k;
    if (a.ok()) {
      ASSERT_EQ(a.value(), b.value()) << "key " << k;
    }
  }

  // The wrapper kept full books while staying transparent. The extra Gets
  // above went through the front door too.
  ServiceStats stats = wrapper->service_stats();
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_TRUE(stats.LedgerHolds());
  EXPECT_GE(stats.submitted, spec.operations);
}

// Concurrent closed-loop traffic through the front door: four workers over
// a sharded inner with the service layer on. BulkLoad bypasses the front
// door as setup traffic, so the wrapper's ledger must account for exactly
// the phase's operations with no lost increments -- this is the
// configuration the TSan tier watches.
TEST(SaturationTest, ConcurrentClosedLoopKeepsExactBooks) {
  Options options = SmallOptions();
  options.service.enabled = true;
  options.sharded.shards = 4;
  auto method = MakeAccessMethod("sharded-btree", options);
  ASSERT_NE(method, nullptr);
  auto* wrapper = dynamic_cast<ScheduledMethod*>(method.get());
  ASSERT_NE(wrapper, nullptr);

  WorkloadSpec spec;
  spec.operations = 8000;
  spec.key_range = 1u << 12;
  spec.insert_fraction = 0.3;
  spec.update_fraction = 0.2;
  spec.delete_fraction = 0.1;
  spec.scan_fraction = 0;  // Scans cross partitions; see runner.h.
  spec.seed = kSatSeed;
  spec.concurrency = 4;
  Result<RumProfile> r = WorkloadRunner::LoadAndRun(method.get(), 1500, spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ServiceStats stats = wrapper->service_stats();
  EXPECT_EQ(stats.submitted, spec.operations);
  EXPECT_EQ(stats.completed, spec.operations);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_TRUE(stats.LedgerHolds());
  EXPECT_EQ(stats.total_us.count(), spec.operations);
}

// MultiGet batches through the closed-loop front door: every request of
// every batch is counted in the ledger, and the batched_reads /
// batch_size stats record one dispatch window per batch.
TEST(SaturationTest, ScheduledBatchesKeepTheLedgerExact) {
  auto method = MakeAccessMethod("btree", ServiceOptions());
  ASSERT_NE(method, nullptr);
  auto* wrapper = dynamic_cast<ScheduledMethod*>(method.get());
  ASSERT_NE(wrapper, nullptr);
  for (Key k = 0; k < 200; ++k) {
    ASSERT_TRUE(method->Insert(k, ValueFor(k)).ok());
  }

  std::vector<Key> keys;
  for (Key k = 0; k < 64; ++k) keys.push_back(k * 5);
  std::vector<std::optional<Value>> out;
  ASSERT_TRUE(method->MultiGet(keys, &out).ok());
  ASSERT_TRUE(method->MultiGet(keys, &out).ok());

  ServiceStats stats = wrapper->service_stats();
  ExpectLedgerExact(stats, 200u + 128u);
  EXPECT_EQ(stats.batched_reads, 2u);
  EXPECT_EQ(stats.batch_size.count(), 2u);
  EXPECT_EQ(stats.completed, 200u + 128u);
  // One dispatch window per batch: overhead amortized across 64 ops.
  EXPECT_EQ(stats.batches, 200u + 2u);
  EXPECT_EQ(stats.batched_ops, 200u + 128u);
}

}  // namespace
}  // namespace rum
