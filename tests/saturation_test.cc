// Saturation and admission-control tests for the service layer
// (src/service/): open-loop overload behavior, the request-conservation
// ledger, scheduler mechanisms (group commit, read coalescing, deadlines),
// and option validation.
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
#include "service/scheduler.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"
#include "workload/spec.h"

namespace rum {
namespace {

using testing_util::SmallOptions;

constexpr uint64_t kSatSeed = 0x5A70ULL;

/// Service options with the cost model pinned explicitly, so capacity and
/// every latency assertion below are stable against default changes.
Options ServiceOptions() {
  Options options = SmallOptions();
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
  EXPECT_EQ(s.shed, s.shed_queue_full + s.shed_codel);
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

Request GetRequest(Key key) {
  Request req;
  req.op = RequestOp::kGet;
  req.key = key;
  return req;
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

// A burst of distinct Gets at one arrival drains as group-commit windows of
// batch_max_ops, each served by one MultiGet: every request lands in the
// ledger, and batched_reads / batch_size record one dispatch per window.
TEST(SaturationTest, ScheduledBatchesKeepTheLedgerExact) {
  auto method = MakeAccessMethod("btree", SmallOptions());
  ASSERT_NE(method, nullptr);
  for (Key k = 0; k < 200; ++k) {
    ASSERT_TRUE(method->Insert(k, ValueFor(k)).ok());
  }
  Options options = UnitOptions();
  options.service.batch_max_ops = 16;
  RequestScheduler scheduler(method.get(), options);
  uint64_t hits = 0;
  scheduler.set_completion([&](const Request& rq, const RequestResult& r) {
    EXPECT_EQ(r.outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(r.found, rq.key < 200) << rq.key;
    if (r.found) {
      EXPECT_EQ(r.value, ValueFor(rq.key));
      ++hits;
    }
  });
  for (Key k = 0; k < 64; ++k) {
    ASSERT_TRUE(scheduler.Submit(GetRequest(k * 5)));
  }
  scheduler.RunUntilIdle();

  const ServiceStats& stats = scheduler.stats();
  ExpectLedgerExact(stats, 64);
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(hits, 40u);
  // Four windows of 16, each one MultiGet: the dispatch overhead is
  // amortized across the window.
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.batched_ops, 64u);
  EXPECT_EQ(stats.batched_reads, 4u);
  EXPECT_EQ(stats.batch_size.count(), 4u);
}

// RunOpenLoop validates its options: with batch_max_ops 0 every dispatch
// would pop nothing and the drain would never finish.
TEST(SaturationTest, OpenLoopRejectsInvalidOptions) {
  auto method = PrefilledMethod();
  Options options = ServiceOptions();
  options.service.batch_max_ops = 0;
  Result<ServiceReport> r =
      RunOpenLoop(method.get(), SaturationSpec(100, 10000), options);
  ASSERT_EQ(r.status().code(), Code::kInvalidArgument);
  EXPECT_NE(r.status().message().find("batch_max_ops"), std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace rum
