// Tests for the workload framework: RNG determinism, key distributions,
// spec mixes and the spec check, the runner's profile accounting, and the
// closed-loop runner and the open loop charging one ledger for one spec.
#include <unordered_map>

#include <gtest/gtest.h>

#include "methods/factory.h"
#include "service/open_loop.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace rum {
namespace {

using testing_util::SmallOptions;

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t av = a.Next();
    EXPECT_EQ(av, b.Next());
    (void)c;
  }
  Rng d(43);
  EXPECT_NE(Rng(42).Next(), d.Next());
}

TEST(RngTest, NextBelowInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> buckets(10, 0);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NextBelow(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (int count : buckets) {
    EXPECT_GT(count, 700);
    EXPECT_LT(count, 1300);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(KeyGeneratorTest, UniformCoversRange) {
  KeyGenerator gen(KeyDistribution::kUniform, 1000, 5);
  std::vector<bool> seen(1000, false);
  for (int i = 0; i < 20000; ++i) {
    Key k = gen.Next();
    ASSERT_LT(k, 1000u);
    seen[k] = true;
  }
  size_t covered = 0;
  for (bool s : seen) covered += s ? 1 : 0;
  EXPECT_GT(covered, 950u);
}

TEST(KeyGeneratorTest, ZipfianIsSkewed) {
  KeyGenerator gen(KeyDistribution::kZipfian, 100000, 5, 0.99);
  std::unordered_map<Key, int> counts;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[gen.Next()];
  }
  // The hottest key should take a noticeable share; uniform would give
  // ~0.5 hits per key.
  int hottest = 0;
  for (const auto& [k, c] : counts) hottest = std::max(hottest, c);
  EXPECT_GT(hottest, kDraws / 100);
  // And far fewer distinct keys than draws.
  EXPECT_LT(counts.size(), static_cast<size_t>(kDraws) / 2);
}

TEST(KeyGeneratorTest, SequentialWraps) {
  KeyGenerator gen(KeyDistribution::kSequential, 5, 1);
  for (Key expect : {0, 1, 2, 3, 4, 0, 1}) {
    EXPECT_EQ(gen.Next(), expect);
  }
}

TEST(KeyGeneratorTest, ClusteredStaysInRange) {
  KeyGenerator gen(KeyDistribution::kClustered, 10000, 3);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_LT(gen.Next(), 10000u);
  }
}

TEST(MakeSortedEntriesTest, StrideAndValues) {
  std::vector<Entry> entries = MakeSortedEntries(5, 10, 3);
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries[0].key, 10u);
  EXPECT_EQ(entries[4].key, 22u);
  for (const Entry& e : entries) {
    EXPECT_EQ(e.value, ValueFor(e.key));
  }
}

TEST(WorkloadSpecTest, CannedMixesSumSanely) {
  for (const WorkloadSpec& spec :
       {WorkloadSpec::ReadOnly(10, 10), WorkloadSpec::WriteOnly(10, 10),
        WorkloadSpec::ReadMostly(10, 10), WorkloadSpec::Mixed(10, 10),
        WorkloadSpec::ScanHeavy(10, 10)}) {
    double total = spec.insert_fraction + spec.update_fraction +
                   spec.delete_fraction + spec.scan_fraction;
    EXPECT_GE(total, 0.0);
    EXPECT_LE(total, 1.0);
    EXPECT_FALSE(spec.ToString().empty());
  }
}

// ValidateSpec: the runner and the open loop refuse an invalid spec before
// running an op.
// Without the check a zero key range divides by zero in a Release build
// (KeyGenerator's assert is compiled out), and bad fractions silently run a
// different mix.
WorkloadSpec BadFractions(double insert, double scan) {
  WorkloadSpec spec = WorkloadSpec::Mixed(1000, 1u << 10);
  spec.update_fraction = 0;
  spec.delete_fraction = 0;
  spec.insert_fraction = insert;
  spec.scan_fraction = scan;
  return spec;
}

Code RunnerCode(const WorkloadSpec& spec) {
  auto method = MakeAccessMethod("btree", SmallOptions());
  return WorkloadRunner::Run(method.get(), spec).code();
}

Code OpenLoopCode(WorkloadSpec spec) {
  spec.arrival = ArrivalProcess::kPoisson;
  spec.offered_ops_per_sec = 1000;
  auto method = MakeAccessMethod("btree", SmallOptions());
  return RunOpenLoop(method.get(), spec, SmallOptions()).code();
}

TEST(ValidateSpecTest, RunnerRejectsAnEmptyKeyRange) {
  EXPECT_EQ(RunnerCode(WorkloadSpec::Mixed(10, 0)), Code::kInvalidArgument);
}

TEST(ValidateSpecTest, RunnerRejectsFractionsSummingAboveOne) {
  EXPECT_EQ(RunnerCode(BadFractions(0.9, 0.5)), Code::kInvalidArgument);
}

TEST(ValidateSpecTest, RunnerRejectsANegativeFraction) {
  EXPECT_EQ(RunnerCode(BadFractions(-0.5, 0)), Code::kInvalidArgument);
}

TEST(ValidateSpecTest, RunnerRejectsAnOpenLoopArrivalProcess) {
  WorkloadSpec spec = WorkloadSpec::Mixed(1000, 1u << 10);
  spec.arrival = ArrivalProcess::kPoisson;
  spec.offered_ops_per_sec = 1000;
  EXPECT_EQ(RunnerCode(spec), Code::kInvalidArgument);
}

TEST(ValidateSpecTest, OpenLoopRejectsFractionsSummingAboveOne) {
  EXPECT_EQ(OpenLoopCode(BadFractions(0.9, 0.5)), Code::kInvalidArgument);
}

TEST(ValidateSpecTest, OpenLoopRejectsANegativeFraction) {
  EXPECT_EQ(OpenLoopCode(BadFractions(-0.5, 0)), Code::kInvalidArgument);
}

TEST(WorkloadRunnerTest, ProfilesCountOperations) {
  Options options = SmallOptions();
  auto method = MakeAccessMethod("btree", options);
  WorkloadSpec spec = WorkloadSpec::Mixed(2000, 1u << 12);
  Result<RumProfile> profile =
      WorkloadRunner::LoadAndRun(method.get(), 4000, spec);
  ASSERT_TRUE(profile.ok());
  const CounterSnapshot& delta = profile.value().delta;
  uint64_t total_ops = delta.point_queries + delta.range_queries +
                       delta.inserts + delta.updates + delta.deletes;
  EXPECT_EQ(total_ops, 2000u);
  // The mix has all operation kinds.
  EXPECT_GT(delta.point_queries, 0u);
  EXPECT_GT(delta.inserts, 0u);
  EXPECT_GT(delta.updates, 0u);
  EXPECT_GT(delta.deletes, 0u);
  EXPECT_GT(delta.range_queries, 0u);
  EXPECT_GT(profile.value().bytes_read_per_op(), 0.0);
}

TEST(WorkloadRunnerTest, ReadOnlyPhaseWritesNothing) {
  Options options = SmallOptions();
  auto method = MakeAccessMethod("sorted-column", options);
  WorkloadSpec spec = WorkloadSpec::ReadOnly(500, 1u << 10);
  Result<RumProfile> profile =
      WorkloadRunner::LoadAndRun(method.get(), 1024, spec);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile.value().delta.total_bytes_written(), 0u);
  EXPECT_GT(profile.value().delta.total_bytes_read(), 0u);
}

TEST(CostPercentilesTest, OrderStatisticsFromSamples) {
  std::vector<uint64_t> samples;
  for (uint64_t i = 1; i <= 100; ++i) samples.push_back(i);
  CostPercentiles p = CostPercentiles::From(samples);
  EXPECT_EQ(p.p50, 51u);
  EXPECT_EQ(p.p95, 96u);
  EXPECT_EQ(p.p99, 100u);
  EXPECT_EQ(p.max, 100u);
  EXPECT_EQ(CostPercentiles::From({}).max, 0u);
}

TEST(WorkloadRunnerTest, TailCostsExposeCompactionSpikes) {
  // An LSM's median insert touches only the memtable; its p99/max insert
  // carries a flush or compaction. The percentiles must show that gap.
  Options options = SmallOptions();
  auto method = MakeAccessMethod("lsm-leveled", options);
  WorkloadSpec spec = WorkloadSpec::WriteOnly(5000, 1u << 13);
  Result<RumProfile> profile = WorkloadRunner::Run(method.get(), spec);
  ASSERT_TRUE(profile.ok());
  const CostPercentiles& w = profile.value().write_cost;
  EXPECT_LT(w.p50, 200u);          // Memtable-only writes.
  EXPECT_GT(w.max, 50u * w.p50 + 1);  // Compaction spike dwarfs the median.
}

TEST(WorkloadRunnerTest, DeterministicAcrossRuns) {
  Options options = SmallOptions();
  auto a = MakeAccessMethod("lsm-leveled", options);
  auto b = MakeAccessMethod("lsm-leveled", options);
  WorkloadSpec spec = WorkloadSpec::Mixed(3000, 1u << 12);
  Result<RumProfile> pa = WorkloadRunner::LoadAndRun(a.get(), 2000, spec);
  Result<RumProfile> pb = WorkloadRunner::LoadAndRun(b.get(), 2000, spec);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_EQ(pa.value().delta.total_bytes_read(),
            pb.value().delta.total_bytes_read());
  EXPECT_EQ(pa.value().delta.total_bytes_written(),
            pb.value().delta.total_bytes_written());
}

// One spec, two paths, one ledger: the closed-loop runner and the open
// loop draw the same op stream and run it through the same executor. With
// one request per dispatch window and arrivals far slower than service, the
// scheduler runs the ops in stream order, so two fresh methods end in the
// same state having charged the same traffic.
TEST(SharedOpPathTest, RunnerAndOpenLoopChargeOneLedger) {
  for (const char* name :
       {"btree", "lsm-leveled", "hash", "sharded-lsm-leveled"}) {
    SCOPED_TRACE(name);
    Options options;
    options.service.admission = false;
    options.service.queue_capacity = 1u << 20;
    options.service.batch_max_ops = 1;
    WorkloadSpec spec = WorkloadSpec::Mixed(5000, 1u << 14);
    spec.seed = 7;

    auto closed = MakeAccessMethod(name, options);
    Result<RumProfile> profile = WorkloadRunner::Run(closed.get(), spec);
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();

    auto open = MakeAccessMethod(name, options);
    spec.arrival = ArrivalProcess::kPoisson;
    spec.offered_ops_per_sec = 1000;
    Result<ServiceReport> report = RunOpenLoop(open.get(), spec, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    const CounterSnapshot& a = profile.value().delta;
    const CounterSnapshot& b = report.value().rum;
    EXPECT_GT(a.total_bytes_read(), 0u);
    EXPECT_EQ(a.total_bytes_read(), b.total_bytes_read());
    EXPECT_EQ(a.total_bytes_written(), b.total_bytes_written());
    EXPECT_EQ(a.point_queries, b.point_queries);
    EXPECT_EQ(a.range_queries, b.range_queries);
    EXPECT_EQ(a.inserts, b.inserts);
    EXPECT_EQ(a.updates, b.updates);
    EXPECT_EQ(a.deletes, b.deletes);

    std::vector<Entry> closed_rows;
    std::vector<Entry> open_rows;
    ASSERT_TRUE(closed->Scan(0, kMaxKey, &closed_rows).ok());
    ASSERT_TRUE(open->Scan(0, kMaxKey, &open_rows).ok());
    EXPECT_FALSE(closed_rows.empty());
    EXPECT_EQ(closed_rows, open_rows);
  }
}

}  // namespace
}  // namespace rum
