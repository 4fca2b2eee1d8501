// The paper's thesis as executable properties: no access method reaches
// the theoretical optimum on all three RUM overheads at once, and each
// extreme structure that does reach one optimum pays on the others.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "methods/factory.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"
#include "workload/runner.h"

namespace rum {
namespace {

using testing_util::AllMethodNames;
using testing_util::MethodParamName;
using testing_util::SmallOptions;

// Tolerance for "reached the theoretical optimum of 1.0". Block slack and
// structural headers mean even frugal methods sit a little above 1.0.
constexpr double kNearOptimal = 1.10;

class RumConjectureTest : public ::testing::TestWithParam<std::string> {};

// The conjecture, measured: run a mixed workload (so all three overheads
// are exercised) and require that at least one overhead stays clearly away
// from its optimum.
TEST_P(RumConjectureTest, NoMethodIsOptimalOnAllThreeOverheads) {
  Options options = SmallOptions();
  std::unique_ptr<AccessMethod> method =
      MakeAccessMethod(GetParam(), options);
  ASSERT_NE(method, nullptr);

  // Load then run a mixed read/write workload over a skewed key space.
  WorkloadSpec spec = WorkloadSpec::Mixed(8000, 1u << 13);
  spec.distribution = KeyDistribution::kZipfian;
  Result<RumProfile> profile =
      WorkloadRunner::LoadAndRun(method.get(), 6000, spec);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();

  RumPoint p = profile.value().point;
  SCOPED_TRACE(p.ToString());
  double worst =
      std::max({p.read_overhead, p.update_overhead, p.memory_overhead});
  EXPECT_GT(worst, kNearOptimal)
      << GetParam()
      << " appears optimal on all three overheads at once, refuting the "
         "RUM Conjecture (or the accounting)";
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, RumConjectureTest,
    ::testing::ValuesIn(AllMethodNames()), MethodParamName);

// Proposition 1: optimal reads imply non-optimal space (and a 2x write for
// the paper's value-change operation, tested in methods_test).
TEST(RumPropositionsTest, ReadOptimalImpliesSpacePenalty) {
  Options options = SmallOptions();
  auto method = MakeAccessMethod("magic-array", options);
  WorkloadSpec spec = WorkloadSpec::ReadOnly(2000, 1u << 12);
  Result<RumProfile> profile =
      WorkloadRunner::LoadAndRun(method.get(), 4096, spec);
  ASSERT_TRUE(profile.ok());
  EXPECT_LE(profile.value().point.read_overhead, kNearOptimal);
  EXPECT_GT(profile.value().point.memory_overhead, 5.0);
}

// Proposition 2: optimal updates imply non-optimal reads and space.
TEST(RumPropositionsTest, WriteOptimalImpliesReadAndSpacePenalty) {
  Options options = SmallOptions();
  auto method = MakeAccessMethod("pure-log", options);
  // Updates first (all appends), then reads over the bloated log.
  WorkloadSpec writes = WorkloadSpec::WriteOnly(4000, 1u << 10);
  Result<RumProfile> wp =
      WorkloadRunner::LoadAndRun(method.get(), 1024, writes);
  ASSERT_TRUE(wp.ok());
  EXPECT_LE(wp.value().point.update_overhead, kNearOptimal);

  method->ResetStats();
  WorkloadSpec reads = WorkloadSpec::ReadOnly(200, 1u << 10);
  Result<RumProfile> rp = WorkloadRunner::Run(method.get(), reads);
  ASSERT_TRUE(rp.ok());
  EXPECT_GT(rp.value().point.read_overhead, 100.0);
  EXPECT_GT(rp.value().point.memory_overhead, 2.0);
}

// Proposition 3: optimal space implies linear reads (and in-place writes).
TEST(RumPropositionsTest, SpaceOptimalImpliesLinearReads) {
  Options options = SmallOptions();
  auto method = MakeAccessMethod("dense-array", options);
  WorkloadSpec spec = WorkloadSpec::ReadOnly(300, 1u << 12);
  Result<RumProfile> profile =
      WorkloadRunner::LoadAndRun(method.get(), 4096, spec);
  ASSERT_TRUE(profile.ok());
  EXPECT_LE(profile.value().point.memory_overhead, 1.0 + 1e-9);
  // Reading one entry costs ~N/2 entry reads: RO ~ 2048.
  EXPECT_GT(profile.value().point.read_overhead, 500.0);
}

// The design space is populated: the three practical families land in
// three different triangle regions under the same workload.
TEST(RumSpaceTest, FamiliesOccupyDistinctRegions) {
  Options options = SmallOptions();
  auto measure = [&](const char* name) {
    auto method = MakeAccessMethod(name, options);
    WorkloadSpec spec = WorkloadSpec::Mixed(8000, 1u << 13);
    Result<RumProfile> profile =
        WorkloadRunner::LoadAndRun(method.get(), 6000, spec);
    EXPECT_TRUE(profile.ok());
    return profile.value().point;
  };
  RumPoint btree = measure("btree");
  RumPoint lsm = measure("lsm-tiered");
  RumPoint zonemap = measure("zonemap");

  // Reads: the B-tree beats the zone map. Writes: the LSM beats the
  // B-tree. Space: the zone map beats the skiplist-backed LSM.
  EXPECT_LT(btree.read_overhead, zonemap.read_overhead);
  EXPECT_LT(lsm.update_overhead, btree.update_overhead);
  EXPECT_LT(zonemap.memory_overhead, lsm.memory_overhead);
}

}  // namespace
}  // namespace rum
