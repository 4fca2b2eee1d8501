// Cross-cutting accounting invariants, checked for every access method:
// amplifications never dip below their physical floors, phase deltas are
// internally consistent, and every run replays bit-identically.
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

class StatsInvariantsTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<AccessMethod> Make() {
    return MakeAccessMethod(GetParam(), SmallOptions());
  }
};

TEST_P(StatsInvariantsTest, WriteAmplificationHasUnitFloor) {
  // Every logical write must be physically written at least once, at some
  // granularity -- UO < 1 would mean bytes vanished.
  auto method = Make();
  ASSERT_NE(method, nullptr);
  WorkloadSpec spec = WorkloadSpec::WriteOnly(3000, 1u << 12);
  Result<RumProfile> profile = WorkloadRunner::Run(method.get(), spec);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_GE(profile.value().delta.write_amplification(), 0.999)
      << GetParam();
}

TEST_P(StatsInvariantsTest, ReadAmplificationHasUnitFloor) {
  auto method = Make();
  ASSERT_NE(method, nullptr);
  std::vector<Entry> entries = MakeSortedEntries(3000);
  ASSERT_TRUE(method->BulkLoad(entries).ok());
  ASSERT_TRUE(method->Flush().ok());
  method->ResetStats();
  WorkloadSpec spec = WorkloadSpec::ReadOnly(1500, 3000);
  Result<RumProfile> profile = WorkloadRunner::Run(method.get(), spec);
  ASSERT_TRUE(profile.ok());
  // What you return, you must have read.
  EXPECT_GE(profile.value().delta.read_amplification(), 0.999)
      << GetParam();
  // And a read-only phase writes nothing... except structures that adapt
  // on reads (cracking reorganizes; hot-cold promotes). For everyone
  // else, zero.
  if (GetParam() != "cracking" && GetParam() != "hot-cold") {
    EXPECT_EQ(profile.value().delta.total_bytes_written(), 0u)
        << GetParam();
  }
}

TEST_P(StatsInvariantsTest, SpaceAtLeastCoversLiveEntries) {
  auto method = Make();
  ASSERT_NE(method, nullptr);
  std::vector<Entry> entries = MakeSortedEntries(2000);
  ASSERT_TRUE(method->BulkLoad(entries).ok());
  ASSERT_TRUE(method->Flush().ok());
  CounterSnapshot snap = method->stats();
  if (GetParam() == "lsm-compressed") {
    // Compression is the one legitimate way below the 16-bytes-per-entry
    // floor (the paper's §5 computation-for-size trade).
    EXPECT_GT(snap.total_space(), 0u);
    EXPECT_LT(snap.total_space(), 2000u * kEntrySize);
  } else {
    EXPECT_GE(snap.total_space(), 2000u * kEntrySize) << GetParam();
    EXPECT_GE(snap.space_amplification(), 0.999) << GetParam();
  }
}

TEST_P(StatsInvariantsTest, IdenticalRunsProduceIdenticalCounters) {
  WorkloadSpec spec = WorkloadSpec::Mixed(2500, 1u << 11);
  spec.distribution = KeyDistribution::kZipfian;
  auto a = Make();
  auto b = Make();
  ASSERT_NE(a, nullptr);
  Result<RumProfile> pa = WorkloadRunner::LoadAndRun(a.get(), 1500, spec);
  Result<RumProfile> pb = WorkloadRunner::LoadAndRun(b.get(), 1500, spec);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  const CounterSnapshot& da = pa.value().delta;
  const CounterSnapshot& db = pb.value().delta;
  EXPECT_EQ(da.bytes_read_base, db.bytes_read_base) << GetParam();
  EXPECT_EQ(da.bytes_read_aux, db.bytes_read_aux) << GetParam();
  EXPECT_EQ(da.bytes_written_base, db.bytes_written_base) << GetParam();
  EXPECT_EQ(da.bytes_written_aux, db.bytes_written_aux) << GetParam();
  EXPECT_EQ(da.space_base, db.space_base) << GetParam();
  EXPECT_EQ(da.space_aux, db.space_aux) << GetParam();
  EXPECT_EQ(da.logical_bytes_read, db.logical_bytes_read) << GetParam();
}

TEST_P(StatsInvariantsTest, ResetClearsTrafficKeepsSpace) {
  auto method = Make();
  ASSERT_NE(method, nullptr);
  std::vector<Entry> entries = MakeSortedEntries(1000);
  ASSERT_TRUE(method->BulkLoad(entries).ok());
  ASSERT_TRUE(method->Flush().ok());
  uint64_t space = method->stats().total_space();
  method->ResetStats();
  CounterSnapshot snap = method->stats();
  EXPECT_EQ(snap.total_bytes_read(), 0u) << GetParam();
  EXPECT_EQ(snap.total_bytes_written(), 0u) << GetParam();
  EXPECT_EQ(snap.total_space(), space) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, StatsInvariantsTest,
    ::testing::ValuesIn(AllMethodNames()), MethodParamName);

}  // namespace
}  // namespace rum
