// Contract edge cases: every access method must behave exactly like the
// reference model on empty structures, bulk loads, ordered inserts, mass
// deletes and the ends of the key domain. Random op streams run on the model
// harness in differential_test.
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/access_method.h"
#include "core/counters.h"
#include "methods/factory.h"
#include "storage/block_device.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"

namespace rum {
namespace {

using testing_util::AllMethodNames;
using testing_util::GetMatchesReference;
using testing_util::MethodParamName;
using testing_util::ReferenceModel;
using testing_util::ScanMatchesReference;
using testing_util::SmallOptions;

class MethodContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    method_ = MakeAccessMethod(GetParam(), SmallOptions());
    ASSERT_NE(method_, nullptr) << "unknown method " << GetParam();
  }

  std::unique_ptr<AccessMethod> method_;
  ReferenceModel reference_;

  void CheckGet(Key key) {
    ASSERT_TRUE(GetMatchesReference(method_.get(), reference_, key));
  }

  void CheckScan(Key lo, Key hi) {
    ASSERT_TRUE(ScanMatchesReference(method_.get(), reference_, lo, hi));
  }
};

TEST_P(MethodContractTest, NameIsTheFactoryName) {
  EXPECT_EQ(method_->name(), GetParam());
}

TEST_P(MethodContractTest, EmptyStructure) {
  EXPECT_EQ(method_->size(), 0u);
  Result<Value> got = method_->Get(123);
  EXPECT_TRUE(got.status().IsNotFound());
  std::vector<Entry> scan;
  EXPECT_TRUE(method_->Scan(0, 1000, &scan).ok());
  EXPECT_TRUE(scan.empty());
  // Deleting from empty is OK (idempotent).
  EXPECT_TRUE(method_->Delete(7).ok());
}

TEST_P(MethodContractTest, ScanRejectsInvertedRange) {
  std::vector<Entry> scan;
  EXPECT_EQ(method_->Scan(10, 5, &scan).code(), Code::kInvalidArgument);
}

TEST_P(MethodContractTest, BulkLoadAndPointQueries) {
  const size_t kN = 3000;
  std::vector<Entry> entries = MakeSortedEntries(kN, /*first=*/5,
                                                 /*stride=*/7);
  ASSERT_TRUE(method_->BulkLoad(entries).ok());
  for (const Entry& e : entries) {
    reference_.Insert(e.key, e.value);
  }
  EXPECT_EQ(method_->size(), kN);
  // Every loaded key, plus misses between the strides.
  for (size_t i = 0; i < kN; i += 17) {
    CheckGet(entries[i].key);
    CheckGet(entries[i].key + 1);  // Never a multiple of the stride + 5.
  }
  CheckGet(0);
  CheckGet(entries.back().key + 7);
}

TEST_P(MethodContractTest, BulkLoadRejectsUnsortedInput) {
  // A rejected load leaves nothing behind: no entries, no charge.
  std::vector<Entry> bad = {{10, 1}, {5, 2}};
  EXPECT_EQ(method_->BulkLoad(bad).code(), Code::kInvalidArgument);
  EXPECT_EQ(method_->size(), 0u);
  EXPECT_EQ(method_->stats().logical_bytes_written, 0u);
  std::vector<Entry> dup = {{10, 1}, {10, 2}};
  EXPECT_EQ(method_->BulkLoad(dup).code(), Code::kInvalidArgument);
  EXPECT_EQ(method_->size(), 0u);
  EXPECT_EQ(method_->stats().logical_bytes_written, 0u);
  // So a valid load is still accepted.
  std::vector<Entry> good = {{5, 2}, {10, 1}};
  ASSERT_TRUE(method_->BulkLoad(good).ok());
  EXPECT_EQ(method_->size(), 2u);
  reference_.Insert(5, 2);
  reference_.Insert(10, 1);
  CheckGet(5);
  CheckGet(10);
}

TEST_P(MethodContractTest, BulkLoadRejectsNonEmptyTarget) {
  ASSERT_TRUE(method_->Insert(1, 1).ok());
  std::vector<Entry> entries = MakeSortedEntries(10);
  EXPECT_EQ(method_->BulkLoad(entries).code(), Code::kInvalidArgument);
}

TEST_P(MethodContractTest, BulkLoadThenScans) {
  const size_t kN = 2000;
  std::vector<Entry> entries = MakeSortedEntries(kN, 0, 3);
  ASSERT_TRUE(method_->BulkLoad(entries).ok());
  for (const Entry& e : entries) reference_.Insert(e.key, e.value);
  CheckScan(0, 50);
  CheckScan(100, 400);
  CheckScan(entries.back().key - 10, entries.back().key + 100);
  CheckScan(0, entries.back().key);
  CheckScan(7000, 7000);  // Empty interior range (stride gap).
}

TEST_P(MethodContractTest, InsertIsUpsert) {
  ASSERT_TRUE(method_->Insert(42, 1).ok());
  ASSERT_TRUE(method_->Insert(42, 2).ok());
  EXPECT_EQ(method_->size(), 1u);
  Result<Value> got = method_->Get(42);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 2u);
}

TEST_P(MethodContractTest, DeleteThenReinsert) {
  ASSERT_TRUE(method_->Insert(7, 70).ok());
  ASSERT_TRUE(method_->Delete(7).ok());
  EXPECT_TRUE(method_->Get(7).status().IsNotFound());
  EXPECT_EQ(method_->size(), 0u);
  ASSERT_TRUE(method_->Insert(7, 71).ok());
  Result<Value> got = method_->Get(7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 71u);
}

TEST_P(MethodContractTest, SequentialInsertThenFullScan) {
  // Ascending inserts stress split-at-tail paths.
  for (Key k = 0; k < 2000; ++k) {
    ASSERT_TRUE(method_->Insert(k, ValueFor(k)).ok());
    reference_.Insert(k, ValueFor(k));
  }
  CheckScan(0, 2000);
  EXPECT_EQ(method_->size(), 2000u);
}

TEST_P(MethodContractTest, DescendingInsertThenFullScan) {
  for (Key k = 2000; k-- > 0;) {
    ASSERT_TRUE(method_->Insert(k, ValueFor(k)).ok());
    reference_.Insert(k, ValueFor(k));
  }
  CheckScan(0, 2000);
}

TEST_P(MethodContractTest, MassDeleteToEmpty) {
  const size_t kN = 1500;
  std::vector<Entry> entries = MakeSortedEntries(kN, 0, 2);
  ASSERT_TRUE(method_->BulkLoad(entries).ok());
  for (const Entry& e : entries) reference_.Insert(e.key, e.value);
  // Delete in a scattered order.
  Rng rng(0xDEAD);
  std::vector<Key> keys;
  keys.reserve(kN);
  for (const Entry& e : entries) keys.push_back(e.key);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBelow(i)]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(method_->Delete(keys[i]).ok()) << "delete " << keys[i];
    reference_.Delete(keys[i]);
    if (i % 250 == 0) {
      ASSERT_EQ(method_->size(), reference_.size()) << "after " << i;
    }
  }
  EXPECT_EQ(method_->size(), 0u);
  CheckScan(0, 4 * kN);
}

TEST_P(MethodContractTest, BoundaryKeysRoundTrip) {
  // The extreme ends of the key domain stress shift arithmetic, sentinel
  // handling, and +1/-1 range math. Methods with a bounded domain (the
  // direct-address array) may reject out-of-domain keys with kOutOfRange;
  // everything they accept must behave exactly.
  const Key kBoundary[] = {0, 1, 2, kMaxKey - 2, kMaxKey - 1, kMaxKey};
  std::set<Key> rejected;
  for (Key k : kBoundary) {
    Status s = method_->Insert(k, ValueFor(k));
    if (s.code() == Code::kOutOfRange) {
      rejected.insert(k);
      continue;
    }
    ASSERT_TRUE(s.ok()) << method_->name() << " key " << k;
    reference_.Insert(k, ValueFor(k));
  }
  for (Key k : kBoundary) {
    if (rejected.count(k) != 0) {
      // Out-of-domain keys must keep failing consistently.
      EXPECT_FALSE(method_->Get(k).ok());
      continue;
    }
    CheckGet(k);
  }
  CheckScan(0, 2);
  CheckScan(kMaxKey - 2, kMaxKey);
  CheckScan(0, kMaxKey);
  // Delete the edges and verify.
  for (Key k : {Key{0}, kMaxKey}) {
    Status s = method_->Delete(k);
    if (s.code() == Code::kOutOfRange) continue;
    ASSERT_TRUE(s.ok());
    reference_.Delete(k);
  }
  CheckScan(0, kMaxKey);
}

TEST_P(MethodContractTest, StatsAreSane) {
  const size_t kN = 1000;
  std::vector<Entry> entries = MakeSortedEntries(kN);
  ASSERT_TRUE(method_->BulkLoad(entries).ok());
  ASSERT_TRUE(method_->Flush().ok());
  method_->ResetStats();
  for (Key k = 0; k < kN; k += 3) {
    ASSERT_TRUE(method_->Get(k).ok());
  }
  CounterSnapshot snap = method_->stats();
  EXPECT_GT(snap.total_bytes_read(), 0u) << method_->name();
  EXPECT_GT(snap.logical_bytes_read, 0u);
  // Read amplification can never be below 1: you must at least read what
  // you return.
  EXPECT_GE(snap.read_amplification(), 1.0) << method_->name();
  // Space: something is resident, and base data is accounted.
  EXPECT_GT(snap.total_space(), 0u) << method_->name();
  EXPECT_GT(snap.space_base, 0u) << method_->name();
  EXPECT_GE(snap.space_amplification(), 1.0) << method_->name();
  // Point queries were counted.
  EXPECT_EQ(snap.point_queries, (kN + 2) / 3);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodContractTest,
    ::testing::ValuesIn(AllMethodNames()), MethodParamName);

// The factory's device contract: every method with pages stores them on the
// device it is given. The in-memory methods have no pages; pbt keeps each
// partition tree on a private device, because a merge retires whole trees
// and a BTree cannot free its pages back to a shared device.
TEST(FactoryDeviceTest, DeviceBackedMethodsStoreOnTheGivenDevice) {
  const std::set<std::string_view> kNoDevice = {
      "skiplist", "trie",        "cracking",         "magic-array",
      "pure-log", "dense-array", "sharded-skiplist", "pbt"};
  for (std::string_view name : AllAccessMethodNames()) {
    Options options = SmallOptions();
    RumCounters counters;
    BlockDevice device(options.block_size, &counters);
    std::unique_ptr<AccessMethod> method =
        MakeAccessMethod(name, options, &device);
    ASSERT_NE(method, nullptr) << name;
    for (Key k = 0; k < 600; ++k) {
      ASSERT_TRUE(method->Insert(k, k + 1).ok()) << name;
    }
    ASSERT_TRUE(method->Flush().ok()) << name;
    EXPECT_EQ(device.live_pages() > 0, !kNoDevice.contains(name))
        << name << " left " << device.live_pages() << " pages on the device";
  }
}

}  // namespace
}  // namespace rum
