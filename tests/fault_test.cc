// Fault-injection tests: an I/O error injected by a FaultyDevice must
// propagate as a Status through every layer -- cache, heaps, and every
// access method -- without crashes or silent corruption.
#include <utility>

#include <gtest/gtest.h>

#include "methods/btree/btree.h"
#include "methods/column/sorted_column.h"
#include "methods/factory.h"
#include "methods/lsm/lsm_tree.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "storage/faulty_device.h"
#include "storage/heap_file.h"
#include "storage/page_format.h"
#include "storage/retry_device.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"

namespace rum {
namespace {

using testing_util::MustAllocate;
using testing_util::SmallOptions;

TEST(FaultTest, DeviceFailsAfterBudget) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  PageId p = MustAllocate(device, DataClass::kBase);
  std::vector<uint8_t> data(512, 1);
  device.InjectFailureAfter(2);
  EXPECT_TRUE(device.Write(p, data).ok());
  std::vector<uint8_t> out;
  EXPECT_TRUE(device.Read(p, &out).ok());
  EXPECT_TRUE(device.fault_active());
  EXPECT_EQ(device.Read(p, &out).code(), Code::kIOError);
  EXPECT_EQ(device.Write(p, data).code(), Code::kIOError);
  device.ClearFaults();
  EXPECT_TRUE(device.Read(p, &out).ok());
}

TEST(FaultTest, FaultyIoIsNotCharged) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  PageId p = MustAllocate(device, DataClass::kBase);
  device.InjectFailureAfter(0);
  std::vector<uint8_t> out;
  EXPECT_FALSE(device.Read(p, &out).ok());
  EXPECT_EQ(counters.snapshot().blocks_read, 0u);
}

TEST(FaultTest, ReadPinConsumesBudgetExactlyOncePerAccess) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  PageId p = MustAllocate(device, DataClass::kBase);
  std::vector<uint8_t> data(512, 1);
  ASSERT_TRUE(device.Write(p, data).ok());
  device.InjectFailureAfter(1);
  {
    PageReadGuard guard;
    ASSERT_TRUE(device.PinForRead(p, &guard).ok());  // Consumes the budget.
  }
  uint64_t reads_before = counters.snapshot().blocks_read;
  PageReadGuard guard;
  EXPECT_EQ(device.PinForRead(p, &guard).code(), Code::kIOError);
  EXPECT_FALSE(guard.valid());
  // The failed pin charged nothing and left nothing pinned.
  EXPECT_EQ(counters.snapshot().blocks_read, reads_before);
  EXPECT_EQ(device.pinned_pages(), 0u);
  device.ClearFaults();
}

TEST(FaultTest, DirtyUnpinFaultIsUnchargedAndGuardGoesInert) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  PageId p = MustAllocate(device, DataClass::kBase);
  PageWriteGuard guard;
  ASSERT_TRUE(device.PinForWrite(p, &guard).ok());  // No budget consumed.
  std::fill(guard.bytes().begin(), guard.bytes().end(), 0x77);
  guard.MarkDirty();
  device.InjectFailureAfter(0);
  uint64_t writes_before = counters.snapshot().blocks_written;
  EXPECT_EQ(guard.Release().code(), Code::kIOError);
  EXPECT_EQ(counters.snapshot().blocks_written, writes_before);
  EXPECT_EQ(device.pinned_pages(), 0u);
  // The guard is inert after the failed release: releasing again is a
  // no-op, not a double unpin.
  EXPECT_TRUE(guard.Release().ok());
  EXPECT_FALSE(guard.valid());
  device.ClearFaults();
  // The page stays writable once the fault clears.
  PageWriteGuard retry;
  ASSERT_TRUE(device.PinForWrite(p, &retry).ok());
  std::fill(retry.bytes().begin(), retry.bytes().end(), 0x78);
  retry.MarkDirty();
  EXPECT_TRUE(retry.Release().ok());
}

TEST(FaultTest, CleanWritePinConsumesNoBudget) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  PageId p = MustAllocate(device, DataClass::kBase);
  std::vector<uint8_t> data(512, 1);
  ASSERT_TRUE(device.Write(p, data).ok());
  device.InjectFailureAfter(1);
  {
    // Neither the write pin nor its clean release touches the budget.
    PageWriteGuard guard;
    ASSERT_TRUE(device.PinForWrite(p, &guard).ok());
    ASSERT_TRUE(guard.Release().ok());
  }
  std::vector<uint8_t> out;
  EXPECT_TRUE(device.Read(p, &out).ok());  // Budget spent here...
  EXPECT_EQ(device.Read(p, &out).code(), Code::kIOError);  // ...not before.
  device.ClearFaults();
}

TEST(FaultTest, CachePinMissPropagatesBaseFault) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  CachingDevice cache(&device, /*capacity_pages=*/4);
  PageId p = MustAllocate(cache, DataClass::kBase);
  std::vector<uint8_t> data(512, 1);
  ASSERT_TRUE(device.Write(p, data).ok());
  device.InjectFailureAfter(0);
  PageReadGuard guard;
  EXPECT_EQ(cache.PinForRead(p, &guard).code(), Code::kIOError);
  EXPECT_EQ(cache.cached_pages(), 0u);  // Nothing half-inserted.
  EXPECT_EQ(cache.pinned_pages(), 0u);
  device.ClearFaults();
  ASSERT_TRUE(cache.PinForRead(p, &guard).ok());
  EXPECT_EQ(guard.bytes()[0], 1);
}

TEST(FaultTest, HeapFilePropagates) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  HeapFile heap(&device, DataClass::kBase, &counters);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap.Append(Entry{i, i}).ok());
  }
  device.InjectFailureAfter(0);
  EXPECT_EQ(heap.At(0).code(), Code::kIOError);
  EXPECT_EQ(heap.Set(0, Entry{0, 1}).code(), Code::kIOError);
  device.ClearFaults();
  EXPECT_TRUE(heap.At(0).ok());
}

TEST(FaultTest, BTreePropagatesAndRecovers) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  Options options = SmallOptions();
  BTree tree(options, &device);
  std::vector<Entry> entries = MakeSortedEntries(2000);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());

  device.InjectFailureAfter(0);
  EXPECT_EQ(tree.Get(100).code(), Code::kIOError);
  std::vector<Entry> out;
  EXPECT_EQ(tree.Scan(0, 100, &out).code(), Code::kIOError);

  device.ClearFaults();
  EXPECT_EQ(tree.Get(100).value(), ValueFor(100));
}

TEST(FaultTest, LsmReadPathPropagates) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  Options options = SmallOptions();
  options.lsm.bloom_bits_per_key = 0;  // Force page reads.
  LsmTree tree(options, &device);
  for (Key k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree.Insert(k, k).ok());
  }
  ASSERT_TRUE(tree.Flush().ok());
  device.InjectFailureAfter(0);
  EXPECT_EQ(tree.Get(500).code(), Code::kIOError);
  device.ClearFaults();
  EXPECT_TRUE(tree.Get(500).ok());
}

// A Scan's run cursors each hold a read pin across calls. Failing the
// scan's k-th charged I/O, for every k until the Scan succeeds, must return
// the injected error and leave no page pinned at either rung, with the
// cross-run index on (segment build, then positioning) and off.
TEST(FaultTest, FailedLsmScanReleasesEveryPin) {
  for (bool index : {false, true}) {
    SCOPED_TRACE(testing::Message() << "cross_run_index=" << index);
    RumCounters counters;
    BlockDevice base(512, &counters);
    FaultyDevice device(&base);
    Options options = SmallOptions();
    options.lsm.policy = LsmPolicy::kTiered;
    options.lsm.compress_runs = true;
    options.lsm.cross_run_index = index;
    LsmTree tree(options, &device);
    // Shuffled keys, so every run spans the key domain.
    std::vector<Key> keys;
    for (Key k = 0; k < 2000; k += 2) keys.push_back(k);
    Rng rng(3);
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.NextBelow(i)]);
    }
    for (Key k : keys) ASSERT_TRUE(tree.Insert(k, ValueFor(k)).ok());
    ASSERT_TRUE(tree.Flush().ok());
    ASSERT_GT(tree.total_runs(), 1u);
    std::vector<Entry> rows;
    Status s;
    uint64_t k = 0;
    for (;; ++k) {
      device.InjectFailureAfter(k);
      rows.clear();
      s = tree.Scan(500, 1500, &rows);
      EXPECT_EQ(device.pinned_pages(), 0u) << k;
      EXPECT_EQ(base.pinned_pages(), 0u) << k;
      if (s.ok()) break;
      ASSERT_EQ(s.code(), Code::kIOError) << k << " " << s.ToString();
    }
    EXPECT_GT(k, tree.total_runs());  // At least one pin per run failed.
    device.ClearFaults();
    ASSERT_EQ(rows.size(), 501u);
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].key, 500 + 2 * i);
    }
  }
}

TEST(FaultTest, MidBulkLoadFailureSurfaces) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  Options options = SmallOptions();
  SortedColumn column(options, &device);
  std::vector<Entry> entries = MakeSortedEntries(5000);
  device.InjectFailureAfter(10);
  Status s = column.BulkLoad(entries);
  EXPECT_EQ(s.code(), Code::kIOError);
}

// A hash bulk load that fails part-way keeps the slots it wrote, so its
// entry count must cover exactly those: a count left at 0 wraps around on
// the next Delete of a loaded key.
TEST(FaultTest, FailedHashBulkLoadCountsTheKeysItWrote) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  auto hash = MakeAccessMethod("hash", SmallOptions(), &device);
  std::vector<Entry> entries = MakeSortedEntries(500);
  device.InjectFailureAfter(60);  // Past the directory build.
  ASSERT_EQ(hash->BulkLoad(entries).code(), Code::kIOError);
  device.ClearFaults();
  size_t found = 0;
  for (const Entry& e : entries) found += hash->Get(e.key).ok() ? 1 : 0;
  EXPECT_GT(found, 0u);
  EXPECT_EQ(hash->size(), found);
}

TEST(FaultTest, InjectedErrorsCarryDeviceContext) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  PageId p = MustAllocate(device, DataClass::kBase);
  device.InjectFailureAfter(0);
  std::vector<uint8_t> out;
  Status s = device.Read(p, &out);
  ASSERT_EQ(s.code(), Code::kIOError);
  EXPECT_NE(s.message().find("op=Read"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("page=" + std::to_string(p)), std::string::npos)
      << s.ToString();
}

// A page header whose entry count disagrees with the block -- more entries
// than it can hold, or fewer than an always-full page (a hash directory
// page, a sealed heap page) carries -- must surface as kCorruption from Get
// and Scan alike, never as a read past the block or past the decoded page,
// as a decode buffer sized by the bad count (compressed run pages), nor as
// a Scan that silently drops the page's rows.
TEST(FaultTest, CorruptPageCountIsCorruptionNotOverread) {
  const std::pair<std::string_view, uint64_t> cases[] = {
      {"sorted-column", ~uint64_t{0}}, {"zonemap", ~uint64_t{0}},
      {"hash", 0},
      {"lsm-compressed", ~uint64_t{0}},
      {"lsm-compressed", uint64_t{1} << 40}};
  for (const auto& [name, count] : cases) {
    RumCounters counters;
    BlockDevice device(512, &counters);
    Options options = SmallOptions();
    auto method = MakeAccessMethod(name, options, &device);
    ASSERT_NE(method, nullptr) << name;
    ASSERT_TRUE(method->BulkLoad(MakeSortedEntries(200)).ok()) << name;
    ASSERT_TRUE(method->Flush().ok()) << name;
    size_t corrupted = 0;
    for (PageId p = 0; corrupted < device.live_pages(); ++p) {
      std::vector<uint8_t>* bytes = device.mutable_page_unaccounted(p);
      if (bytes == nullptr) continue;
      EncodeU64(count, bytes->data());
      ++corrupted;
    }
    ASSERT_GT(corrupted, 1u) << name;
    for (Key k : {Key{0}, Key{57}, Key{199}}) {
      EXPECT_EQ(method->Get(k).code(), Code::kCorruption) << name << " " << k;
    }
    std::vector<Entry> rows;
    EXPECT_EQ(method->Scan(0, 199, &rows).code(), Code::kCorruption) << name;
  }
}

// ------------------------------------------------------ Retry exhaustion

// An exhausted real retry budget surfaces the terminal kUnavailable
// carrying the attempt count and total simulated backoff, while a
// fail-fast (1-attempt) device keeps the raw kIOError and never retries.
TEST(FaultTest, ExhaustedRetryBudgetIsUnavailableWhileFailFastKeepsIoError) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice faulty(&base);
  Options options;
  options.storage.retry.max_attempts = 4;
  options.storage.retry.backoff_base_us = 5;
  RetryingDevice device(&faulty, options, &counters);
  RetryingDevice fail_fast(&faulty, Options(), &counters);

  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  std::vector<uint8_t> data(512, 0x5a);
  ASSERT_TRUE(device.Write(p, data).ok());

  // Permanent read outage: the budget (4 attempts) is consumed and the
  // failure surfaces as kUnavailable with the budget attached.
  faulty.SetPlan(FaultPlan::Transient(1234, 0.0).WithRate(FaultOp::kRead, 1.0));
  std::vector<uint8_t> out;
  Status r = device.Read(p, &out);
  EXPECT_EQ(r.code(), Code::kUnavailable) << r.ToString();
  EXPECT_NE(r.message().find("4 attempts"), std::string::npos) << r.ToString();
  // Backoff 5us doubling across 3 re-attempts: 5 + 10 + 20.
  EXPECT_EQ(device.simulated_backoff_us(), 35u);
  CounterSnapshot snap = counters.snapshot();
  EXPECT_EQ(snap.io_errors, 4u);
  EXPECT_EQ(snap.retries, 3u);

  // One attempt, raw kIOError (a 1-attempt policy never upgrades to
  // kUnavailable), no new retries.
  faulty.SetPlan(FaultPlan::Transient(1234, 0.0).WithRate(FaultOp::kWrite, 1.0));
  Status w = fail_fast.Write(p, data);
  EXPECT_EQ(w.code(), Code::kIOError) << w.ToString();
  EXPECT_EQ(counters.snapshot().retries, 3u);
  EXPECT_EQ(fail_fast.simulated_backoff_us(), 0u);
  EXPECT_EQ(device.simulated_backoff_us(), 35u);
}

}  // namespace
}  // namespace rum
