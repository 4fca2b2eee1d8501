// Chaos tier, device side: torn writes, the cache's crash semantics,
// eviction under write-back faults, retries, the runner's and scheduler's
// error modes, and deterministic replay of seeded fault storms. The
// method-level contract -- every factory method answers exactly or fails
// explicitly under faults and crashes -- runs on the model harness in
// differential_test; the one method-level case kept here compares two LSM
// twins (cross-run index on and off) under one storm. Fault decisions are
// pure functions of (seed, op class, attempt index), so every scenario here
// replays byte-identically.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "methods/factory.h"
#include "methods/lsm/lsm_tree.h"
#include "service/open_loop.h"
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

constexpr uint64_t kChaosSeed = 0xC4A05ULL;

/// One method's device stack for chaos runs. The cache is deliberately tiny
/// so evictions and write-backs keep crossing the faulty layer.
struct ChaosStack {
  RumCounters counters;
  BlockDevice base;
  FaultyDevice faulty;
  CachingDevice cache;

  explicit ChaosStack(size_t block_size = 512, size_t cache_pages = 8)
      : base(block_size, &counters),
        faulty(&base),
        cache(&faulty, cache_pages) {}
};

bool IsExplicitFailure(Code code) {
  return code == Code::kIOError || code == Code::kCorruption;
}

// ------------------------------------------------------------ Torn writes

TEST(ChaosTest, TornWritePoisonsPageUntilFullRewrite) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  std::vector<uint8_t> data(512, 0xAB);
  ASSERT_TRUE(device.Write(p, data).ok());

  // Every write faults and every fault tears.
  device.SetPlan(FaultPlan::Transient(kChaosSeed, 0.0)
                     .WithRate(FaultOp::kWrite, 1.0)
                     .WithTornWrites(1.0, 64));
  std::vector<uint8_t> update(512, 0xCD);
  EXPECT_EQ(device.Write(p, update).code(), Code::kIOError);
  EXPECT_TRUE(device.page_torn(p));
  EXPECT_EQ(device.torn_writes(), 1u);

  // The checksum model: a torn page reads as corruption, not as bytes.
  std::vector<uint8_t> out;
  Status s = device.Read(p, &out);
  EXPECT_EQ(s.code(), Code::kCorruption);
  EXPECT_NE(s.message().find("page=" + std::to_string(p)), std::string::npos);
  PageReadGuard guard;
  EXPECT_EQ(device.PinForRead(p, &guard).code(), Code::kCorruption);

  // A full successful rewrite restores the page.
  device.ClearFaults();
  ASSERT_TRUE(device.Write(p, update).ok());
  EXPECT_FALSE(device.page_torn(p));
  ASSERT_TRUE(device.Read(p, &out).ok());
  EXPECT_EQ(out, update);
}

TEST(ChaosTest, TornDirtyReleasePoisonsInPlace) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice device(&base);
  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  device.SetPlan(FaultPlan::Transient(kChaosSeed, 0.0)
                     .WithRate(FaultOp::kWrite, 1.0)
                     .WithTornWrites(1.0, 32));
  PageWriteGuard guard;
  ASSERT_TRUE(device.PinForWrite(p, &guard).ok());
  std::fill(guard.bytes().begin(), guard.bytes().end(), 0x11);
  guard.MarkDirty();
  EXPECT_EQ(guard.Release().code(), Code::kIOError);
  EXPECT_TRUE(device.page_torn(p));
  std::vector<uint8_t> out;
  EXPECT_EQ(device.Read(p, &out).code(), Code::kCorruption);
  // Reallocation hands the id back zeroed and clean.
  ASSERT_TRUE(device.Free(p).ok());
  device.ClearFaults();
  PageId q = testing_util::MustAllocate(device, DataClass::kBase);
  EXPECT_EQ(q, p);  // Recycled.
  EXPECT_FALSE(device.page_torn(q));
  EXPECT_TRUE(device.Read(q, &out).ok());
}

// ----------------------------------------------------------------- Crash

TEST(ChaosTest, CrashAbandonsOpenPinsWithoutDamage) {
  ChaosStack stack;
  PageId p = testing_util::MustAllocate(stack.cache, DataClass::kBase);
  std::vector<uint8_t> data(512, 0x42);
  ASSERT_TRUE(stack.cache.Write(p, data).ok());
  PageReadGuard read_guard;
  ASSERT_TRUE(stack.cache.PinForRead(p, &read_guard).ok());
  PageWriteGuard write_guard;
  ASSERT_TRUE(stack.cache.PinForWrite(p, &write_guard).ok());
  write_guard.MarkDirty();

  stack.cache.Crash();
  // Late releases of pre-crash guards are tolerated no-ops.
  read_guard.Release();
  EXPECT_TRUE(write_guard.Release().ok());
  EXPECT_EQ(stack.cache.pinned_pages(), 0u);
  EXPECT_EQ(stack.faulty.pinned_pages(), 0u);
}

// Dirty state that never reached the bottom is gone after a crash -- and
// that must be *visible* (stale pre-image), never a half-written block.
TEST(ChaosTest, CrashDropsUnflushedDirtyState) {
  ChaosStack stack;
  PageId p = testing_util::MustAllocate(stack.cache, DataClass::kBase);
  std::vector<uint8_t> v1(512, 0x01);
  ASSERT_TRUE(stack.cache.Write(p, v1).ok());
  ASSERT_TRUE(stack.cache.FlushAll().ok());
  std::vector<uint8_t> v2(512, 0x02);
  ASSERT_TRUE(stack.cache.Write(p, v2).ok());  // Dirty in cache only.

  stack.cache.Crash();
  std::vector<uint8_t> out;
  ASSERT_TRUE(stack.cache.Read(p, &out).ok());
  EXPECT_EQ(out, v1);  // The durable pre-image, exactly.
}

// ------------------------------------------------------- Eviction faults

// The cache must stay bounded under repeated write-back faults: once every
// resident page is dirty and unwritable, further inserts FAIL rather than
// grow the cache, and clearing the fault drains the backlog.
TEST(ChaosTest, CacheStaysBoundedUnderRepeatedWriteBackFaults) {
  constexpr size_t kCapacity = 4;
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice faulty(&base);
  CachingDevice cache(&faulty, kCapacity);
  std::vector<uint8_t> data(512, 0xEE);

  faulty.SetPlan(FaultPlan::Transient(kChaosSeed + 3, 0.0)
                     .WithRate(FaultOp::kWrite, 1.0));
  std::vector<PageId> cached, rejected;
  for (int i = 0; i < 32; ++i) {
    PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
    Status s = cache.Write(p, data);
    if (s.ok()) {
      cached.push_back(p);
    } else {
      EXPECT_EQ(s.code(), Code::kIOError) << s.ToString();
      rejected.push_back(p);
    }
    ASSERT_LE(cache.cached_pages(), kCapacity) << "cache grew unboundedly";
  }
  // The first kCapacity writes filled the cache; every later insert needed
  // an eviction, every eviction needed a write-back, and every write-back
  // faulted -- so exactly the rest were rejected.
  EXPECT_EQ(cached.size(), kCapacity);
  EXPECT_EQ(rejected.size(), 32u - kCapacity);
  EXPECT_EQ(cache.cached_pages(), kCapacity);
  EXPECT_GT(cache.write_back_failures(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Clearing the fault drains the dirty backlog and restores service.
  faulty.ClearFaults();
  ASSERT_TRUE(cache.FlushAll().ok());
  std::vector<uint8_t> out;
  for (PageId p : cached) {
    ASSERT_TRUE(base.Read(p, &out).ok());
    EXPECT_EQ(out, data);  // The retained dirty bytes, now durable.
  }
  PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
  EXPECT_TRUE(cache.Write(p, data).ok());  // Evictions work again.
}

// A single unwritable dirty victim -- or a pinned one -- must not wedge
// eviction while clean victims exist: the sweep skips it and keeps serving.
TEST(ChaosTest, UnwritableOrPinnedDirtyVictimDoesNotWedgeEviction) {
  constexpr size_t kCapacity = 4;
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice faulty(&base);
  CachingDevice cache(&faulty, kCapacity);

  std::vector<PageId> pages;
  std::vector<uint8_t> clean(512, 0x01);
  for (int i = 0; i < 12; ++i) {
    PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
    ASSERT_TRUE(cache.Write(p, clean).ok());
    pages.push_back(p);
  }
  ASSERT_TRUE(cache.FlushAll().ok());  // Everything durable and clean.

  // Dirty one resident page, then make every write-back fail.
  std::vector<uint8_t> dirty(512, 0xD1);
  ASSERT_TRUE(cache.Write(pages[0], dirty).ok());
  faulty.SetPlan(FaultPlan::Transient(kChaosSeed + 4, 0.0)
                     .WithRate(FaultOp::kWrite, 1.0));

  // Read-miss traffic across the other pages: each miss inserts a clean
  // entry, so eviction keeps finding clean victims past the stuck page.
  // Before the skip-and-continue sweep this wedged on the dirty LRU tail.
  std::vector<uint8_t> out;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 1; i < pages.size(); ++i) {
      ASSERT_TRUE(cache.Read(pages[i], &out).ok())
          << "round " << round << " page " << pages[i];
      ASSERT_LE(cache.cached_pages(), kCapacity);
    }
  }
  EXPECT_GT(cache.write_back_failures(), 0u);
  EXPECT_GT(cache.evictions(), 0u);  // Clean victims kept moving.

  // The stuck page still serves its unflushed contents from cache...
  ASSERT_TRUE(cache.Read(pages[0], &out).ok());
  EXPECT_EQ(out, dirty);
  // ...and a pinned page is likewise skipped, not spun on.
  PageWriteGuard guard;
  ASSERT_TRUE(cache.PinForWrite(pages[1], &guard).ok());
  std::fill(guard.bytes().begin(), guard.bytes().end(), 0x77);
  guard.MarkDirty();
  for (size_t i = 2; i < 8; ++i) {
    ASSERT_TRUE(cache.Read(pages[i], &out).ok());
  }
  ASSERT_TRUE(guard.Release().ok());  // Stays cached: release defers the
                                      // failed write-back, never loses it.

  // Fault gone: the whole backlog (stuck page + pinned mutation) flushes.
  faulty.ClearFaults();
  ASSERT_TRUE(cache.FlushAll().ok());
  ASSERT_TRUE(base.Read(pages[0], &out).ok());
  EXPECT_EQ(out, dirty);
  ASSERT_TRUE(base.Read(pages[1], &out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0x77));
}

// ----------------------------------------------------------------- Retry

TEST(ChaosTest, RetryingDeviceHealsTransientsAndChargesCounters) {
  RumCounters counters;
  BlockDevice base(512, &counters);
  FaultyDevice faulty(&base);
  Options options;
  options.storage.retry.max_attempts = 16;
  options.storage.retry.backoff_base_us = 10;
  RetryingDevice device(&faulty, options, &counters);

  faulty.SetPlan(FaultPlan::Transient(kChaosSeed, 0.0)
                     .WithRate(FaultOp::kRead, 0.5)
                     .WithRate(FaultOp::kWrite, 0.5)
                     .WithRate(FaultOp::kAllocate, 0.5));
  std::vector<uint8_t> data(512, 0x77);
  std::vector<uint8_t> out;
  uint64_t healed = 0;
  for (int i = 0; i < 50; ++i) {
    PageId p;
    ASSERT_TRUE(device.Allocate(DataClass::kBase, &p).ok());
    ASSERT_TRUE(device.Write(p, data).ok());
    ASSERT_TRUE(device.Read(p, &out).ok());
    EXPECT_EQ(out, data);
  }
  CounterSnapshot snap = counters.snapshot();
  healed = snap.retries;
  EXPECT_GT(snap.io_errors, 0u);
  EXPECT_GT(snap.retries, 0u);
  EXPECT_GE(snap.io_errors, snap.retries);  // Every retry follows an error.
  EXPECT_GT(device.simulated_backoff_us(), 0u);

  // kCorruption is never retried: a torn page stays corrupt.
  PageId p;
  faulty.ClearFaults();
  ASSERT_TRUE(device.Allocate(DataClass::kBase, &p).ok());
  faulty.SetPlan(FaultPlan::Transient(kChaosSeed, 0.0)
                     .WithRate(FaultOp::kWrite, 1.0)
                     .WithTornWrites(1.0, 16));
  EXPECT_FALSE(device.Write(p, data).ok());
  ASSERT_TRUE(faulty.page_torn(p));
  uint64_t retries_before = counters.snapshot().retries;
  EXPECT_EQ(device.Read(p, &out).code(), Code::kCorruption);
  EXPECT_EQ(counters.snapshot().retries, retries_before);  // No retry.
  EXPECT_GT(healed, 0u);
}

// Retry accounting replays exactly: two identical stacks under the same
// seeded plan charge identical io_errors/retries/backoff, io_errors equals
// the faults the faulty layer injected, and io_errors - retries equals the
// operations that ultimately failed with kIOError.
TEST(ChaosTest, RetryAccountingMatchesDeterministicReplay) {
  auto run_once = [](CounterSnapshot* snap, uint64_t* injected,
                     uint64_t* backoff, uint64_t* failed_ops) {
    RumCounters counters;
    BlockDevice base(512, &counters);
    FaultyDevice faulty(&base);
    Options options;
    options.storage.retry.max_attempts = 3;
    options.storage.retry.backoff_base_us = 7;
    RetryingDevice device(&faulty, options, &counters);

    std::vector<PageId> pages;
    for (int i = 0; i < 30; ++i) {
      pages.push_back(testing_util::MustAllocate(device, DataClass::kBase));
    }
    faulty.SetPlan(FaultPlan::Transient(kChaosSeed + 11, 0.0)
                       .WithRate(FaultOp::kRead, 0.45)
                       .WithRate(FaultOp::kWrite, 0.45));
    std::vector<uint8_t> data(512, 0x21);
    std::vector<uint8_t> out;
    *failed_ops = 0;
    for (PageId p : pages) {
      // A real retry budget (3 attempts) that never heals surfaces as the
      // terminal kUnavailable, not the per-attempt kIOError.
      Status w = device.Write(p, data);
      if (!w.ok()) {
        EXPECT_EQ(w.code(), Code::kUnavailable) << w.ToString();
        ++*failed_ops;
      }
      Status r = device.Read(p, &out);
      if (!r.ok()) {
        EXPECT_EQ(r.code(), Code::kUnavailable) << r.ToString();
        ++*failed_ops;
      }
    }
    *snap = counters.snapshot();
    *injected = faulty.faults_injected();
    *backoff = device.simulated_backoff_us();
  };

  CounterSnapshot s1, s2;
  uint64_t inj1 = 0, inj2 = 0, bo1 = 0, bo2 = 0, fail1 = 0, fail2 = 0;
  run_once(&s1, &inj1, &bo1, &fail1);
  run_once(&s2, &inj2, &bo2, &fail2);

  EXPECT_GT(s1.retries, 0u);
  EXPECT_GT(fail1, 0u);
  EXPECT_EQ(s1.io_errors, s2.io_errors);
  EXPECT_EQ(s1.retries, s2.retries);
  EXPECT_EQ(inj1, inj2);
  EXPECT_EQ(bo1, bo2);
  EXPECT_EQ(fail1, fail2);
  // The ledger closes: every injected fault is one io_errors tick, and the
  // ticks not covered by a retry are exactly the ops that surfaced failure.
  EXPECT_EQ(s1.io_errors, inj1);
  EXPECT_EQ(s1.io_errors - s1.retries, fail1);
}

// ----------------------------------------------------- Runner error modes

WorkloadSpec ChaosSpec(ErrorMode mode) {
  WorkloadSpec spec;
  spec.operations = 600;
  spec.key_range = 1 << 10;
  spec.insert_fraction = 0.4;
  spec.update_fraction = 0.1;
  spec.delete_fraction = 0.1;
  spec.scan_fraction = 0.05;
  spec.seed = kChaosSeed;
  spec.error_mode = mode;
  return spec;
}

FaultPlan RunnerPlan() {
  return FaultPlan::Transient(kChaosSeed + 7, 0.0)
      .WithRate(FaultOp::kRead, 0.05)
      .WithRate(FaultOp::kWrite, 0.05)
      .WithRate(FaultOp::kAllocate, 0.05);
}

TEST(ChaosTest, RunnerAbortModeSurfacesTheFault) {
  ChaosStack stack;
  auto method = MakeAccessMethod("btree", SmallOptions(), &stack.cache);
  ASSERT_NE(method, nullptr);
  stack.faulty.SetPlan(RunnerPlan());
  Result<RumProfile> r =
      WorkloadRunner::Run(method.get(), ChaosSpec(ErrorMode::kAbort));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsExplicitFailure(r.code())) << r.status().ToString();
}

TEST(ChaosTest, RunnerSkipAndCountAbsorbsAndTallies) {
  ChaosStack stack;
  auto method = MakeAccessMethod("btree", SmallOptions(), &stack.cache);
  ASSERT_NE(method, nullptr);
  stack.faulty.SetPlan(RunnerPlan());
  Result<RumProfile> r =
      WorkloadRunner::Run(method.get(), ChaosSpec(ErrorMode::kSkipAndCount));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().worker_errors.size(), 1u);
  EXPECT_GT(r.value().errors().failed(), 0u);
  EXPECT_EQ(r.value().errors().degraded_skips, 0u);
}

TEST(ChaosTest, RunnerDegradeModeStopsMutatingAfterFirstError) {
  ChaosStack stack;
  auto method = MakeAccessMethod("btree", SmallOptions(), &stack.cache);
  ASSERT_NE(method, nullptr);
  stack.faulty.SetPlan(RunnerPlan());
  Result<RumProfile> r =
      WorkloadRunner::Run(method.get(), ChaosSpec(ErrorMode::kDegrade));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ErrorTally tally = r.value().errors();
  EXPECT_GT(tally.failed(), 0u);
  EXPECT_GT(tally.degraded_skips, 0u);
}

// ---------------------------------------------------- Deterministic replay

// The whole point of seeded fault draws: two identical stacks running the
// same serial workload under the same plan inject identical faults, absorb
// identical errors, and end with byte-identical RUM traffic -- the
// lazy-leveling and hybrid merge schedules (multi-run merges, bottom-level
// normalization, run relocation) included.
TEST(ChaosTest, SameSeedReplaysIdenticalErrorTallies) {
  for (std::string_view name : {"btree", "lsm-lazy", "lsm-hybrid"}) {
    auto run_once = [&](ErrorTally* tally, std::string* counters,
                        std::array<uint64_t, kFaultOpCount>* injected) {
      ChaosStack stack;
      auto method = MakeAccessMethod(name, SmallOptions(), &stack.cache);
      ASSERT_NE(method, nullptr) << name;
      stack.faulty.SetPlan(RunnerPlan());
      Result<RumProfile> r = WorkloadRunner::Run(
          method.get(), ChaosSpec(ErrorMode::kSkipAndCount));
      ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      *tally = r.value().errors();
      *counters = stack.counters.snapshot().ToString();
      for (size_t i = 0; i < kFaultOpCount; ++i) {
        (*injected)[i] = stack.faulty.faults_injected(static_cast<FaultOp>(i));
      }
    };

    ErrorTally t1, t2;
    std::string c1, c2;
    std::array<uint64_t, kFaultOpCount> i1{}, i2{};
    run_once(&t1, &c1, &i1);
    run_once(&t2, &c2, &i2);

    EXPECT_GT(t1.failed(), 0u) << name;
    EXPECT_EQ(t1.io_errors, t2.io_errors) << name;
    EXPECT_EQ(t1.corruption, t2.corruption) << name;
    EXPECT_EQ(t1.other, t2.other) << name;
    EXPECT_EQ(i1, i2) << name;
    EXPECT_EQ(c1, c2) << name;
  }
}

// ------------------------------------------------------------- Concurrency

// Sharded methods over ONE shared faulty stack under concurrent chaos: the
// run must complete with no crash, no race (TSan tier), and absorbed errors
// in the tallies; after the plan clears, every probe answers exactly or
// explicitly.
TEST(ChaosTest, ConcurrentShardedChaosOverSharedStack) {
  ChaosStack stack(512, 16);
  Options options = SmallOptions();
  auto method =
      MakeAccessMethod("sharded-btree", options, &stack.cache);
  ASSERT_NE(method, nullptr);

  stack.faulty.SetPlan(FaultPlan::Transient(kChaosSeed + 9, 0.0)
                           .WithRate(FaultOp::kRead, 0.02)
                           .WithRate(FaultOp::kWrite, 0.02));
  WorkloadSpec spec = ChaosSpec(ErrorMode::kSkipAndCount);
  spec.concurrency = 4;
  spec.scan_fraction = 0;  // Scans cross shards; keep workers disjoint.
  Result<RumProfile> r = WorkloadRunner::Run(method.get(), spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().worker_errors.size(), 4u);

  stack.faulty.ClearFaults();
  for (Key k = 0; k < 256; ++k) {
    Result<Value> probe = method->Get(k);
    EXPECT_TRUE(probe.ok() || probe.code() == Code::kNotFound ||
                IsExplicitFailure(probe.code()))
        << "key " << k << ": " << probe.status().ToString();
  }
}

// ------------------------------------------------------- Cross-run index

// Index-on and index-off twins driven over separate-but-identical faulty
// stacks with the SAME seed and Write/Allocate-only fault rates. The two
// trees issue identical write traffic (the index changes only reads), so
// the deterministic fault plans make every compaction fail -- or survive --
// identically in both. After the plan clears, the index's incremental
// invalidation must have tracked every partially-failed compaction: scans
// from both twins must be byte-identical, and must agree with point Gets.
TEST(ChaosTest, CrossRunIndexSurvivesCompactionFaults) {
  auto options_for = [](bool cross_run_index) {
    Options options = SmallOptions();
    options.lsm.policy = LsmPolicy::kTiered;
    options.lsm.cross_run_index = cross_run_index;
    options.lsm.cross_run_segment_entries = 32;
    return options;
  };
  ChaosStack on_stack, off_stack;
  LsmTree indexed(options_for(true), &on_stack.cache);
  LsmTree fallback(options_for(false), &off_stack.cache);

  // No read faults: reads are the one place the twins' traffic differs,
  // and a read fault would desynchronize the deterministic plans.
  FaultPlan plan = FaultPlan::Transient(kChaosSeed + 11, 0.0)
                       .WithRate(FaultOp::kWrite, 0.05)
                       .WithRate(FaultOp::kAllocate, 0.05);
  on_stack.faulty.SetPlan(plan);
  off_stack.faulty.SetPlan(plan);

  Rng rng(kChaosSeed + 11);
  const Key kRange = 1u << 11;
  uint64_t failed = 0;
  for (int i = 0; i < 1500; ++i) {
    Key key = rng.NextBelow(kRange);
    uint64_t dice = rng.NextBelow(100);
    Status s_on, s_off;
    if (dice < 70) {
      Value v = rng.Next();
      s_on = indexed.Insert(key, v);
      s_off = fallback.Insert(key, v);
    } else {
      s_on = indexed.Delete(key);
      s_off = fallback.Delete(key);
    }
    ASSERT_EQ(s_on.code(), s_off.code())
        << "op " << i << ": twins diverged (on=" << s_on.ToString()
        << ", off=" << s_off.ToString() << ")";
    ASSERT_TRUE(s_on.ok() || IsExplicitFailure(s_on.code()))
        << "op " << i << ": " << s_on.ToString();
    failed += !s_on.ok();
  }
  EXPECT_GT(failed, 0u) << "the storm never landed";

  on_stack.faulty.ClearFaults();
  off_stack.faulty.ClearFaults();

  // A failed op may be partially applied (a Delete whose flush failed still
  // holds its tombstone), so there is no exact external oracle. What does
  // hold: the twins issued identical write traffic, so their scans must be
  // byte-identical, and each tree's scans must agree with its point Gets.
  Rng probe(kChaosSeed + 12);
  for (int i = 0; i < 40; ++i) {
    Key lo = probe.NextBelow(kRange);
    Key hi = lo + probe.NextBelow(256);
    std::vector<Entry> a, b;
    ASSERT_TRUE(indexed.Scan(lo, hi, &a).ok()) << i;
    ASSERT_TRUE(fallback.Scan(lo, hi, &b).ok()) << i;
    ASSERT_EQ(a.size(), b.size()) << "scan [" << lo << ", " << hi << "]";
    for (size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j].key, b[j].key) << j;
      ASSERT_EQ(a[j].value, b[j].value) << j;
    }
    for (const Entry& e : a) {
      Result<Value> got = indexed.Get(e.key);
      ASSERT_TRUE(got.ok()) << "scan returned key " << e.key
                            << " but Get says " << got.status().ToString();
      ASSERT_EQ(got.value(), e.value) << e.key;
    }
  }
}

// ------------------------------------------- Fault storms through the
// service layer

/// Open-loop chaos run: the RunnerPlan fault storm underneath a scheduler
/// driving Poisson arrivals. Returns the full report for ledger and replay
/// assertions.
ServiceReport ServeThroughStorm(ErrorMode mode) {
  ChaosStack stack;
  auto method = MakeAccessMethod("btree", SmallOptions(), &stack.cache);
  EXPECT_NE(method, nullptr);
  stack.faulty.SetPlan(RunnerPlan());
  Options options = SmallOptions();
  options.service.enabled = true;
  options.service.queue_capacity = 64;
  WorkloadSpec spec = ChaosSpec(mode);
  spec.arrival = ArrivalProcess::kPoisson;
  spec.offered_ops_per_sec = 100000;
  Result<ServiceReport> r = RunOpenLoop(method.get(), spec, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value() : ServiceReport{};
}

// A fault storm under open-loop arrivals keeps the two chaos guarantees:
// every submitted request resolves to exactly one ledger bucket (no request
// is lost to an error path), and every method failure the scheduler
// absorbed is an explicit, tallied Status -- the same exact-or-explicit
// contract the closed-loop tiers pin.
TEST(ChaosTest, SchedulerFaultStormKeepsLedgerExactAndTalliesExplicitly) {
  ServiceReport report = ServeThroughStorm(ErrorMode::kSkipAndCount);
  const ServiceStats& s = report.stats;
  EXPECT_EQ(s.submitted, 600u);
  EXPECT_EQ(s.submitted, s.completed + s.deadline_missed + s.shed);
  EXPECT_TRUE(s.LedgerHolds());
  // The storm landed: failures were absorbed, counted, and match between
  // the scheduler's books and the workload tally.
  EXPECT_GT(s.failed, 0u);
  EXPECT_EQ(s.failed, report.errors.failed());
  EXPECT_EQ(s.degraded_skips, 0u);
}

// Degraded service inside the scheduler: after the first non-benign
// failure, mutations complete as degraded skips without touching storage,
// and the skips appear in both the ServiceStats ledger and the ErrorTally.
TEST(ChaosTest, SchedulerDegradeModeWithholdsMutationsAfterFirstError) {
  ServiceReport report = ServeThroughStorm(ErrorMode::kDegrade);
  EXPECT_TRUE(report.stats.LedgerHolds());
  EXPECT_GT(report.stats.failed, 0u);
  EXPECT_GT(report.stats.degraded_skips, 0u);
  EXPECT_EQ(report.stats.degraded_skips, report.errors.degraded_skips);
}

// Same seed, same storm, same arrivals: the whole report -- ledger,
// latency summaries, error tally, RUM delta -- replays byte-for-byte.
TEST(ChaosTest, SchedulerFaultStormReplaysByteIdentically) {
  ServiceReport a = ServeThroughStorm(ErrorMode::kSkipAndCount);
  ServiceReport b = ServeThroughStorm(ErrorMode::kSkipAndCount);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

// Closed-loop differential under the same storm: the service front door
// (Options::service.enabled through the factory) must not change what the
// workload observes -- identical error tallies, identical injected-fault
// counts, byte-identical physical traffic.
TEST(ChaosTest, ServiceFrontDoorIsTransparentUnderFaultStorm) {
  auto run_once = [](bool service_enabled, ErrorTally* tally,
                     CounterSnapshot* snap) {
    ChaosStack stack;
    Options options = SmallOptions();
    options.service.enabled = service_enabled;
    auto method = MakeAccessMethod("btree", options, &stack.cache);
    ASSERT_NE(method, nullptr);
    stack.faulty.SetPlan(RunnerPlan());
    Result<RumProfile> r = WorkloadRunner::Run(
        method.get(), ChaosSpec(ErrorMode::kSkipAndCount));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    *tally = r.value().errors();
    *snap = stack.counters.snapshot();
  };

  ErrorTally direct, fronted;
  CounterSnapshot sd, sf;
  run_once(false, &direct, &sd);
  run_once(true, &fronted, &sf);

  EXPECT_GT(direct.failed(), 0u);
  EXPECT_EQ(direct.io_errors, fronted.io_errors);
  EXPECT_EQ(direct.corruption, fronted.corruption);
  EXPECT_EQ(direct.other, fronted.other);
  EXPECT_EQ(direct.shed, fronted.shed);
  EXPECT_EQ(sd.blocks_read, sf.blocks_read);
  EXPECT_EQ(sd.blocks_written, sf.blocks_written);
  EXPECT_EQ(sd.bytes_read_base, sf.bytes_read_base);
  EXPECT_EQ(sd.bytes_written_base, sf.bytes_written_base);
  EXPECT_EQ(sd.io_errors, sf.io_errors);
}

}  // namespace
}  // namespace rum
