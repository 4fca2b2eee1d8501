// Concurrency test tier: N threads hammer a ShardedMethod over disjoint and
// overlapping key ranges, results are verified against a mutex-guarded
// std::map oracle at quiescence, and merged counter snapshots must satisfy
// the same stats invariants stats_invariants_test.cc checks serially.
// This tier is the one that must pass under ThreadSanitizer (see ci.sh).
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/access_method.h"
#include "methods/btree/btree.h"
#include "methods/factory.h"
#include "methods/sharded/sharded_method.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "storage/faulty_device.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"
#include "workload/runner.h"

namespace rum {
namespace {

using testing_util::ConcurrentReferenceModel;
using testing_util::GetMatchesReference;
using testing_util::MethodParamName;
using testing_util::ScanMatchesReference;
using testing_util::SmallOptions;

constexpr int kThreads = 4;

class ConcurrencyTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<AccessMethod> MakeSharded() {
    auto method =
        MakeAccessMethod("sharded-" + GetParam(), SmallOptions());
    EXPECT_NE(method, nullptr) << "sharded-" << GetParam();
    return method;
  }
};

// Each thread owns a disjoint key range; inserts, deletes and point reads
// race only on shard locks, never on keys, so the mutex-guarded oracle is
// exactly equivalent to the method's final contents.
TEST_P(ConcurrencyTest, DisjointRangesMatchOracle) {
  auto method = MakeSharded();
  ASSERT_NE(method, nullptr);
  ConcurrentReferenceModel oracle;
  constexpr Key kRangePerThread = 4096;
  constexpr int kOpsPerThread = 4000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x9000 + t);
      Key base = static_cast<Key>(t) * kRangePerThread;
      for (int i = 0; i < kOpsPerThread; ++i) {
        Key key = base + rng.NextBelow(kRangePerThread);
        uint64_t dice = rng.NextBelow(100);
        if (dice < 55) {
          Value v = rng.Next();
          ASSERT_TRUE(method->Insert(key, v).ok());
          oracle.Insert(key, v);
        } else if (dice < 80) {
          ASSERT_TRUE(method->Delete(key).ok());
          oracle.Delete(key);
        } else {
          // This thread's range is only mutated by this thread, so its own
          // point reads can be checked mid-flight against the oracle.
          Value expected;
          bool present = oracle.Get(key, &expected);
          Result<Value> got = method->Get(key);
          if (present) {
            ASSERT_TRUE(got.ok()) << "thread " << t << " key " << key;
            ASSERT_EQ(got.value(), expected);
          }
          // An oracle miss may race with this thread's... nothing: ranges
          // are disjoint, so a miss must be a real miss.
          if (!present) {
            ASSERT_TRUE(got.status().IsNotFound())
                << "thread " << t << " key " << key;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(method->size(), oracle.quiesced().size());
  ASSERT_TRUE(ScanMatchesReference(method.get(), oracle.quiesced(), 0,
                                   kThreads * kRangePerThread));
  Rng spot(0xFEED);
  for (int i = 0; i < 500; ++i) {
    Key key = spot.NextBelow(kThreads * kRangePerThread);
    ASSERT_TRUE(GetMatchesReference(method.get(), oracle.quiesced(), key));
  }
}

// All threads upsert the *same* key range with a key-determined value, then
// all threads delete the same overlapping subset. Both phases commute, so
// the final state is deterministic even though threads race on keys.
TEST_P(ConcurrencyTest, OverlappingUpsertsAndDeletesConverge) {
  auto method = MakeSharded();
  ASSERT_NE(method, nullptr);
  ConcurrentReferenceModel oracle;
  constexpr Key kRange = 8192;
  constexpr int kOpsPerThread = 4000;

  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(0xA000 + t);
        for (int i = 0; i < kOpsPerThread; ++i) {
          Key key = rng.NextBelow(kRange);
          ASSERT_TRUE(method->Insert(key, ValueFor(key)).ok());
          oracle.Insert(key, ValueFor(key));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  ASSERT_EQ(method->size(), oracle.quiesced().size());
  ASSERT_TRUE(ScanMatchesReference(method.get(), oracle.quiesced(), 0,
                                   kRange));

  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(0xB000 + t);
        for (int i = 0; i < kOpsPerThread; ++i) {
          // Overlapping deleters: deletes are idempotent, so double deletes
          // from racing threads leave the same final state.
          Key key = rng.NextBelow(kRange / 2);
          ASSERT_TRUE(method->Delete(key).ok());
          oracle.Delete(key);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  ASSERT_EQ(method->size(), oracle.quiesced().size());
  ASSERT_TRUE(ScanMatchesReference(method.get(), oracle.quiesced(), 0,
                                   kRange));
}

// Readers scan and probe while writers mutate: every value in rumlab
// concurrency tests is key-determined (ValueFor), so readers can validate
// whatever snapshot they observe. Even keys are never mutated after the
// bulk load and must be visible to every reader, always.
TEST_P(ConcurrencyTest, ReadersSeeConsistentStateUnderWrites) {
  auto method = MakeSharded();
  ASSERT_NE(method, nullptr);
  constexpr Key kRange = 8192;
  std::vector<Entry> stable;
  for (Key k = 0; k < kRange; k += 2) stable.push_back({k, ValueFor(k)});
  ASSERT_TRUE(method->BulkLoad(stable).ok());

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      // Writer w churns odd keys with k % 4 == 2w + 1 (disjoint between
      // writers); values stay key-determined.
      Rng rng(0xC000 + w);
      for (int i = 0; i < 6000; ++i) {
        Key key = rng.NextBelow(kRange / 4) * 4 + 2 * w + 1;
        if (rng.NextBelow(2) == 0) {
          ASSERT_TRUE(method->Insert(key, ValueFor(key)).ok());
        } else {
          ASSERT_TRUE(method->Delete(key).ok());
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(0xD000 + r);
      for (int i = 0; i < 3000; ++i) {
        if (i % 17 == 0) {
          Key lo = rng.NextBelow(kRange - 512);
          Key hi = lo + 256;
          std::vector<Entry> out;
          ASSERT_TRUE(method->Scan(lo, hi, &out).ok());
          for (size_t j = 0; j < out.size(); ++j) {
            ASSERT_GE(out[j].key, lo);
            ASSERT_LE(out[j].key, hi);
            ASSERT_EQ(out[j].value, ValueFor(out[j].key));
            if (j > 0) {
              ASSERT_LT(out[j - 1].key, out[j].key);
            }
          }
          // Unmutated even keys must all be present in the observed range.
          size_t evens = 0;
          for (const Entry& e : out) evens += (e.key % 2 == 0);
          size_t expected_evens = (hi - lo) / 2 + (lo % 2 == 0 ? 1 : 0);
          ASSERT_EQ(evens, expected_evens) << "scan [" << lo << "," << hi
                                           << "] dropped stable keys";
        } else {
          Key key = rng.NextBelow(kRange);
          Result<Value> got = method->Get(key);
          if (key % 2 == 0) {
            ASSERT_TRUE(got.ok()) << "stable key " << key << " vanished";
            ASSERT_EQ(got.value(), ValueFor(key));
          } else if (got.ok()) {
            ASSERT_EQ(got.value(), ValueFor(key));
          } else {
            ASSERT_TRUE(got.status().IsNotFound());
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

// Merged counter snapshots after a concurrent phase must satisfy the same
// invariants stats_invariants_test.cc checks for serial phases -- and the
// operation counts must be *exact*, proving no increments were lost.
TEST_P(ConcurrencyTest, MergedSnapshotsSatisfyStatsInvariants) {
  WorkloadSpec write_spec = WorkloadSpec::WriteOnly(6000, 1u << 12);
  write_spec.concurrency = kThreads;
  auto method = MakeSharded();
  ASSERT_NE(method, nullptr);
  Result<RumProfile> writes = WorkloadRunner::Run(method.get(), write_spec);
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  const CounterSnapshot& wd = writes.value().delta;
  EXPECT_EQ(wd.inserts, write_spec.operations);
  EXPECT_EQ(wd.logical_bytes_written, write_spec.operations * kEntrySize);
  EXPECT_GE(wd.write_amplification(), 0.999) << GetParam();
  EXPECT_GE(wd.total_space(), method->size() * kEntrySize) << GetParam();

  WorkloadSpec read_spec = WorkloadSpec::ReadOnly(6000, 3000);
  read_spec.concurrency = kThreads;
  auto loaded = MakeSharded();
  ASSERT_NE(loaded, nullptr);
  Result<RumProfile> reads =
      WorkloadRunner::LoadAndRun(loaded.get(), 3000, read_spec);
  ASSERT_TRUE(reads.ok()) << reads.status().ToString();
  const CounterSnapshot& rd = reads.value().delta;
  EXPECT_EQ(rd.point_queries, read_spec.operations);
  EXPECT_GE(rd.read_amplification(), 0.999) << GetParam();
  // A read-only phase writes nothing (no adaptive inners in this tier).
  EXPECT_EQ(rd.total_bytes_written(), 0u) << GetParam();
  EXPECT_GE(rd.space_amplification(), 0.999) << GetParam();
}

// The acceptance bar for deterministic parallel accounting: the same seed
// must produce a byte-identical counter delta across two concurrent runs.
TEST_P(ConcurrencyTest, ConcurrentProfilesAreDeterministic) {
  WorkloadSpec spec;
  spec.operations = 8000;
  spec.key_range = 1u << 12;
  spec.insert_fraction = 0.30;
  spec.update_fraction = 0.20;
  spec.delete_fraction = 0.10;
  spec.scan_fraction = 0;  // Scans cross partitions; see runner.h.
  spec.seed = 0x5EED5EED;
  spec.concurrency = kThreads;

  auto a = MakeSharded();
  auto b = MakeSharded();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Result<RumProfile> pa = WorkloadRunner::LoadAndRun(a.get(), 1500, spec);
  Result<RumProfile> pb = WorkloadRunner::LoadAndRun(b.get(), 1500, spec);
  ASSERT_TRUE(pa.ok()) << pa.status().ToString();
  ASSERT_TRUE(pb.ok()) << pb.status().ToString();
  const CounterSnapshot& da = pa.value().delta;
  const CounterSnapshot& db = pb.value().delta;
  EXPECT_EQ(da.bytes_read_base, db.bytes_read_base) << GetParam();
  EXPECT_EQ(da.bytes_read_aux, db.bytes_read_aux) << GetParam();
  EXPECT_EQ(da.bytes_written_base, db.bytes_written_base) << GetParam();
  EXPECT_EQ(da.bytes_written_aux, db.bytes_written_aux) << GetParam();
  EXPECT_EQ(da.blocks_read, db.blocks_read) << GetParam();
  EXPECT_EQ(da.blocks_written, db.blocks_written) << GetParam();
  EXPECT_EQ(da.space_base, db.space_base) << GetParam();
  EXPECT_EQ(da.space_aux, db.space_aux) << GetParam();
  EXPECT_EQ(da.logical_bytes_read, db.logical_bytes_read) << GetParam();
  EXPECT_EQ(da.logical_bytes_written, db.logical_bytes_written) << GetParam();
  EXPECT_EQ(da.point_queries, db.point_queries) << GetParam();
  EXPECT_EQ(da.range_queries, db.range_queries) << GetParam();
  EXPECT_EQ(da.inserts, db.inserts) << GetParam();
  EXPECT_EQ(da.updates, db.updates) << GetParam();
  EXPECT_EQ(da.deletes, db.deletes) << GetParam();
}

// Four BTree shards share ONE CachingDevice: pins from different shards
// interleave on the shared LRU while each shard's page set stays disjoint.
// Exercises the documented pin contract under TSan -- pins hold the cache
// lock only for lookup/insert, and eviction skips pinned entries, so a
// small cache forces constant eviction traffic around live pins.
TEST(SharedCacheConcurrencyTest, ShardedBTreePinsOverOneCache) {
  struct Wiring {
    RumCounters counters;
    BlockDevice bottom;
    CachingDevice cache;
    Wiring() : bottom(512, &counters), cache(&bottom, /*capacity_pages=*/32) {}
  };
  auto wiring = std::make_unique<Wiring>();
  Options options = SmallOptions();
  std::vector<std::unique_ptr<AccessMethod>> shards;
  for (int t = 0; t < kThreads; ++t) {
    shards.push_back(std::make_unique<BTree>(options, &wiring->cache));
  }
  ShardedMethod method("sharded-btree-shared-cache", std::move(shards));
  ConcurrentReferenceModel oracle;
  constexpr Key kRangePerThread = 2048;
  constexpr int kOpsPerThread = 3000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xCAC4E0 + t);
      Key base = static_cast<Key>(t) * kRangePerThread;
      for (int i = 0; i < kOpsPerThread; ++i) {
        Key key = base + rng.NextBelow(kRangePerThread);
        uint64_t dice = rng.NextBelow(100);
        if (dice < 55) {
          Value v = rng.Next();
          ASSERT_TRUE(method.Insert(key, v).ok());
          oracle.Insert(key, v);
        } else if (dice < 75) {
          ASSERT_TRUE(method.Delete(key).ok());
          oracle.Delete(key);
        } else {
          Value expected;
          bool present = oracle.Get(key, &expected);
          Result<Value> got = method.Get(key);
          if (present) {
            ASSERT_TRUE(got.ok()) << "thread " << t << " key " << key;
            ASSERT_EQ(got.value(), expected);
          } else {
            ASSERT_TRUE(got.status().IsNotFound())
                << "thread " << t << " key " << key;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Quiescence: nothing left pinned, and the cache drains cleanly.
  EXPECT_EQ(wiring->cache.pinned_pages(), 0u);
  ASSERT_TRUE(wiring->cache.FlushAll().ok());
  ASSERT_EQ(method.size(), oracle.quiesced().size());
  Rng spot(0xFACADE);
  for (int i = 0; i < 500; ++i) {
    Key key = spot.NextBelow(kThreads * kRangePerThread);
    ASSERT_TRUE(GetMatchesReference(&method, oracle.quiesced(), key));
  }
}

TEST(ConcurrencyRunnerTest, RejectsUnpartitionedMethods) {
  auto method = MakeAccessMethod("btree", SmallOptions());
  ASSERT_NE(method, nullptr);
  WorkloadSpec spec = WorkloadSpec::Mixed(100, 1024);
  spec.concurrency = 2;
  Result<RumProfile> profile = WorkloadRunner::Run(method.get(), spec);
  EXPECT_EQ(profile.code(), Code::kInvalidArgument);
}

TEST(ConcurrencyRunnerTest, WorkerCountCapsAtPartitions) {
  Options options = SmallOptions();
  options.sharded.shards = 2;
  auto method = MakeAccessMethod("sharded-btree", options);
  ASSERT_NE(method, nullptr);
  WorkloadSpec spec = WorkloadSpec::WriteOnly(1000, 1u << 10);
  spec.concurrency = 8;  // More workers than shards: capped, not wedged.
  Result<RumProfile> profile = WorkloadRunner::Run(method.get(), spec);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile.value().delta.inserts, spec.operations);
}

// Degraded service under concurrency: four workers over four independently
// faulted shards, ErrorMode::kDegrade. Each worker keeps its own tally
// (including the mutations it withheld after its shard's first failure),
// and for a fixed seed the per-worker tallies and their merge replay
// exactly -- degraded_skips is an accounting quantity, not a race artifact.
TEST(ConcurrencyRunnerTest, DegradedSkipsMergeDeterministicallyAcrossWorkers) {
  constexpr size_t kShards = 4;
  auto run_once = [&](std::vector<ErrorTally>* workers, ErrorTally* merged) {
    struct FaultedWiring {
      RumCounters counters;
      BlockDevice bottom;
      FaultyDevice faulty;
      FaultedWiring() : bottom(512, &counters), faulty(&bottom) {}
    };
    std::vector<std::unique_ptr<FaultedWiring>> wiring;
    std::vector<std::unique_ptr<AccessMethod>> shards;
    Options options = SmallOptions();
    for (size_t s = 0; s < kShards; ++s) {
      wiring.push_back(std::make_unique<FaultedWiring>());
      wiring.back()->faulty.SetPlan(FaultPlan::Transient(0xDE6 + s, 0.0)
                                        .WithRate(FaultOp::kWrite, 0.02)
                                        .WithRate(FaultOp::kAllocate, 0.02));
      shards.push_back(
          std::make_unique<BTree>(options, &wiring.back()->faulty));
    }
    // Declared after `wiring`, so the method dies before its devices.
    ShardedMethod method("sharded-btree-faulted", std::move(shards));

    WorkloadSpec spec;
    spec.operations = 4000;
    spec.key_range = 1u << 12;
    spec.insert_fraction = 0.5;
    spec.update_fraction = 0.1;
    spec.delete_fraction = 0.1;
    spec.scan_fraction = 0;  // Scans cross partitions; see runner.h.
    spec.seed = 0xD16E5;
    spec.concurrency = kShards;
    spec.error_mode = ErrorMode::kDegrade;
    Result<RumProfile> r = WorkloadRunner::Run(&method, spec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    *workers = r.value().worker_errors;
    *merged = r.value().errors();
  };

  std::vector<ErrorTally> w1, w2;
  ErrorTally m1, m2;
  run_once(&w1, &m1);
  run_once(&w2, &m2);

  ASSERT_EQ(w1.size(), kShards);
  ASSERT_EQ(w2.size(), kShards);
  uint64_t summed_skips = 0;
  for (size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(w1[i].io_errors, w2[i].io_errors) << "worker " << i;
    EXPECT_EQ(w1[i].corruption, w2[i].corruption) << "worker " << i;
    EXPECT_EQ(w1[i].other, w2[i].other) << "worker " << i;
    EXPECT_EQ(w1[i].degraded_skips, w2[i].degraded_skips) << "worker " << i;
    summed_skips += w1[i].degraded_skips;
  }
  // The storm degraded at least one worker, and the merge is the exact
  // field-wise sum of what the workers saw.
  EXPECT_GT(m1.failed(), 0u);
  EXPECT_GT(m1.degraded_skips, 0u);
  EXPECT_EQ(m1.degraded_skips, summed_skips);
  EXPECT_EQ(m1.degraded_skips, m2.degraded_skips);
  EXPECT_EQ(m1.io_errors, m2.io_errors);
}

INSTANTIATE_TEST_SUITE_P(
    ShardedInners, ConcurrencyTest,
    ::testing::Values("btree", "hash", "skiplist", "lsm-leveled"),
    MethodParamName);

}  // namespace
}  // namespace rum
