// Memory-hierarchy tests (the paper's Figure 2): stacking caches under an
// access method trades space at level n-1 for read overhead at level n.
// That every method stays exact under a write-back cache is checked by the
// `cache` rows of differential_test's feature matrix.
#include <gtest/gtest.h>

#include "methods/btree/btree.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"

namespace rum {
namespace {

using testing_util::SmallOptions;

// Runs a fixed point-query workload on a B+-Tree whose pages sit under an
// LRU cache of `cache_pages` and returns device blocks actually read.
uint64_t DeviceReadsWithCache(size_t cache_pages, uint64_t* cache_bytes) {
  Options options = SmallOptions();
  // Wire explicitly: method counters -> bottom device; cache in between.
  struct Wiring {
    RumCounters counters;
    BlockDevice bottom;
    CachingDevice cache;
    Wiring(size_t block, size_t pages)
        : bottom(block, &counters), cache(&bottom, pages) {}
  };
  static constexpr size_t kBlock = 512;
  auto wiring = std::make_unique<Wiring>(kBlock, cache_pages);

  BTree cached_tree(options, &wiring->cache);
  std::vector<Entry> entries = MakeSortedEntries(20000);
  EXPECT_TRUE(cached_tree.BulkLoad(entries).ok());
  EXPECT_TRUE(wiring->cache.FlushAll().ok());
  wiring->counters.ResetTraffic();
  wiring->cache.ResetLevelStats();

  KeyGenerator keys(KeyDistribution::kZipfian, 20000, 7, 0.99);
  for (int i = 0; i < 3000; ++i) {
    (void)cached_tree.Get(keys.Next());
  }
  *cache_bytes = wiring->cache.level_stats().space_aux;
  // Blocks read at the bottom device = this level's read overhead.
  return wiring->counters.snapshot().blocks_read;
}

TEST(HierarchyTest, GrowingCacheMonotonicallyCutsDeviceReads) {
  uint64_t prev = ~0ULL;
  for (size_t pages : {0u, 16u, 64u, 256u, 1024u}) {
    uint64_t cache_bytes = 0;
    uint64_t reads = DeviceReadsWithCache(pages, &cache_bytes);
    EXPECT_LE(reads, prev) << "cache " << pages << " pages";
    prev = reads;
    if (pages > 0) {
      EXPECT_GT(cache_bytes, 0u);
    }
  }
}

TEST(HierarchyTest, LargeEnoughCacheAbsorbsAlmostEverything) {
  uint64_t cache_bytes = 0;
  uint64_t cold = DeviceReadsWithCache(0, &cache_bytes);
  uint64_t warm = DeviceReadsWithCache(4096, &cache_bytes);
  // With the whole tree cached, device reads collapse to the initial
  // fill (compulsory misses).
  EXPECT_LT(warm, cold / 3);
}

TEST(HierarchyTest, TwoStackedCachesCompose) {
  RumCounters counters;
  BlockDevice bottom(512, &counters);
  CachingDevice l2(&bottom, 64);
  CachingDevice l1(&l2, 8);

  Options options = SmallOptions();
  BTree tree(options, &l1);
  std::vector<Entry> entries = MakeSortedEntries(5000);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  ASSERT_TRUE(l1.FlushAll().ok());
  counters.ResetTraffic();
  l1.ResetLevelStats();
  l2.ResetLevelStats();

  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    (void)tree.Get(rng.NextBelow(5000));
  }
  uint64_t l1_hits = l1.hits();
  uint64_t l2_hits = l2.hits();
  uint64_t device_reads = counters.snapshot().blocks_read;
  // Every access is served somewhere, and each level filters the next:
  // whatever misses L2 is exactly what reaches the device.
  EXPECT_GT(l1_hits, 0u);
  EXPECT_GT(l2_hits, 0u);
  EXPECT_GT(device_reads, 0u);
  EXPECT_EQ(device_reads, l2.misses());
  EXPECT_EQ(l2_hits + l2.misses(), l1.misses());
}

}  // namespace
}  // namespace rum
