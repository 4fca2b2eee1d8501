// Structural tests for the B+-Tree beyond the generic contract: node
// codecs, height growth, tuning knobs, leaf-chain integrity.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "methods/btree/btree.h"
#include "methods/btree/btree_node.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "storage/faulty_device.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"

namespace rum {
namespace {

using testing_util::SmallOptions;

TEST(BTreeNodeTest, LeafRoundTrip) {
  BTreeLeaf leaf;
  leaf.entries = {{1, 10}, {5, 50}, {9, 90}};
  leaf.next = 77;
  std::vector<uint8_t> block(512);
  ASSERT_TRUE(leaf.EncodeInto(block).ok());
  EXPECT_TRUE(IsLeafBlock(block));
  BTreeLeaf out;
  ASSERT_TRUE(BTreeLeaf::DecodeFrom(block, &out).ok());
  EXPECT_EQ(out.entries, leaf.entries);
  EXPECT_EQ(out.next, leaf.next);
}

TEST(BTreeNodeTest, InnerRoundTrip) {
  BTreeInner inner;
  inner.keys = {10, 20, 30};
  inner.children = {100, 101, 102, 103};
  std::vector<uint8_t> block(512);
  ASSERT_TRUE(inner.EncodeInto(block).ok());
  EXPECT_FALSE(IsLeafBlock(block));
  BTreeInner out;
  ASSERT_TRUE(BTreeInner::DecodeFrom(block, &out).ok());
  EXPECT_EQ(out.keys, inner.keys);
  EXPECT_EQ(out.children, inner.children);
}

TEST(BTreeNodeTest, ChildForKeyRoutesBySeparator) {
  BTreeInner inner;
  inner.keys = {10, 20};
  inner.children = {100, 101, 102};
  std::vector<uint8_t> block(512);
  ASSERT_TRUE(inner.EncodeInto(block).ok());
  auto route = [&](Key key, PageId want_child, size_t want_index) {
    PageId child = kInvalidPageId;
    size_t index = 0;
    ASSERT_TRUE(BTreeInner::ChildForKey(block, key, &child, &index).ok());
    EXPECT_EQ(child, want_child) << key;
    EXPECT_EQ(index, want_index) << key;
  };
  route(5, 100, 0);
  route(10, 101, 1);  // Separator = lower bound of the right child.
  route(15, 101, 1);
  route(20, 102, 2);
  route(99, 102, 2);
}

TEST(BTreeNodeTest, OverflowRejected) {
  BTreeLeaf leaf;
  leaf.entries.resize(BTreeLeaf::CapacityFor(512) + 1);
  std::vector<uint8_t> block(512);
  EXPECT_EQ(leaf.EncodeInto(block).code(), Code::kResourceExhausted);
  BTreeInner inner;
  inner.keys.resize(BTreeInner::CapacityFor(512) + 1);
  inner.children.resize(inner.keys.size() + 1);
  EXPECT_EQ(inner.EncodeInto(block).code(), Code::kResourceExhausted);
}

TEST(BTreeNodeTest, DecodeRejectsWrongType) {
  BTreeLeaf leaf;
  leaf.entries = {{1, 1}};
  std::vector<uint8_t> block(512);
  ASSERT_TRUE(leaf.EncodeInto(block).ok());
  BTreeInner inner;
  EXPECT_EQ(BTreeInner::DecodeFrom(block, &inner).code(), Code::kCorruption);
}

TEST(BTreeTest, HeightGrowsLogarithmically) {
  Options options = SmallOptions();
  BTree tree(options);
  size_t leaf_cap = BTreeLeaf::CapacityFor(512);
  // Fill one leaf exactly: height 1.
  for (Key k = 0; k < leaf_cap; ++k) {
    ASSERT_TRUE(tree.Insert(k, k).ok());
  }
  EXPECT_EQ(tree.height(), 1u);
  ASSERT_TRUE(tree.Insert(leaf_cap, 0).ok());
  EXPECT_EQ(tree.height(), 2u);
  for (Key k = leaf_cap + 1; k < 20000; ++k) {
    ASSERT_TRUE(tree.Insert(k, k).ok());
  }
  // log_31(20000/31) ~ 3; allow 3..5.
  EXPECT_GE(tree.height(), 3u);
  EXPECT_LE(tree.height(), 5u);
}

TEST(BTreeTest, BulkLoadProducesShallowPackedTree) {
  Options options = SmallOptions();
  options.btree.bulk_fill = 1.0;
  BTree packed(options);
  std::vector<Entry> entries = MakeSortedEntries(10000);
  ASSERT_TRUE(packed.BulkLoad(entries).ok());

  options.btree.bulk_fill = 0.5;
  BTree loose(options);
  ASSERT_TRUE(loose.BulkLoad(entries).ok());

  // Half-full leaves double the base footprint.
  EXPECT_GT(loose.stats().space_base,
            packed.stats().space_base * 3 / 2);
  // Both answer queries identically.
  for (Key k = 0; k < 10000; k += 531) {
    ASSERT_EQ(packed.Get(k).value(), loose.Get(k).value());
  }
}

TEST(BTreeTest, LowBulkFillAbsorbsInsertsWithFewerSplits) {
  std::vector<Entry> entries = MakeSortedEntries(5000, 0, 2);
  Options options = SmallOptions();
  options.btree.bulk_fill = 1.0;
  BTree packed(options);
  ASSERT_TRUE(packed.BulkLoad(entries).ok());
  options.btree.bulk_fill = 0.6;
  BTree loose(options);
  ASSERT_TRUE(loose.BulkLoad(entries).ok());

  packed.ResetStats();
  loose.ResetStats();
  // Insert into the odd gaps: packed splits constantly, loose absorbs.
  Rng rng(3);
  for (int i = 0; i < 1500; ++i) {
    Key k = rng.NextBelow(5000) * 2 + 1;
    ASSERT_TRUE(packed.Insert(k, 1).ok());
    ASSERT_TRUE(loose.Insert(k, 1).ok());
  }
  EXPECT_LT(loose.stats().total_bytes_written(),
            packed.stats().total_bytes_written());
}

TEST(BTreeTest, NodeSizeKnobTradesReadBlocksForWriteBytes) {
  std::vector<Entry> entries = MakeSortedEntries(20000);
  Options small = SmallOptions();
  small.btree.node_size = 512;
  Options large = SmallOptions();
  large.btree.node_size = 8192;

  BTree small_tree(small);
  BTree large_tree(large);
  ASSERT_TRUE(small_tree.BulkLoad(entries).ok());
  ASSERT_TRUE(large_tree.BulkLoad(entries).ok());
  EXPECT_GT(small_tree.height(), large_tree.height());

  small_tree.ResetStats();
  large_tree.ResetStats();
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    Key k = rng.NextBelow(20000);
    ASSERT_TRUE(small_tree.Get(k).ok());
    ASSERT_TRUE(large_tree.Get(k).ok());
  }
  // Big nodes: fewer blocks but more bytes per probe.
  EXPECT_LE(large_tree.stats().blocks_read, small_tree.stats().blocks_read);
  EXPECT_GT(large_tree.stats().total_bytes_read(),
            small_tree.stats().total_bytes_read());
}

TEST(BTreeTest, LeafChainSurvivesRandomDeletes) {
  Options options = SmallOptions();
  BTree tree(options);
  std::vector<Entry> entries = MakeSortedEntries(4000);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  Rng rng(11);
  std::vector<bool> alive(4000, true);
  for (int i = 0; i < 3000; ++i) {
    Key k = rng.NextBelow(4000);
    ASSERT_TRUE(tree.Delete(k).ok());
    alive[k] = false;
    if (i % 500 == 0) {
      // A full scan must see exactly the live keys, in order.
      std::vector<Entry> scan;
      ASSERT_TRUE(tree.Scan(0, 4000, &scan).ok());
      size_t expected = 0;
      for (bool a : alive) expected += a ? 1 : 0;
      ASSERT_EQ(scan.size(), expected) << "after " << i << " deletes";
      for (size_t j = 1; j < scan.size(); ++j) {
        ASSERT_LT(scan[j - 1].key, scan[j].key);
      }
    }
  }
}

TEST(BTreeTest, SplitFractionNearOneFavorsSequentialInserts) {
  Options seq = SmallOptions();
  seq.btree.split_fraction = 0.9;  // Leave the left node nearly full.
  Options mid = SmallOptions();
  mid.btree.split_fraction = 0.5;

  BTree seq_tree(seq);
  BTree mid_tree(mid);
  for (Key k = 0; k < 10000; ++k) {
    ASSERT_TRUE(seq_tree.Insert(k, k).ok());
    ASSERT_TRUE(mid_tree.Insert(k, k).ok());
  }
  // Sequential fills: high split fraction packs leaves tighter.
  EXPECT_LT(seq_tree.stats().space_base, mid_tree.stats().space_base);
}

TEST(BTreeTest, InnerAndLeafSpaceSplitIsTagged) {
  Options options = SmallOptions();
  BTree tree(options);
  std::vector<Entry> entries = MakeSortedEntries(10000);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  CounterSnapshot snap = tree.stats();
  EXPECT_GT(snap.space_base, 0u);  // Leaves.
  EXPECT_GT(snap.space_aux, 0u);   // Inner nodes.
  EXPECT_LT(snap.space_aux, snap.space_base);  // Fanout keeps inners small.
}

// An Update of a present key patches the value in its pinned leaf. It pins,
// charges and moves cache pages as a decode and re-encode of the leaf
// would, except at capacity 0: the leaf stays pinned from the read pin to
// the write pin, so its clean copy is not dropped in between (3 evictions
// per update, not 4). Every leaf stays in the encoder's form.
TEST(BTreeTest, UpdateOfPresentKeyPatchesThePinnedLeaf) {
  constexpr size_t kKeys = 100000;
  constexpr int kUpdates = 1000;
  struct Case {
    int capacity;  // -1: the tree sits on the bare BlockDevice.
    uint64_t base_read, base_written;
    uint64_t cache_read, cache_written;
    uint64_t hits, misses, write_backs, evictions;
  };
  const Case cases[] = {
      {-1, 3000, 1000, 0, 0, 0, 0, 0, 0},
      {0, 3000, 1000, 0, 1000, 0, 3000, 1000, 3000},
      {2, 2999, 999, 1, 1000, 1, 2999, 999, 2999},
      {32, 937, 908, 2063, 1000, 2063, 937, 908, 937},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.capacity);
    RumCounters base_counters;
    BlockDevice base(4096, &base_counters);
    std::unique_ptr<CachingDevice> cache;
    if (c.capacity >= 0) {
      cache = std::make_unique<CachingDevice>(&base, c.capacity);
    }
    BTree tree(Options(), cache ? static_cast<Device*>(cache.get()) : &base);
    ASSERT_TRUE(tree.BulkLoad(MakeSortedEntries(kKeys)).ok());
    if (cache) {
      ASSERT_TRUE(cache->FlushAll().ok());
    }
    const CounterSnapshot base_before = base_counters.snapshot();
    const CounterSnapshot cache_before =
        cache ? cache->level_stats() : CounterSnapshot{};
    const uint64_t hits = cache ? cache->hits() : 0;
    const uint64_t misses = cache ? cache->misses() : 0;
    const uint64_t write_backs = cache ? cache->write_backs() : 0;
    const uint64_t evictions = cache ? cache->evictions() : 0;
    std::map<Key, Value> updated;
    Rng rng(11);
    for (int i = 0; i < kUpdates; ++i) {
      Key key = rng.NextBelow(kKeys);
      Value value = rng.Next();
      ASSERT_TRUE(tree.Update(key, value).ok());
      updated[key] = value;
    }
    const CounterSnapshot base_after = base_counters.snapshot();
    EXPECT_EQ(base_after.blocks_read - base_before.blocks_read, c.base_read);
    EXPECT_EQ(base_after.blocks_written - base_before.blocks_written,
              c.base_written);
    if (cache) {
      const CounterSnapshot cache_after = cache->level_stats();
      EXPECT_EQ(cache_after.blocks_read - cache_before.blocks_read,
                c.cache_read);
      EXPECT_EQ(cache_after.blocks_written - cache_before.blocks_written,
                c.cache_written);
      EXPECT_EQ(cache->hits() - hits, c.hits);
      EXPECT_EQ(cache->misses() - misses, c.misses);
      EXPECT_EQ(cache->write_backs() - write_backs, c.write_backs);
      EXPECT_EQ(cache->evictions() - evictions, c.evictions);
      ASSERT_TRUE(cache->FlushAll().ok());
    }
    EXPECT_EQ(tree.size(), kKeys);
    // Every leaf decodes and re-encodes to its own bytes.
    size_t leaves = 0;
    for (PageId p = 0; p < base.live_pages(); ++p) {
      const std::vector<uint8_t>* bytes = base.mutable_page_unaccounted(p);
      ASSERT_NE(bytes, nullptr);
      if (!IsLeafBlock(*bytes)) continue;
      ++leaves;
      BTreeLeaf leaf;
      ASSERT_TRUE(BTreeLeaf::DecodeFrom(*bytes, &leaf).ok());
      std::vector<uint8_t> encoded(bytes->size());
      ASSERT_TRUE(leaf.EncodeInto(encoded).ok());
      EXPECT_EQ(encoded, *bytes) << "leaf page " << p;
    }
    EXPECT_GT(leaves, kKeys / BTreeLeaf::CapacityFor(4096));
    std::vector<Entry> all;
    ASSERT_TRUE(tree.Scan(0, kKeys, &all).ok());
    ASSERT_EQ(all.size(), kKeys);
    std::vector<Entry> expected = MakeSortedEntries(kKeys);
    for (Entry& e : expected) {
      auto it = updated.find(e.key);
      if (it != updated.end()) e.value = it->second;
    }
    EXPECT_EQ(all, expected);
  }

  // A failed dirty release of the patched leaf is the device's IOError,
  // and no write is charged.
  RumCounters counters;
  BlockDevice base(4096, &counters);
  FaultyDevice faulty(&base);
  BTree tree(Options(), &faulty);
  ASSERT_TRUE(tree.BulkLoad(MakeSortedEntries(kKeys)).ok());
  faulty.SetPlan(FaultPlan::Transient(7, 0.0).WithRate(FaultOp::kWrite, 1.0));
  const CounterSnapshot before = counters.snapshot();
  EXPECT_EQ(tree.Update(4242, 1).code(), Code::kIOError);
  EXPECT_EQ(counters.snapshot().blocks_written, before.blocks_written);
  EXPECT_EQ(counters.snapshot().blocks_read, before.blocks_read + 3);
}

}  // namespace
}  // namespace rum
