// Structure-specific tests: the Proposition 1-3 extremes, zone maps, the
// hash directory, cracking convergence, the trie, columns, bloom-zones,
// the live-key set and the skiplist map's charges.
#include <algorithm>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "methods/approx/bloom_column.h"
#include "methods/column/sorted_column.h"
#include "methods/column/unsorted_column.h"
#include "methods/cracking/cracking.h"
#include "methods/extremes/dense_array.h"
#include "methods/extremes/magic_array.h"
#include "methods/extremes/pure_log.h"
#include "methods/hash/hash_index.h"
#include "methods/key_set.h"
#include "methods/pbt/pbt.h"
#include "methods/skiplist/skiplist.h"
#include "methods/trie/trie.h"
#include "methods/zonemap/zonemap.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"

namespace rum {
namespace {

using testing_util::SmallOptions;

// ------------------------------------------------------------ Propositions

TEST(Prop1MagicArrayTest, ReadOverheadIsExactlyOne) {
  Options options = SmallOptions();
  MagicArray array(options);
  for (Key k = 100; k < 1100; ++k) {
    ASSERT_TRUE(array.Insert(k, ValueFor(k)).ok());
  }
  array.ResetStats();
  for (Key k = 100; k < 1100; ++k) {
    ASSERT_TRUE(array.Get(k).ok());
  }
  EXPECT_DOUBLE_EQ(array.stats().read_amplification(), 1.0);
}

TEST(Prop1MagicArrayTest, ChangeKeyCostsTwoWrites) {
  Options options = SmallOptions();
  MagicArray array(options);
  ASSERT_TRUE(array.Insert(10, 1).ok());
  array.ResetStats();
  ASSERT_TRUE(array.ChangeKey(10, 20).ok());
  // Prop 1: UO = 2.0 -- two physical slot writes for one logical change.
  EXPECT_DOUBLE_EQ(array.stats().write_amplification(), 2.0);
  EXPECT_TRUE(array.Get(10).status().IsNotFound());
  EXPECT_EQ(array.Get(20).value(), 1u);
}

TEST(Prop1MagicArrayTest, MemoryOverheadIsUnbounded) {
  Options options = SmallOptions();
  options.extremes.magic_array_domain = 1u << 16;
  MagicArray array(options);
  ASSERT_TRUE(array.Insert(5, 5).ok());
  // One live entry, 2^16 slots: MO = 65536.
  EXPECT_DOUBLE_EQ(array.stats().space_amplification(), 65536.0);
  // Ten times the data, a tenth the overhead: MO ~ domain / N.
  for (Key k = 100; k < 109; ++k) ASSERT_TRUE(array.Insert(k, k).ok());
  EXPECT_DOUBLE_EQ(array.stats().space_amplification(), 6553.6);
}

TEST(Prop1MagicArrayTest, DomainIsEnforced) {
  Options options = SmallOptions();
  options.extremes.magic_array_domain = 100;
  MagicArray array(options);
  EXPECT_EQ(array.Insert(100, 1).code(), Code::kOutOfRange);
  EXPECT_EQ(array.Get(1000).code(), Code::kOutOfRange);
}

TEST(Prop2PureLogTest, WriteOverheadIsExactlyOne) {
  Options options = SmallOptions();
  PureLog log(options);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    Key k = rng.NextBelow(100);
    if (i % 5 == 4) {
      ASSERT_TRUE(log.Delete(k).ok());
    } else {
      ASSERT_TRUE(log.Insert(k, i).ok());
    }
  }
  // Prop 2: min(UO) = 1.0 -- every operation appends exactly its bytes.
  EXPECT_DOUBLE_EQ(log.stats().write_amplification(), 1.0);
}

TEST(Prop2PureLogTest, ReadAndSpaceGrowWithUpdates) {
  Options options = SmallOptions();
  PureLog log(options);
  // The same key overwritten 1000 times: one live entry, 1000 records.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(log.Insert(7, i).ok());
  }
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.record_count(), 1000u);
  // MO grows without bound: 1000 records of space over 1 live entry.
  EXPECT_DOUBLE_EQ(log.stats().space_amplification(), 1000.0);
  // A miss scans everything.
  log.ResetStats();
  EXPECT_TRUE(log.Get(8).status().IsNotFound());
  EXPECT_EQ(log.stats().total_bytes_read(), 1000u * kEntrySize);
}

TEST(Prop2PureLogTest, NewestVersionWins) {
  Options options = SmallOptions();
  PureLog log(options);
  ASSERT_TRUE(log.Insert(1, 10).ok());
  ASSERT_TRUE(log.Insert(1, 20).ok());
  EXPECT_EQ(log.Get(1).value(), 20u);
  ASSERT_TRUE(log.Delete(1).ok());
  EXPECT_TRUE(log.Get(1).status().IsNotFound());
  ASSERT_TRUE(log.Insert(1, 30).ok());
  EXPECT_EQ(log.Get(1).value(), 30u);
}

TEST(Prop3DenseArrayTest, MemoryOverheadIsExactlyOne) {
  Options options = SmallOptions();
  DenseArray array(options);
  for (Key k = 0; k < 1000; ++k) {
    ASSERT_TRUE(array.Insert(k, k).ok());
  }
  // Prop 3: min(MO) = 1.0 -- not one auxiliary byte.
  EXPECT_DOUBLE_EQ(array.stats().space_amplification(), 1.0);
  EXPECT_EQ(array.stats().space_aux, 0u);
  ASSERT_TRUE(array.Delete(500).ok());
  EXPECT_DOUBLE_EQ(array.stats().space_amplification(), 1.0);
}

TEST(Prop3DenseArrayTest, PointQueryScansHalfOnAverage) {
  Options options = SmallOptions();
  DenseArray array(options);
  const size_t kN = 1000;
  std::vector<Entry> entries = MakeSortedEntries(kN);
  ASSERT_TRUE(array.BulkLoad(entries).ok());
  array.ResetStats();
  Rng rng(2);
  const int kQueries = 500;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(array.Get(rng.NextBelow(kN)).ok());
  }
  double avg_entries_read =
      static_cast<double>(array.stats().total_bytes_read()) / kEntrySize /
      kQueries;
  EXPECT_GT(avg_entries_read, 0.3 * kN);
  EXPECT_LT(avg_entries_read, 0.7 * kN);
}

// ---------------------------------------------------------------- ZoneMaps

TEST(ZoneMapTest, ZonesSplitAsDataGrows) {
  Options options = SmallOptions();
  ZoneMapColumn column(options);
  for (Key k = 0; k < 2000; ++k) {
    ASSERT_TRUE(column.Insert(k, k).ok());
  }
  EXPECT_GT(column.zone_count(), 2000 / options.zonemap.zone_entries);
}

TEST(ZoneMapTest, IndexIsTiny) {
  Options options = SmallOptions();
  ZoneMapColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(10000);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  CounterSnapshot snap = column.stats();
  // Sparse index: far below 1% of the base data.
  EXPECT_LT(snap.space_aux, snap.space_base / 50);
}

TEST(ZoneMapTest, MinMaxPruningSkipsZoneReads) {
  Options options = SmallOptions();
  ZoneMapColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(5000, 0, 10);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  column.ResetStats();
  // Key far beyond every zone: descriptor scan only, no block reads.
  EXPECT_TRUE(column.Get(1u << 30).status().IsNotFound());
  EXPECT_EQ(column.stats().blocks_read, 0u);
}

TEST(ZoneMapTest, PointQueryReadsOneZone) {
  Options options = SmallOptions();
  ZoneMapColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(5000);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  column.ResetStats();
  ASSERT_TRUE(column.Get(2500).ok());
  size_t zone_blocks =
      (options.zonemap.zone_entries + 30) / 31;  // 31 entries/block at 512.
  EXPECT_LE(column.stats().blocks_read, zone_blocks);
}

// ------------------------------------------------------------- Hash index

TEST(HashIndexTest, DirectoryGrowsUnderLoad) {
  Options options = SmallOptions();
  HashIndex index(options);
  size_t slots_before = 0;
  for (Key k = 0; k < 2000; ++k) {
    ASSERT_TRUE(index.Insert(k, k).ok());
    if (k == 10) slots_before = index.slot_count();
  }
  EXPECT_GT(index.slot_count(), slots_before);
  EXPECT_LE(index.load_factor(), 0.7 + 0.01);
  // Everything still reachable after rehashes.
  for (Key k = 0; k < 2000; k += 111) {
    EXPECT_EQ(index.Get(k).value(), k) << k;
  }
}

TEST(HashIndexTest, PointQueryTouchesTwoBlocks) {
  Options options = SmallOptions();
  HashIndex index(options);
  std::vector<Entry> entries = MakeSortedEntries(5000);
  ASSERT_TRUE(index.BulkLoad(entries).ok());
  index.ResetStats();
  const int kQueries = 200;
  Rng rng(3);
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(index.Get(rng.NextBelow(5000)).ok());
  }
  double blocks_per_query =
      static_cast<double>(index.stats().blocks_read) / kQueries;
  EXPECT_LT(blocks_per_query, 3.0);  // Directory page + heap page (+rare probe).
}

TEST(HashIndexTest, DeleteKeepsHeapDense) {
  Options options = SmallOptions();
  HashIndex index(options);
  for (Key k = 0; k < 500; ++k) {
    ASSERT_TRUE(index.Insert(k, k * 2).ok());
  }
  for (Key k = 0; k < 500; k += 2) {
    ASSERT_TRUE(index.Delete(k).ok());
  }
  EXPECT_EQ(index.size(), 250u);
  for (Key k = 1; k < 500; k += 2) {
    ASSERT_EQ(index.Get(k).value(), k * 2) << k;
  }
}

// --------------------------------------------------------------- Cracking

TEST(CrackingTest, QueriesConvergeToSmallReads) {
  Options options = SmallOptions();
  options.cracking.min_piece_entries = 64;
  CrackedColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(20000);
  ASSERT_TRUE(column.BulkLoad(entries).ok());

  // Two passes over the same query region: the first pass pays
  // partitioning cost, the second rides the cracks.
  std::vector<Entry> out;
  uint64_t pass_reads[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    column.ResetStats();
    for (int j = 0; j < 15; ++j) {
      out.clear();
      Key lo = 4000 + static_cast<Key>(j) * 64;
      ASSERT_TRUE(column.Scan(lo, lo + 100, &out).ok());
    }
    pass_reads[pass] = column.stats().total_bytes_read();
  }
  EXPECT_LT(pass_reads[1], pass_reads[0] / 10);
  EXPECT_GT(column.crack_count(), 10u);
}

TEST(CrackingTest, RepeatedQueriesAddNoCracks) {
  Options options = SmallOptions();
  CrackedColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(4096);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  std::vector<Entry> out;
  ASSERT_TRUE(column.Scan(1000, 1100, &out).ok());
  size_t cracks = column.crack_count();
  EXPECT_LE(cracks, 2u);  // One crack per bound at most.
  for (int i = 0; i < 10; ++i) {
    out.clear();
    ASSERT_TRUE(column.Scan(1000, 1100, &out).ok());
  }
  EXPECT_EQ(column.crack_count(), cracks);
}

TEST(CrackingTest, SmallPiecesAreScannedNotCracked) {
  Options options = SmallOptions();
  options.cracking.min_piece_entries = 1u << 20;  // Never crack.
  CrackedColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(2048);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  std::vector<Entry> out;
  ASSERT_TRUE(column.Scan(100, 200, &out).ok());
  EXPECT_EQ(column.crack_count(), 0u);
  EXPECT_EQ(out.size(), 101u);  // Filtering still yields exact results.
}

TEST(CrackingTest, PendingInsertsVisibleBeforeMerge) {
  Options options = SmallOptions();
  options.cracking.delta_merge_threshold = 1u << 20;
  CrackedColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(1000);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  ASSERT_TRUE(column.Insert(5000, 42).ok());
  EXPECT_EQ(column.Get(5000).value(), 42u);
  std::vector<Entry> out;
  ASSERT_TRUE(column.Scan(4990, 5010, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 42u);
}

TEST(CrackingTest, MergeResetsCracksAndAppliesDeletes) {
  Options options = SmallOptions();
  options.cracking.delta_merge_threshold = 1u << 20;
  CrackedColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(1000);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  std::vector<Entry> out;
  ASSERT_TRUE(column.Scan(100, 200, &out).ok());
  EXPECT_GT(column.crack_count(), 0u);
  ASSERT_TRUE(column.Delete(150).ok());
  ASSERT_TRUE(column.Flush().ok());  // Merge.
  EXPECT_EQ(column.crack_count(), 0u);
  out.clear();
  ASSERT_TRUE(column.Scan(149, 151, &out).ok());
  ASSERT_EQ(out.size(), 2u);  // 149 and 151; 150 gone.
}

// ------------------------------------------------------------------- Trie

TEST(TrieTest, ConstantDepthProbes) {
  Options options = SmallOptions();
  Trie trie(options);
  EXPECT_EQ(trie.depth(), 8u);  // 64 bits / 8-bit span.
  for (Key k = 0; k < 1000; ++k) {
    ASSERT_TRUE(trie.Insert(k * 1000003, k).ok());
  }
  trie.ResetStats();
  ASSERT_TRUE(trie.Get(999 * 1000003).ok());
  // Exactly depth pointer reads.
  EXPECT_EQ(trie.stats().bytes_read_aux, 8u * sizeof(void*));
}

TEST(TrieTest, SpaceIsPointerHeavy) {
  Options options = SmallOptions();
  Trie trie(options);
  for (Key k = 0; k < 1000; ++k) {
    ASSERT_TRUE(trie.Insert(k * 1000003, k).ok());
  }
  CounterSnapshot snap = trie.stats();
  // Node arrays dwarf the entries: the read-optimized corner pays in M.
  EXPECT_GT(snap.space_amplification(), 10.0);
}

TEST(TrieTest, DeletePrunesEmptyNodes) {
  Options options = SmallOptions();
  Trie trie(options);
  size_t empty_nodes = trie.inner_node_count();
  for (Key k = 0; k < 100; ++k) {
    ASSERT_TRUE(trie.Insert(k << 32, k).ok());
  }
  size_t full_nodes = trie.inner_node_count();
  EXPECT_GT(full_nodes, empty_nodes);
  for (Key k = 0; k < 100; ++k) {
    ASSERT_TRUE(trie.Delete(k << 32).ok());
  }
  EXPECT_EQ(trie.inner_node_count(), empty_nodes);
  EXPECT_EQ(trie.size(), 0u);
}

TEST(TrieTest, WideSpanIsShallower) {
  Options narrow = SmallOptions();
  narrow.trie.span_bits = 4;
  Options wide = SmallOptions();
  wide.trie.span_bits = 16;
  Trie narrow_trie(narrow);
  Trie wide_trie(wide);
  EXPECT_EQ(narrow_trie.depth(), 16u);
  EXPECT_EQ(wide_trie.depth(), 4u);
}

// ---------------------------------------------------------------- Columns

TEST(SortedColumnTest, StaysDenseAfterChurn) {
  Options options = SmallOptions();
  SortedColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(2000, 0, 2);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(column.Insert(rng.NextBelow(4000) | 1, i).ok());
    ASSERT_TRUE(column.Delete(rng.NextBelow(2000) * 2).ok());
  }
  // Density invariant: pages = ceil(count / capacity).
  size_t capacity = (512 - 8) / 16;
  size_t expected_pages = (column.size() + capacity - 1) / capacity;
  EXPECT_EQ(column.page_count(), expected_pages);
}

TEST(SortedColumnTest, InsertCostGrowsLinearlyWithPosition) {
  Options options = SmallOptions();
  SortedColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(8000, 0, 2);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  column.ResetStats();
  ASSERT_TRUE(column.Insert(1, 0).ok());  // Front: shifts everything.
  uint64_t front_cost = column.stats().total_bytes_written();
  column.ResetStats();
  ASSERT_TRUE(column.Insert(15999, 0).ok());  // Back: one page.
  uint64_t back_cost = column.stats().total_bytes_written();
  EXPECT_GT(front_cost, 100 * back_cost);
}

TEST(UnsortedColumnTest, BlindAppendIsCheap) {
  Options options = SmallOptions();
  UnsortedColumn column(options);
  for (Key k = 0; k < 310; ++k) {  // 10 pages at 31 entries/page.
    ASSERT_TRUE(column.Append(k, k).ok());
  }
  // Amortized: one block write per 31 appends, no reads.
  EXPECT_EQ(column.stats().blocks_written, 10u);
  EXPECT_EQ(column.stats().blocks_read, 0u);
}

// --------------------------------------------------- Partitioned B-tree

TEST(PbtTest, PartitionsSealAndMerge) {
  Options options = SmallOptions();
  options.pbt.partition_entries = 200;
  options.pbt.max_partitions = 3;
  PartitionedBTree pbt(options);
  for (Key k = 0; k < 1500; ++k) {
    ASSERT_TRUE(pbt.Insert(k * 13 % 5000, k).ok());
  }
  EXPECT_LE(pbt.partition_count(), 4u);
  EXPECT_GT(pbt.merges(), 0u);
  EXPECT_EQ(pbt.size(), pbt.partition_count() >= 1
                            ? pbt.size()
                            : 0u);  // size() consistency checked below.
  // Everything readable (newest version wins).
  for (Key k = 0; k < 1500; k += 97) {
    Key key = k * 13 % 5000;
    ASSERT_TRUE(pbt.Get(key).ok()) << key;
  }
}

TEST(PbtTest, NewestPartitionShadowsOlder) {
  Options options = SmallOptions();
  options.pbt.partition_entries = 10;
  options.pbt.max_partitions = 100;  // Never merge during the test.
  PartitionedBTree pbt(options);
  ASSERT_TRUE(pbt.Insert(5, 1).ok());
  // Seal the first partition by filling it.
  for (Key k = 100; k < 110; ++k) {
    ASSERT_TRUE(pbt.Insert(k, k).ok());
  }
  ASSERT_TRUE(pbt.Insert(5, 2).ok());  // Lands in a newer partition.
  EXPECT_GE(pbt.partition_count(), 2u);
  EXPECT_EQ(pbt.Get(5).value(), 2u);
  std::vector<Entry> out;
  ASSERT_TRUE(pbt.Scan(5, 5, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 2u);
  EXPECT_EQ(pbt.size(), 11u);  // 10 fillers + key 5.
}

TEST(PbtTest, WritesCheaperThanMonolithicBTree) {
  Options options = SmallOptions();
  options.pbt.partition_entries = 512;
  options.pbt.max_partitions = 8;
  PartitionedBTree pbt(options);
  BTree monolith(options);
  // Random inserts over a wide keyspace: the monolith rewrites leaves all
  // over; each PBT insert touches a tiny active tree.
  Rng rng(23);
  for (int i = 0; i < 8000; ++i) {
    Key k = rng.NextBelow(1u << 16);
    ASSERT_TRUE(pbt.Insert(k, i).ok());
    ASSERT_TRUE(monolith.Insert(k, i).ok());
  }
  EXPECT_LT(pbt.stats().total_bytes_read(),
            monolith.stats().total_bytes_read());
}

// ------------------------------------------------------- Sparse index

TEST(SparseIndexTest, PointQueryReadsExactlyOneBlock) {
  Options options = SmallOptions();
  options.column.sparse_index = true;
  SortedColumn column(options);
  EXPECT_EQ(column.name(), "sparse-index");
  std::vector<Entry> entries = MakeSortedEntries(5000);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  column.ResetStats();
  for (Key k = 0; k < 5000; k += 111) {
    ASSERT_TRUE(column.Get(k).ok());
  }
  size_t queries = (5000 + 110) / 111;
  EXPECT_EQ(column.stats().blocks_read, queries);  // One block each.
}

TEST(SparseIndexTest, AuxSpaceIsOneKeyPerPage) {
  Options options = SmallOptions();
  options.column.sparse_index = true;
  SortedColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(3100);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  EXPECT_EQ(column.stats().space_aux, column.page_count() * sizeof(Key));
}

TEST(SparseIndexTest, FencesTrackChurn) {
  Options options = SmallOptions();
  options.column.sparse_index = true;
  SortedColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(1000, 0, 2);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  // Delete the whole front -- fences must shift with the cascades.
  for (Key k = 0; k < 400; ++k) {
    ASSERT_TRUE(column.Delete(k * 2).ok());
  }
  for (Key k = 400; k < 1000; k += 37) {
    ASSERT_EQ(column.Get(k * 2).value(), ValueFor(k * 2)) << k;
  }
  EXPECT_EQ(column.stats().space_aux, column.page_count() * sizeof(Key));
}

// ------------------------------------------------------------ Bloom zones

TEST(BloomZoneTest, PointQueriesSkipMostZones) {
  Options options = SmallOptions();
  BloomZoneColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(10000, 0, 2);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  column.ResetStats();
  const int kQueries = 200;
  Rng rng(17);
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(column.Get(rng.NextBelow(10000) * 2).ok());
  }
  // ~79 zones of 128 entries; a full scan would read ~323 blocks/query.
  double blocks_per_query =
      static_cast<double>(column.stats().blocks_read) / kQueries;
  EXPECT_LT(blocks_per_query, 15.0);
}

TEST(BloomZoneTest, DeletesTriggerRebuildAndReclaim) {
  Options options = SmallOptions();
  options.approx.rebuild_deleted_fraction = 0.1;
  BloomZoneColumn column(options);
  std::vector<Entry> entries = MakeSortedEntries(2000);
  ASSERT_TRUE(column.BulkLoad(entries).ok());
  for (Key k = 0; k < 500; ++k) {
    ASSERT_TRUE(column.Delete(k).ok());
  }
  // Rebuilds kept the tombstone set small.
  EXPECT_LT(column.deleted_count(), 250u);
  EXPECT_EQ(column.size(), 1500u);
  for (Key k = 500; k < 520; ++k) {
    EXPECT_EQ(column.Get(k).value(), ValueFor(k));
  }
}

// ---------------------------------------------------------------- KeySet

TEST(KeySetTest, MatchesUnorderedSetUnderChurn) {
  // 4K keys: small ones, ones that differ only in high bits, and the two
  // ends of the key range. Inserts lead for the first half (the table
  // doubles from 16 slots to 4K), erases lead for the second (every erase
  // shifts a probe run back).
  std::vector<Key> domain = {0, kMaxKey, kMaxKey - 1, 1};
  for (Key k = 2; domain.size() < 2048; ++k) domain.push_back(k);
  for (Key k = 1; domain.size() < 4096; ++k) domain.push_back(k << 40);
  KeySet set;
  std::unordered_set<Key> model;
  Rng rng(0x6b5e);
  constexpr int kOps = 200000;
  for (int i = 0; i < kOps; ++i) {
    Key key = domain[rng.NextBelow(domain.size())];
    uint64_t roll = rng.NextBelow(10);
    uint64_t insert_share = i < kOps / 2 ? 6 : 3;
    if (roll < insert_share) {
      ASSERT_EQ(set.insert(key), model.insert(key).second) << "op " << i;
    } else if (roll < 9) {
      ASSERT_EQ(set.erase(key), model.erase(key) == 1) << "op " << i;
    }
    ASSERT_EQ(set.size(), model.size()) << "op " << i;
    ASSERT_EQ(set.contains(key), model.contains(key)) << "op " << i;
  }
  for (Key key : domain) {
    EXPECT_EQ(set.contains(key), model.contains(key)) << key;
  }
}

// --------------------------------------------------------------- Skiplist

// What a seeded op stream leaves behind in a bare SkipListMap.
struct SkipListRun {
  CounterSnapshot snap;
  size_t records = 0;
  size_t live = 0;
};

// Drives a bare map with `ops` seeded Put/Find/Erase/VisitRange/Clear ops
// over 512 keys, 0 and kMaxKey among them, checking every answer against a
// std::map model.
void DriveSkipList(size_t max_height, int ops, SkipListRun* run) {
  Options::SkipList options;
  options.max_height = max_height;
  RumCounters counters;
  SkipListMap map(options, &counters);
  std::map<Key, SkipListMap::Record> model;
  Rng rng(0x5c1b);
  auto pick = [&] {
    Key key = rng.NextBelow(512);
    return key == 511 ? kMaxKey : key;
  };
  for (int i = 0; i < ops; ++i) {
    uint64_t roll = rng.NextBelow(1000);
    Key key = pick();
    if (roll < 450) {
      SkipListMap::Record record{key, rng.Next(), rng.NextBelow(5) == 0};
      map.Put(key, record.value, record.tombstone);
      model[key] = record;
    } else if (roll < 700) {
      SkipListMap::Record got{};
      auto it = model.find(key);
      ASSERT_EQ(map.Find(key, &got), it != model.end()) << "op " << i;
      if (it != model.end()) {
        EXPECT_EQ(got.value, it->second.value) << "op " << i;
        EXPECT_EQ(got.tombstone, it->second.tombstone) << "op " << i;
      }
    } else if (roll < 850) {
      map.Erase(key);
      model.erase(key);
    } else if (roll < 999) {
      Key hi = rng.NextBelow(8) == 0 ? kMaxKey
                                     : std::min<Key>(key, 510) +
                                           rng.NextBelow(64);
      std::vector<Key> seen;
      map.VisitRange(key, hi, [&](const SkipListMap::Record& r) {
        seen.push_back(r.key);
      });
      std::vector<Key> expected;
      for (auto it = model.lower_bound(key);
           it != model.end() && it->first <= hi; ++it) {
        expected.push_back(it->first);
      }
      EXPECT_EQ(seen, expected) << "op " << i;
    } else {
      map.Clear();
      model.clear();
    }
    ASSERT_EQ(map.record_count(), model.size()) << "op " << i;
  }
  *run = {counters.snapshot(), map.record_count(), map.live_count()};
}

TEST(SkipListMapTest, ChargesOfASeededStream) {
  // Where a node lives in memory must not move a charge, a space level or
  // a count: these values are pinned.
  struct Expected {
    size_t max_height;
    CounterSnapshot snap;
  };
  const Expected cases[] = {
      {1,
       {.bytes_read_base = 4675320,
        .bytes_read_aux = 4506328,
        .bytes_written_base = 29552,
        .bytes_written_aux = 32128,
        .space_base = 1440,
        .space_aux = 1064}},
      {16,
       {.bytes_read_base = 808008,
        .bytes_read_aux = 660088,
        .bytes_written_base = 29552,
        .bytes_written_aux = 40672,
        .space_base = 1440,
        .space_aux = 1416}},
      {64,
       {.bytes_read_base = 808008,
        .bytes_read_aux = 660088,
        .bytes_written_base = 29552,
        .bytes_written_aux = 40672,
        .space_base = 1440,
        .space_aux = 1800}},
  };
  for (const Expected& expected : cases) {
    SCOPED_TRACE(expected.max_height);
    SkipListRun run;
    DriveSkipList(expected.max_height, 5000, &run);
    testing_util::ExpectSnapshotsEqual(run.snap, expected.snap);
    EXPECT_EQ(run.records, 104u);
    EXPECT_EQ(run.live, 90u);
  }
}

TEST(SkipListMapTest, ConstructorClampsMaxHeight) {
  // A promote probability of 1 gives every node a full tower, so a cap the
  // constructor failed to clamp would show in the tower bytes (and, under
  // AddressSanitizer, as an overrun of the node's slots).
  for (auto [asked, clamped] : {std::pair<size_t, size_t>{0, 1},
                                {65, 64},
                                {1000, 64}}) {
    SCOPED_TRACE(asked);
    Options::SkipList options;
    options.max_height = asked;
    options.promote_probability = 1.0;
    RumCounters counters;
    SkipListMap map(options, &counters);
    EXPECT_EQ(map.aux_bytes(), clamped * sizeof(void*));
    constexpr Key kKeys = 300;
    for (Key k = kKeys; k-- > 0;) map.Put(k * 2, ValueFor(k), false);
    EXPECT_EQ(map.aux_bytes(), (kKeys + 1) * clamped * sizeof(void*));
    for (Key k = 0; k < kKeys; k += 7) map.Erase(k * 2);
    for (Key k = 0; k < kKeys; ++k) {
      SkipListMap::Record record{};
      ASSERT_EQ(map.Find(k * 2, &record), k % 7 != 0) << k;
      ASSERT_FALSE(map.Find(k * 2 + 1, &record)) << k;
    }
    size_t visited = 0;
    map.VisitRange(0, kMaxKey, [&](const SkipListMap::Record&) {
      ++visited;
    });
    EXPECT_EQ(visited, map.record_count());
  }
}

// Puts, overwrites, finds, scans and erases a fixed key set; returns the
// traffic it charged and the space it left.
CounterSnapshot RefillCharges(SkipListMap& map, RumCounters& counters) {
  CounterSnapshot before = counters.snapshot();
  for (Key k = 0; k < 400; ++k) map.Put((k * 7919) % 1000, k, k % 9 == 0);
  for (Key k = 0; k < 400; k += 3) map.Put((k * 7919) % 1000, k + 1, false);
  SkipListMap::Record record{};
  for (Key k = 0; k < 1000; k += 5) map.Find(k, &record);
  map.VisitRange(100, 700, [](const SkipListMap::Record&) {});
  for (Key k = 0; k < 1000; k += 4) map.Erase(k);
  return counters.snapshot() - before;
}

TEST(SkipListMapTest, ClearThenRefillChargesLikeAFreshMap) {
  // Heights come from one generator that Clear does not rewind, so these
  // cases pin them: a cap of 1, or a promote probability of 1.
  for (auto [max_height, promote] :
       {std::pair<size_t, double>{1, 0.25}, {16, 1.0}, {64, 1.0}}) {
    SCOPED_TRACE(max_height);
    Options::SkipList options;
    options.max_height = max_height;
    options.promote_probability = promote;
    RumCounters fresh_counters;
    SkipListMap fresh(options, &fresh_counters);
    RumCounters reused_counters;
    SkipListMap reused(options, &reused_counters);
    // Fill past one arena chunk, free some nodes, then clear. (Descending
    // puts keep full-tower descents short.)
    for (Key k = 5000; k-- > 0;) reused.Put(k, k, k % 5 == 0);
    for (Key k = 0; k < 600; k += 3) reused.Erase(k);
    reused.Clear();
    EXPECT_EQ(reused.record_count(), 0u);
    EXPECT_EQ(reused.live_count(), 0u);
    EXPECT_EQ(reused.aux_bytes(), fresh.aux_bytes());
    EXPECT_EQ(reused.base_bytes(), 0u);
    testing_util::ExpectSnapshotsEqual(
        RefillCharges(reused, reused_counters),
        RefillCharges(fresh, fresh_counters));
    EXPECT_EQ(reused.record_count(), fresh.record_count());
    EXPECT_EQ(reused.live_count(), fresh.live_count());
  }
}

}  // namespace
}  // namespace rum
