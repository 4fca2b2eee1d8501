// Structural tests for the LSM-tree: run layout, compaction policies,
// Bloom-filter effect, tombstone GC, space accounting.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/trace.h"
#include "methods/factory.h"
#include "methods/lsm/lsm_tree.h"
#include "methods/lsm/sorted_run.h"
#include "methods/newest_wins_merge.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "storage/page_format.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"

namespace rum {
namespace {

using testing_util::SmallOptions;

std::vector<LogRecord> MakeRecords(size_t n, Key first = 0, Key stride = 1) {
  std::vector<LogRecord> records;
  records.reserve(n);
  Key k = first;
  for (size_t i = 0; i < n; ++i) {
    records.push_back(LogRecord{k, ValueFor(k), LogOp::kPut});
    k += stride;
  }
  return records;
}

// Walks the records of `run` keyed in [lo, hi] with a cursor, as a Scan
// does, appending their keys to `keys`.
Status CursorRange(SortedRun* run, Key lo, Key hi, std::vector<Key>* keys) {
  SortedRun::Cursor cursor(run);
  Status s = cursor.SeekFirstAtLeast(lo);
  for (; s.ok() && cursor.Valid() && cursor.record().key <= hi;
       s = cursor.Next()) {
    keys->push_back(cursor.record().key);
  }
  return s;
}

TEST(SortedRunTest, BuildAndGet) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  std::unique_ptr<SortedRun> run;
  ASSERT_TRUE(
      SortedRun::Build(&device, &counters, MakeRecords(1000, 0, 2), 10, &run)
          .ok());
  EXPECT_EQ(run->record_count(), 1000u);
  EXPECT_EQ(run->min_key(), 0u);
  EXPECT_EQ(run->max_key(), 1998u);
  Result<std::optional<LogRecord>> hit = run->Get(500);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit.value().has_value());
  EXPECT_EQ(hit.value()->value, ValueFor(500));
  // A key in range but absent (odd).
  hit = run->Get(501);
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(hit.value().has_value());
}

TEST(SortedRunTest, GetReadsOnePageViaFences) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  std::unique_ptr<SortedRun> run;
  ASSERT_TRUE(SortedRun::Build(&device, &counters, MakeRecords(5000), 0,
                               &run)
                  .ok());
  CounterSnapshot before = counters.snapshot();
  ASSERT_TRUE(run->Get(2500).ok());
  CounterSnapshot delta = counters.snapshot() - before;
  EXPECT_EQ(delta.blocks_read, 1u);  // Fences narrowed to one page.
}

TEST(SortedRunTest, BloomSkipsAbsentKeysWithoutIo) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  std::unique_ptr<SortedRun> run;
  ASSERT_TRUE(SortedRun::Build(&device, &counters, MakeRecords(2000, 0, 2),
                               12, &run)
                  .ok());
  CounterSnapshot before = counters.snapshot();
  size_t io_probes = 0;
  for (Key k = 1; k < 2000; k += 2) {  // All absent.
    ASSERT_TRUE(run->Get(k).ok());
  }
  CounterSnapshot delta = counters.snapshot() - before;
  io_probes = delta.blocks_read;
  // Nearly all misses are filtered before any page read.
  EXPECT_LT(io_probes, 50u);
}

TEST(SortedRunTest, SparseFencesTradeSpaceForPageReads) {
  RumCounters dense_counters, sparse_counters;
  BlockDevice dense_device(512, &dense_counters);
  BlockDevice sparse_device(512, &sparse_counters);
  std::unique_ptr<SortedRun> dense, sparse;
  // 31 records/page at 512 B; 8 pages per fence for the sparse run.
  ASSERT_TRUE(SortedRun::Build(&dense_device, &dense_counters,
                               MakeRecords(5000), 0, &dense,
                               /*fence_entries=*/0)
                  .ok());
  ASSERT_TRUE(SortedRun::Build(&sparse_device, &sparse_counters,
                               MakeRecords(5000), 0, &sparse,
                               /*fence_entries=*/31 * 8)
                  .ok());
  // Sparse fences are smaller auxiliary state...
  EXPECT_LT(sparse_counters.snapshot().space_aux,
            dense_counters.snapshot().space_aux);
  // ...but every lookup may scan up to the fence-group width.
  CounterSnapshot before_d = dense_counters.snapshot();
  CounterSnapshot before_s = sparse_counters.snapshot();
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    Key k = rng.NextBelow(5000);
    Result<std::optional<LogRecord>> d = dense->Get(k);
    Result<std::optional<LogRecord>> s = sparse->Get(k);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(s.ok());
    // Same answers regardless of fence granularity.
    ASSERT_EQ(d.value().has_value(), s.value().has_value()) << k;
  }
  uint64_t dense_blocks =
      (dense_counters.snapshot() - before_d).blocks_read;
  uint64_t sparse_blocks =
      (sparse_counters.snapshot() - before_s).blocks_read;
  EXPECT_GT(sparse_blocks, dense_blocks);
}

// Irregular deltas (one- to three-byte varints), tombstones and big jumps.
std::vector<LogRecord> RandomDeltaRecords() {
  std::vector<LogRecord> records;
  Rng rng(61);
  Key k = 0;
  for (int i = 0; i < 3000; ++i) {
    k += 1 + rng.NextBelow(1u << (1 + rng.NextBelow(20)));
    records.push_back(LogRecord{k, rng.Next(),
                                rng.NextBelow(5) == 0 ? LogOp::kDelete
                                                      : LogOp::kPut});
  }
  return records;
}

TEST(SortedRunTest, CompressedRunsRoundTripExactly) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  // Irregular deltas, tombstones, and big jumps all survive the codec.
  const std::vector<LogRecord> records = RandomDeltaRecords();
  std::unique_ptr<SortedRun> run;
  ASSERT_TRUE(SortedRun::Build(&device, &counters, records, 0, &run, 0,
                               /*compress=*/true)
                  .ok());
  EXPECT_TRUE(run->compressed());
  // Every record readable via Get...
  for (size_t i = 0; i < records.size(); i += 97) {
    Result<std::optional<LogRecord>> hit = run->Get(records[i].key);
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(hit.value().has_value()) << i;
    EXPECT_EQ(hit.value()->value, records[i].value);
    EXPECT_EQ(hit.value()->op, records[i].op);
  }
  // ...and the full stream replays in order.
  std::vector<LogRecord> replay;
  ASSERT_TRUE(
      run->VisitAll([&](const LogRecord& r) { replay.push_back(r); }).ok());
  ASSERT_EQ(replay.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(replay[i].key, records[i].key) << i;
    ASSERT_EQ(replay[i].value, records[i].value) << i;
  }
}

TEST(SortedRunTest, CompressionShrinksDenseRuns) {
  RumCounters raw_counters, comp_counters;
  BlockDevice raw_device(512, &raw_counters);
  BlockDevice comp_device(512, &comp_counters);
  std::vector<LogRecord> records = MakeRecords(10000);  // Dense keys.
  std::unique_ptr<SortedRun> raw, comp;
  ASSERT_TRUE(
      SortedRun::Build(&raw_device, &raw_counters, records, 0, &raw).ok());
  ASSERT_TRUE(SortedRun::Build(&comp_device, &comp_counters, records, 0,
                               &comp, 0, /*compress=*/true)
                  .ok());
  // Dense keys: ~10 bytes/record vs 17 -- expect a solid page reduction.
  EXPECT_LT(comp->page_count(), raw->page_count() * 3 / 4);
  // Range reads touch proportionally fewer blocks.
  CounterSnapshot rb = raw_counters.snapshot();
  CounterSnapshot cb = comp_counters.snapshot();
  std::vector<Key> raw_keys, comp_keys;
  ASSERT_TRUE(CursorRange(raw.get(), 2000, 4000, &raw_keys).ok());
  ASSERT_TRUE(CursorRange(comp.get(), 2000, 4000, &comp_keys).ok());
  EXPECT_EQ(comp_keys, raw_keys);
  uint64_t raw_blocks = (raw_counters.snapshot() - rb).blocks_read;
  uint64_t comp_blocks = (comp_counters.snapshot() - cb).blocks_read;
  EXPECT_LT(comp_blocks, raw_blocks);
}

// The packer fills each page until the next record would not fit. On
// 512-byte blocks a fixed-width page holds (512 - 8) / 17 = 29 records, and
// a compressed page of consecutive keys 50 (a one-byte key delta, the value
// and the op byte: 10 bytes each), so one record past three full pages
// opens a fourth. Blocks of 8 + 30 * 17 = 518 and 8 + 50 * 10 = 508 bytes
// fit their last record exactly. Each page starts and ends on the expected
// key.
TEST(SortedRunTest, PagesHoldEveryRecordThatFits) {
  struct Format {
    size_t block;
    bool compress;
    size_t per_page;
  };
  for (const Format f : {Format{512, false, 29}, Format{512, true, 50},
                         Format{518, false, 30}, Format{508, true, 50}}) {
    for (size_t n : {3 * f.per_page, 3 * f.per_page + 1}) {
      SCOPED_TRACE(testing::Message() << "block=" << f.block << " compress="
                                      << f.compress << " records=" << n);
      RumCounters counters;
      BlockDevice device(f.block, &counters);
      std::unique_ptr<SortedRun> run;
      ASSERT_TRUE(SortedRun::Build(&device, &counters, MakeRecords(n), 0,
                                   &run, 0, f.compress)
                      .ok());
      ASSERT_EQ(run->page_count(), n == 3 * f.per_page ? 3u : 4u);
      for (size_t page = 0; page < run->page_count(); ++page) {
        const Key first = page * f.per_page;
        const Key last = std::min<Key>(first + f.per_page, n) - 1;
        SortedRun::Cursor cursor(run.get());
        ASSERT_TRUE(cursor.SeekTo(page, 0).ok());
        EXPECT_EQ(cursor.record().key, first) << page;
        ASSERT_TRUE(cursor.SeekTo(page, last - first).ok());
        ASSERT_EQ(cursor.page_index(), page);
        EXPECT_EQ(cursor.record().key, last) << page;
        for (Key k : {first, last}) {
          Result<std::optional<LogRecord>> hit = run->Get(k);
          ASSERT_TRUE(hit.ok());
          ASSERT_TRUE(hit.value().has_value()) << k;
          EXPECT_EQ(hit.value()->value, ValueFor(k));
        }
      }
    }
  }
}

TEST(LsmTreeTest, CompressedTreeShrinksResidency) {
  Options raw_opts = SmallOptions();
  Options comp_opts = SmallOptions();
  comp_opts.lsm.compress_runs = true;
  LsmTree raw(raw_opts);
  LsmTree comp(comp_opts);
  EXPECT_EQ(comp.name(), "lsm-compressed");
  for (Key k = 0; k < 20000; ++k) {
    ASSERT_TRUE(raw.Insert(k, k).ok());
    ASSERT_TRUE(comp.Insert(k, k).ok());
  }
  ASSERT_TRUE(raw.Flush().ok());
  ASSERT_TRUE(comp.Flush().ok());
  EXPECT_LT(comp.stats().total_space(), raw.stats().total_space() * 3 / 4);
  // Same answers.
  for (Key k = 0; k < 20000; k += 977) {
    ASSERT_EQ(comp.Get(k).value(), raw.Get(k).value());
  }
}

TEST(SortedRunTest, CursorRangeHonorsBounds) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  std::unique_ptr<SortedRun> run;
  ASSERT_TRUE(
      SortedRun::Build(&device, &counters, MakeRecords(1000), 0, &run).ok());
  std::vector<Key> keys;
  ASSERT_TRUE(CursorRange(run.get(), 100, 110, &keys).ok());
  ASSERT_EQ(keys.size(), 11u);
  EXPECT_EQ(keys.front(), 100u);
  EXPECT_EQ(keys.back(), 110u);
}

TEST(SortedRunTest, DestroyReleasesAllSpace) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  {
    std::unique_ptr<SortedRun> run;
    ASSERT_TRUE(SortedRun::Build(&device, &counters, MakeRecords(1000), 10,
                                 &run)
                    .ok());
    EXPECT_GT(counters.snapshot().total_space(), 0u);
    ASSERT_TRUE(run->Destroy().ok());
  }
  EXPECT_EQ(counters.snapshot().total_space(), 0u);
  EXPECT_EQ(device.live_pages(), 0u);
}

TEST(SortedRunTest, EmptyBuildRejected) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  std::unique_ptr<SortedRun> run;
  EXPECT_EQ(
      SortedRun::Build(&device, &counters, {}, 10, &run).code(),
      Code::kInvalidArgument);
}

// A block must hold a page's first record in either format: 8 header bytes
// plus 17 fixed-width, or up to 19 compressed.
TEST(SortedRunTest, BlockTooSmallForOneRecordRejected) {
  RumCounters counters;
  BlockDevice device(16, &counters);
  std::unique_ptr<SortedRun> run;
  for (bool compress : {false, true}) {
    EXPECT_EQ(SortedRun::Build(&device, &counters, MakeRecords(10), 10, &run,
                               0, compress)
                  .code(),
              Code::kInvalidArgument)
        << compress;
  }
  EXPECT_EQ(device.live_pages(), 0u);
}

// A compaction's merge of in-memory streams, newest first: the first is
// MergeSortedRuns' newest stream, the others are built into runs.
std::vector<LogRecord> MergeStreams(std::vector<std::vector<LogRecord>> streams,
                                    bool drop_tombstones) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  std::vector<std::unique_ptr<SortedRun>> runs(streams.size() - 1);
  std::vector<SortedRun*> inputs;
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_TRUE(
        SortedRun::Build(&device, &counters, streams[i + 1], 0, &runs[i])
            .ok());
    inputs.push_back(runs[i].get());
  }
  std::vector<LogRecord> merged;
  EXPECT_TRUE(MergeSortedRuns(std::move(streams[0]), inputs, drop_tombstones,
                              &merged)
                  .ok());
  return merged;
}

TEST(MergeStreamsTest, NewestStreamShadowsOlder) {
  std::vector<std::vector<LogRecord>> streams(2);
  streams[0] = {{1, 100, LogOp::kPut}, {3, 300, LogOp::kPut}};
  streams[1] = {{1, 1, LogOp::kPut}, {2, 2, LogOp::kPut}};
  std::vector<LogRecord> merged = MergeStreams(std::move(streams), false);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, 1u);
  EXPECT_EQ(merged[0].value, 100u);  // Newest wins.
  EXPECT_EQ(merged[1].key, 2u);
  EXPECT_EQ(merged[2].key, 3u);
}

TEST(MergeStreamsTest, TombstonesDroppedOnlyWhenAsked) {
  std::vector<std::vector<LogRecord>> streams(2);
  streams[0] = {{1, 0, LogOp::kDelete}};
  streams[1] = {{1, 11, LogOp::kPut}, {2, 22, LogOp::kPut}};
  std::vector<std::vector<LogRecord>> copy = streams;

  std::vector<LogRecord> keep = MergeStreams(std::move(copy), false);
  ASSERT_EQ(keep.size(), 2u);
  EXPECT_EQ(keep[0].op, LogOp::kDelete);

  std::vector<LogRecord> drop = MergeStreams(std::move(streams), true);
  ASSERT_EQ(drop.size(), 1u);
  EXPECT_EQ(drop[0].key, 2u);
}

using Records = std::vector<LogRecord>;

// A merge source over `records` whose step off record `fail_at` fails.
struct FailingSource {
  Records records;
  size_t fail_at = SIZE_MAX;
  size_t pos = 0;

  bool Valid() const { return pos < records.size(); }
  const LogRecord& record() const { return records[pos]; }
  Status Next() {
    if (pos == fail_at) return Status::IOError("step fails");
    ++pos;
    return Status::OK();
  }
};

// `n` ascending sources over keys [0, 48), each holding none, a quarter,
// half or three quarters of them, so most keys repeat across sources. One
// record in four is a tombstone; a value names its source and key.
std::vector<Records> RandomSources(Rng* rng, size_t n) {
  std::vector<Records> sources(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t density = rng->NextBelow(4);
    for (Key k = 0; k < 48; ++k) {
      if (rng->NextBelow(4) >= density) continue;
      sources[i].push_back(LogRecord{
          k, i * 1000 + k,
          rng->NextBelow(4) == 0 ? LogOp::kDelete : LogOp::kPut});
    }
  }
  return sources;
}

// The newest-wins rule written against a std::map: per key up to `hi`, the
// record of the newest source holding it, tombstones included.
Records MapReference(const std::vector<Records>& sources, Key hi) {
  std::map<Key, LogRecord> newest;
  for (const Records& source : sources) {
    for (const LogRecord& r : source) {
      if (r.key <= hi) newest.emplace(r.key, r);  // Newer sources came first.
    }
  }
  Records out;
  for (const auto& [key, r] : newest) out.push_back(r);
  return out;
}

template <typename Source>
Status MergeInto(std::vector<Source>* sources, Key hi, Records* visited) {
  return MergeNewestWins(std::span(*sources), hi, [&](const LogRecord& r) {
    visited->push_back(r);
  });
}

std::vector<std::tuple<Key, Value, LogOp>> Fields(const Records& records) {
  std::vector<std::tuple<Key, Value, LogOp>> out;
  for (const LogRecord& r : records) out.emplace_back(r.key, r.value, r.op);
  return out;
}

TEST(NewestWinsMergeTest, MatchesAMapReference) {
  Rng rng(26);
  size_t tombstones = 0;
  size_t shadowed = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Records> records = RandomSources(&rng, 1 + trial % 8);
    Key hi = trial % 3 == 0 ? kMaxKey : rng.NextBelow(56);
    std::vector<SpanSource<LogRecord>> sources(records.begin(),
                                               records.end());
    Records visited;
    ASSERT_TRUE(MergeInto(&sources, hi, &visited).ok());
    Records expected = MapReference(records, hi);
    ASSERT_EQ(Fields(visited), Fields(expected)) << "trial " << trial;
    for (const LogRecord& r : visited) tombstones += r.op == LogOp::kDelete;
    for (const Records& source : records) {
      for (const LogRecord& r : source) shadowed += r.key <= hi;
    }
    shadowed -= visited.size();
  }
  // The streams exercised both rules: tombstones reached the visitor, and
  // older sources held keys a newer one shadowed.
  EXPECT_GT(tombstones, 500u);
  EXPECT_GT(shadowed, 500u);
}

TEST(NewestWinsMergeTest, EmptySourcesAndALoneSource) {
  Records visited;
  std::vector<SpanSource<LogRecord>> none;
  ASSERT_TRUE(MergeInto(&none, kMaxKey, &visited).ok());
  EXPECT_TRUE(visited.empty());

  std::vector<Records> empty(3);
  std::vector<SpanSource<LogRecord>> empties(empty.begin(), empty.end());
  ASSERT_TRUE(MergeInto(&empties, kMaxKey, &visited).ok());
  EXPECT_TRUE(visited.empty());

  // A lone source streams whole, up to hi; among empty sources it is the
  // same stream.
  Records lone = {{2, 20, LogOp::kPut}, {5, 0, LogOp::kDelete},
                  {9, 90, LogOp::kPut}};
  for (size_t position : {0, 1, 3}) {
    std::vector<Records> records(position);
    records.push_back(lone);
    records.resize(4);
    for (Key hi : {kMaxKey, Key{5}}) {
      std::vector<SpanSource<LogRecord>> sources(records.begin(),
                                                 records.end());
      visited.clear();
      ASSERT_TRUE(MergeInto(&sources, hi, &visited).ok());
      EXPECT_EQ(Fields(visited), Fields(MapReference(records, hi)))
          << position << " " << hi;
      EXPECT_EQ(visited.size(), hi == kMaxKey ? 3u : 2u);
    }
  }
}

// A failed step ends the merge at once with that step's status, having
// visited every key up to the one the failing source stood on and none
// past it.
TEST(NewestWinsMergeTest, FailedStepReturnsAfterVisitingTheKeysBeforeIt) {
  Rng rng(27);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Records> records = RandomSources(&rng, 1 + trial % 8);
    size_t failing = rng.NextBelow(records.size());
    if (records[failing].empty()) continue;
    size_t fail_at = rng.NextBelow(records[failing].size());
    std::vector<FailingSource> sources;
    for (const Records& r : records) sources.push_back(FailingSource{r});
    sources[failing].fail_at = fail_at;
    Records visited;
    Status s = MergeInto(&sources, kMaxKey, &visited);
    EXPECT_EQ(s.code(), Code::kIOError) << "trial " << trial;
    Key stood_on = records[failing][fail_at].key;
    ASSERT_EQ(Fields(visited), Fields(MapReference(records, stood_on)))
        << "trial " << trial;
  }
}

TEST(LsmTreeTest, LeveledKeepsOneRunPerLevel) {
  Options options = SmallOptions();
  options.lsm.policy = LsmPolicy::kLeveled;
  LsmTree tree(options);
  for (Key k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree.Insert(k, k).ok());
  }
  for (size_t level = 0; level < tree.level_count(); ++level) {
    EXPECT_LE(tree.runs_at(level), 1u) << "level " << level;
  }
}

TEST(LsmTreeTest, TieredAccumulatesRunsPerLevel) {
  Options options = SmallOptions();
  options.lsm.policy = LsmPolicy::kTiered;
  LsmTree tree(options);
  for (Key k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree.Insert(k, k).ok());
  }
  for (size_t level = 0; level < tree.level_count(); ++level) {
    EXPECT_LT(tree.runs_at(level), options.lsm.size_ratio)
        << "level " << level;
  }
  EXPECT_GT(tree.total_runs(), 1u);
}

TEST(LsmTreeTest, TieredWritesLessThanLeveled) {
  Options options = SmallOptions();
  options.lsm.policy = LsmPolicy::kLeveled;
  LsmTree leveled(options);
  options.lsm.policy = LsmPolicy::kTiered;
  LsmTree tiered(options);
  Rng rng(21);
  for (int i = 0; i < 20000; ++i) {
    Key k = rng.NextBelow(1u << 14);
    ASSERT_TRUE(leveled.Insert(k, i).ok());
    ASSERT_TRUE(tiered.Insert(k, i).ok());
  }
  EXPECT_LT(tiered.stats().total_bytes_written(),
            leveled.stats().total_bytes_written());
}

TEST(LsmTreeTest, LeveledReadsLessThanTieredWithoutFilters) {
  Options options = SmallOptions();
  options.lsm.bloom_bits_per_key = 0;  // Isolate run-count effect.
  options.lsm.policy = LsmPolicy::kLeveled;
  LsmTree leveled(options);
  options.lsm.policy = LsmPolicy::kTiered;
  LsmTree tiered(options);
  Rng rng(22);
  for (int i = 0; i < 20000; ++i) {
    Key k = rng.NextBelow(1u << 14);
    ASSERT_TRUE(leveled.Insert(k, i).ok());
    ASSERT_TRUE(tiered.Insert(k, i).ok());
  }
  leveled.ResetStats();
  tiered.ResetStats();
  for (int i = 0; i < 2000; ++i) {
    Key k = rng.NextBelow(1u << 14);
    (void)leveled.Get(k);
    (void)tiered.Get(k);
  }
  EXPECT_LT(leveled.stats().total_bytes_read(),
            tiered.stats().total_bytes_read());
}

TEST(LsmTreeTest, BloomFiltersCutReadBytes) {
  Options with = SmallOptions();
  with.lsm.bloom_bits_per_key = 10;
  Options without = SmallOptions();
  without.lsm.bloom_bits_per_key = 0;
  LsmTree filtered(with);
  LsmTree naked(without);
  for (Key k = 0; k < 10000; k += 2) {
    ASSERT_TRUE(filtered.Insert(k, k).ok());
    ASSERT_TRUE(naked.Insert(k, k).ok());
  }
  filtered.ResetStats();
  naked.ResetStats();
  for (Key k = 1; k < 10000; k += 2) {  // All misses.
    (void)filtered.Get(k);
    (void)naked.Get(k);
  }
  EXPECT_LT(filtered.stats().blocks_read, naked.stats().blocks_read / 2);
}

TEST(LsmTreeTest, TombstonesCollectedAtBottomLevel) {
  Options options = SmallOptions();
  LsmTree tree(options);
  for (Key k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree.Insert(k, k).ok());
  }
  for (Key k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree.Delete(k).ok());
  }
  // Keep inserting a disjoint range so compaction keeps running and the
  // tombstones reach the bottom.
  for (Key k = 10000; k < 14000; ++k) {
    ASSERT_TRUE(tree.Insert(k, k).ok());
  }
  ASSERT_TRUE(tree.Flush().ok());
  EXPECT_EQ(tree.size(), 4000u);
  // Every original key really reads as absent.
  for (Key k = 0; k < 2000; k += 97) {
    EXPECT_TRUE(tree.Get(k).status().IsNotFound()) << k;
  }
}

TEST(LsmTreeTest, StatsSplitLiveFromStale) {
  Options options = SmallOptions();
  LsmTree tree(options);
  // Overwrite the same small key set many times: most bytes are stale.
  for (int round = 0; round < 20; ++round) {
    for (Key k = 0; k < 500; ++k) {
      ASSERT_TRUE(tree.Insert(k, round).ok());
    }
  }
  CounterSnapshot snap = tree.stats();
  EXPECT_EQ(snap.space_base, 500u * kEntrySize);
  EXPECT_GT(snap.space_aux, 0u);
  EXPECT_GT(snap.space_amplification(), 1.2);
}

TEST(LsmTreeTest, BulkLoadLandsInOneDeepRun) {
  Options options = SmallOptions();
  LsmTree tree(options);
  std::vector<Entry> entries = MakeSortedEntries(5000);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  EXPECT_EQ(tree.total_runs(), 1u);
  EXPECT_EQ(tree.size(), 5000u);
  EXPECT_EQ(tree.Get(123).value(), ValueFor(123));
}

// ------------------------------------------------------ SortedRun::Cursor

// The cursor cases run on both page formats. On 512-byte blocks a page
// holds 29 fixed-width records, or 50 compressed ones when each key is one
// or two past the last (PagesHoldEveryRecordThatFits).
struct RunFormat {
  bool compress;
  size_t per_page;
};
constexpr RunFormat kRunFormats[] = {{false, 29}, {true, 50}};

std::unique_ptr<SortedRun> BuildRun(Device* device, RumCounters* counters,
                                    const std::vector<LogRecord>& records,
                                    bool compress) {
  std::unique_ptr<SortedRun> run;
  Status s =
      SortedRun::Build(device, counters, records, 0, &run, 0, compress);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return run;
}

TEST(SortedRunCursorTest, WalksEveryRecordInOrder) {
  for (const RunFormat f : kRunFormats) {
    SCOPED_TRACE(testing::Message() << "compress=" << f.compress);
    RumCounters counters;
    BlockDevice device(512, &counters);
    auto run = BuildRun(&device, &counters, MakeRecords(1000, 0, 2),
                        f.compress);
    ASSERT_EQ(run->page_count(), (1000 + f.per_page - 1) / f.per_page);
    SortedRun::Cursor cursor(run.get());
    ASSERT_TRUE(cursor.SeekTo(0, 0).ok());
    Key expected = 0;
    size_t seen = 0;
    while (cursor.Valid()) {
      EXPECT_EQ(cursor.record().key, expected);
      EXPECT_EQ(cursor.record().value, ValueFor(expected));
      expected += 2;
      ++seen;
      ASSERT_TRUE(cursor.Next().ok());
    }
    EXPECT_EQ(seen, 1000u);
  }
}

TEST(SortedRunCursorTest, SeekFirstAtLeastLandsOnLowerBound) {
  for (const RunFormat f : kRunFormats) {
    SCOPED_TRACE(testing::Message() << "compress=" << f.compress);
    RumCounters counters;
    BlockDevice device(512, &counters);
    auto run = BuildRun(&device, &counters, MakeRecords(1000, 0, 2),
                        f.compress);
    SortedRun::Cursor cursor(run.get());
    // Absent odd key: the next even key answers.
    ASSERT_TRUE(cursor.SeekFirstAtLeast(1001).ok());
    ASSERT_TRUE(cursor.Valid());
    EXPECT_EQ(cursor.record().key, 1002u);
    // Present key: exact hit.
    ASSERT_TRUE(cursor.SeekFirstAtLeast(500).ok());
    ASSERT_TRUE(cursor.Valid());
    EXPECT_EQ(cursor.record().key, 500u);
    // Below min: first record.
    ASSERT_TRUE(cursor.SeekFirstAtLeast(0).ok());
    ASSERT_TRUE(cursor.Valid());
    EXPECT_EQ(cursor.record().key, 0u);
    // Beyond max: invalid, not an error.
    ASSERT_TRUE(cursor.SeekFirstAtLeast(5000).ok());
    EXPECT_FALSE(cursor.Valid());
  }
}

TEST(SortedRunCursorTest, AdvanceToAtLeastMovesForwardAcrossPages) {
  for (const RunFormat f : kRunFormats) {
    SCOPED_TRACE(testing::Message() << "compress=" << f.compress);
    RumCounters counters;
    BlockDevice device(512, &counters);
    auto run = BuildRun(&device, &counters, MakeRecords(1000, 0, 2),
                        f.compress);
    SortedRun::Cursor cursor(run.get());
    ASSERT_TRUE(cursor.SeekTo(0, 0).ok());
    // Same page first, then a multi-page jump.
    ASSERT_TRUE(cursor.AdvanceToAtLeast(20).ok());
    EXPECT_EQ(cursor.record().key, 20u);
    EXPECT_EQ(cursor.page_index(), 0u);
    ASSERT_TRUE(cursor.AdvanceToAtLeast(1500).ok());
    EXPECT_EQ(cursor.record().key, 1500u);
    EXPECT_EQ(cursor.page_index(), 750 / f.per_page);
    EXPECT_EQ(cursor.slot_index(), 750 % f.per_page);
    // Advancing to a key already behind the cursor is a no-op.
    ASSERT_TRUE(cursor.AdvanceToAtLeast(10).ok());
    EXPECT_EQ(cursor.record().key, 1500u);
    ASSERT_TRUE(cursor.AdvanceToAtLeast(99999).ok());
    EXPECT_FALSE(cursor.Valid());
  }
}

TEST(SortedRunCursorTest, SeekToClampsPastShortPositions) {
  for (const RunFormat f : kRunFormats) {
    SCOPED_TRACE(testing::Message() << "compress=" << f.compress);
    RumCounters counters;
    BlockDevice device(512, &counters);
    auto run = BuildRun(&device, &counters, MakeRecords(100), f.compress);
    SortedRun::Cursor cursor(run.get());
    // Slot past the last page's record count clamps forward to the end.
    size_t last_page = run->page_count() - 1;
    ASSERT_TRUE(cursor.SeekTo(last_page, 1000).ok());
    EXPECT_FALSE(cursor.Valid());
    // Slot past a middle page's count clamps to the next page's first
    // record.
    ASSERT_TRUE(cursor.SeekTo(0, 1000).ok());
    ASSERT_TRUE(cursor.Valid());
    EXPECT_EQ(cursor.record().key, f.per_page);
    // Page past the end is simply invalid.
    ASSERT_TRUE(cursor.SeekTo(run->page_count(), 0).ok());
    EXPECT_FALSE(cursor.Valid());
  }
}

// Random deltas make one- to three-byte varints, so compressed records
// vary in size: every cursor move must still land where std::lower_bound
// over the record vector does, and its (page, slot) offset must lead back
// to the same record.
TEST(SortedRunCursorTest, CompressedRandomDeltasAgreeWithLowerBound) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  const std::vector<LogRecord> records = RandomDeltaRecords();
  auto run = BuildRun(&device, &counters, records, /*compress=*/true);
  ASSERT_TRUE(run->compressed());
  auto lower_bound = [&](Key key) {
    return static_cast<size_t>(
        std::lower_bound(records.begin(), records.end(), key,
                         [](const LogRecord& r, Key k) { return r.key < k; }) -
        records.begin());
  };
  auto expect_at = [&](const SortedRun::Cursor& cursor, size_t i) {
    if (i == records.size()) {
      EXPECT_FALSE(cursor.Valid());
      return;
    }
    ASSERT_TRUE(cursor.Valid()) << i;
    EXPECT_EQ(cursor.record().key, records[i].key) << i;
    EXPECT_EQ(cursor.record().value, records[i].value) << i;
    EXPECT_EQ(cursor.record().op, records[i].op) << i;
  };
  // A full walk by Next.
  SortedRun::Cursor walk(run.get());
  ASSERT_TRUE(walk.SeekTo(0, 0).ok());
  for (size_t i = 0; i <= records.size(); ++i) {
    expect_at(walk, i);
    if (walk.Valid()) {
      ASSERT_TRUE(walk.Next().ok());
    }
  }
  // Seeks to present and absent keys, then forward advances and steps.
  Rng rng(7);
  const Key max = records.back().key;
  for (int probe = 0; probe < 300; ++probe) {
    Key key = rng.NextBelow(max + 2);
    if (probe % 3 == 0) key = records[rng.NextBelow(records.size())].key;
    SortedRun::Cursor cursor(run.get());
    ASSERT_TRUE(cursor.SeekFirstAtLeast(key).ok());
    size_t i = lower_bound(key);
    expect_at(cursor, i);
    if (!cursor.Valid()) continue;
    SortedRun::Cursor again(run.get());
    ASSERT_TRUE(again.SeekTo(cursor.page_index(), cursor.slot_index()).ok());
    expect_at(again, i);
    const Key ahead = key + rng.NextBelow(1u << 22);
    ASSERT_TRUE(cursor.AdvanceToAtLeast(ahead).ok());
    i = lower_bound(ahead);
    expect_at(cursor, i);
    for (int step = 0; step < 5 && cursor.Valid(); ++step) {
      ASSERT_TRUE(cursor.Next().ok());
      expect_at(cursor, ++i);
    }
  }
}

// A compressed record whose bytes run past the block is found where a walk
// reaches it: reads that stop before it still answer, and every read that
// needs it -- a Get, a cursor walk, VisitAll (so compaction) -- returns
// kCorruption instead of merging around it.
TEST(SortedRunTest, TruncatedCompressedRecordIsCorruptionWhereAWalkReachesIt) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  auto run = BuildRun(&device, &counters, MakeRecords(100), /*compress=*/true);
  ASSERT_EQ(run->page_count(), 2u);
  // Page 0 holds keys 0..49 at 10 bytes each; the last starts at 8 + 49 *
  // 10. All-0x80 bytes make a 10-byte varint whose value and op byte would
  // end past the block.
  std::vector<uint8_t>* page = device.mutable_page_unaccounted(0);
  ASSERT_NE(page, nullptr);
  ASSERT_EQ(DecodeU64(page->data()), 50u);
  std::fill(page->begin() + 8 + 49 * 10, page->end(), uint8_t{0x80});

  Result<std::optional<LogRecord>> first = run->Get(0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value().has_value());
  EXPECT_EQ(first.value()->value, ValueFor(0));
  EXPECT_EQ(run->Get(49).code(), Code::kCorruption);
  EXPECT_TRUE(run->Get(50).ok());  // Page 1 is intact.

  SortedRun::Cursor cursor(run.get());
  ASSERT_TRUE(cursor.SeekTo(0, 0).ok());
  Status s = Status::OK();
  for (Key expected = 0; s.ok() && cursor.Valid(); ++expected) {
    EXPECT_EQ(cursor.record().key, expected);
    s = cursor.Next();
  }
  EXPECT_EQ(s.code(), Code::kCorruption);

  size_t visited = 0;
  EXPECT_EQ(run->VisitAll([&](const LogRecord&) { ++visited; }).code(),
            Code::kCorruption);
  EXPECT_EQ(visited, 49u);
}

// A one-byte delta takes the decoder's fast path, and its record is still
// checked against the block end. Keys 200, 400, ... make 11-byte records
// (2-byte varints), 45 to a 512-byte page, ending at byte 503; with the
// page count raised to 46, the zero byte at 503 is a one-byte delta whose
// value and op byte would end at byte 513.
TEST(SortedRunTest, OneByteDeltaPastTheBlockIsCorruptionWhereAWalkReachesIt) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  auto run = BuildRun(&device, &counters, MakeRecords(100, 200, 200),
                      /*compress=*/true);
  std::vector<uint8_t>* page = device.mutable_page_unaccounted(0);
  ASSERT_NE(page, nullptr);
  ASSERT_EQ(DecodeU64(page->data()), 45u);
  ASSERT_EQ((*page)[8 + 45 * 11], 0u);
  EncodeU64(46, page->data());

  Result<std::optional<LogRecord>> first = run->Get(200);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value().has_value());
  EXPECT_EQ(first.value()->value, ValueFor(200));
  // 9100 lies between page 0's last key, 9000, and page 1's first, 9200.
  EXPECT_EQ(run->Get(9100).code(), Code::kCorruption);

  SortedRun::Cursor cursor(run.get());
  ASSERT_TRUE(cursor.SeekTo(0, 0).ok());
  Status s = Status::OK();
  size_t walked = 0;
  for (; s.ok() && cursor.Valid(); ++walked) {
    EXPECT_EQ(cursor.record().key, 200 * (walked + 1));
    s = cursor.Next();
  }
  EXPECT_EQ(s.code(), Code::kCorruption);
  EXPECT_EQ(walked, 45u);
}

// Keys 0, 200, ..., 8800, 8801, ...: a 10-byte first record, 44 records of
// 11 bytes and the one-byte delta to 8801 fill page 0 to exactly byte 512.
TEST(SortedRunTest, OneByteDeltaEndingAtTheBlockEndReadsBack) {
  RumCounters counters;
  BlockDevice device(512, &counters);
  std::vector<LogRecord> records = MakeRecords(45, 0, 200);
  for (const LogRecord& r : MakeRecords(55, 8801)) records.push_back(r);
  auto run = BuildRun(&device, &counters, records, /*compress=*/true);
  std::vector<uint8_t>* page = device.mutable_page_unaccounted(0);
  ASSERT_NE(page, nullptr);
  ASSERT_EQ(DecodeU64(page->data()), 46u);

  for (const LogRecord& r : records) {
    Result<std::optional<LogRecord>> got = run->Get(r.key);
    ASSERT_TRUE(got.ok()) << r.key << ": " << got.status().ToString();
    ASSERT_TRUE(got.value().has_value()) << r.key;
    EXPECT_EQ(got.value()->value, r.value) << r.key;
  }
  SortedRun::Cursor cursor(run.get());
  ASSERT_TRUE(cursor.SeekTo(0, 0).ok());
  for (const LogRecord& r : records) {
    ASSERT_TRUE(cursor.Valid()) << r.key;
    EXPECT_EQ(cursor.record().key, r.key);
    EXPECT_EQ(cursor.record().value, r.value);
    ASSERT_TRUE(cursor.Next().ok()) << r.key;
  }
  EXPECT_FALSE(cursor.Valid());
}

// --------------------------------------------------- Run bounds skipping

TEST(LsmTreeTest, DisjointRunsCostNoBlocksOnGetAndScan) {
  Options options = SmallOptions();
  LsmTree tree(options);
  // Two runs with a key gap between them, placed directly.
  ASSERT_TRUE(tree.BuildRun(1, MakeRecords(200, 0, 1)).ok());
  ASSERT_TRUE(tree.BuildRun(2, MakeRecords(200, 5000, 1)).ok());
  CounterSnapshot before = tree.stats();
  // A Get in the gap: both runs are skipped on [min, max] alone -- no
  // Bloom probe, no fence search, no page read.
  EXPECT_TRUE(tree.Get(3000).status().IsNotFound());
  CounterSnapshot delta = tree.stats() - before;
  // (The memtable probe still charges a few pointer bytes; the claim is
  // that no run page -- no block -- is touched.)
  EXPECT_EQ(delta.blocks_read, 0u);
  // A Scan over the gap likewise touches no run.
  before = tree.stats();
  std::vector<Entry> out;
  ASSERT_TRUE(tree.Scan(3000, 4000, &out).ok());
  EXPECT_TRUE(out.empty());
  delta = tree.stats() - before;
  EXPECT_EQ(delta.blocks_read, 0u);
  // A Scan over one run reads only that run's pages.
  before = tree.stats();
  out.clear();
  ASSERT_TRUE(tree.Scan(5050, 5060, &out).ok());
  EXPECT_EQ(out.size(), 11u);
  delta = tree.stats() - before;
  EXPECT_LE(delta.blocks_read, tree.levels()[2].back()->page_count());
  EXPECT_GT(delta.blocks_read, 0u);
}

// ------------------------------------------------------- Cross-run index

// Distinct, uniformly spread keys (Fibonacci hashing): every flushed run
// spans the whole key domain, so range scans pay every run -- the workload
// the cross-run index exists for.
Key ScrambledKey(uint64_t i) { return i * 0x9E3779B97F4A7C15ULL; }

Options ScanHeavyOptions(bool cross_run_index) {
  Options options = SmallOptions();  // block 512: 29 records per page.
  options.lsm.policy = LsmPolicy::kTiered;
  options.lsm.memtable_entries = 256;
  options.lsm.size_ratio = 8;
  options.lsm.cross_run_index = cross_run_index;
  options.lsm.cross_run_segment_entries = 64;
  return options;
}

// 15 flushes under tiered/ratio-8: seven level-0 runs plus the level-1 run
// from the 8th flush's merge -- exactly 8 resident runs, deterministic.
constexpr uint64_t kScanHeavyEntries = 15 * 256;

double MeasureScanRo(LsmTree* tree, uint64_t entries) {
  // Window sized for ~16 records at the keys' uniform 64-bit spacing.
  const Key span = (kMaxKey / entries) * 16;
  uint64_t probe = 0x9E3779B9ULL;
  auto next_lo = [&probe] {
    probe ^= probe << 13;
    probe ^= probe >> 7;
    probe ^= probe << 17;
    return probe;
  };
  // Warm-up pass with the same start keys: builds every segment the
  // measured pass will touch, so the measurement is steady-state.
  std::vector<Entry> out;
  uint64_t warm_probe = probe;
  for (int i = 0; i < 300; ++i) {
    Key lo = next_lo();
    out.clear();
    EXPECT_TRUE(tree->Scan(lo, lo + std::min(span, kMaxKey - lo), &out).ok());
  }
  probe = warm_probe;
  tree->ResetStats();
  for (int i = 0; i < 300; ++i) {
    Key lo = next_lo();
    out.clear();
    EXPECT_TRUE(tree->Scan(lo, lo + std::min(span, kMaxKey - lo), &out).ok());
  }
  return tree->stats().read_amplification();
}

TEST(CrossRunIndexTest, RangeRoDropsAtLeast3xAtEightRuns) {
  LsmTree indexed(ScanHeavyOptions(true));
  LsmTree fallback(ScanHeavyOptions(false));
  for (uint64_t i = 0; i < kScanHeavyEntries; ++i) {
    Key k = ScrambledKey(i);
    ASSERT_TRUE(indexed.Insert(k, i).ok());
    ASSERT_TRUE(fallback.Insert(k, i).ok());
  }
  ASSERT_GE(indexed.total_runs(), 8u);
  ASSERT_EQ(indexed.total_runs(), fallback.total_runs());

  double ro_indexed = MeasureScanRo(&indexed, kScanHeavyEntries);
  double ro_fallback = MeasureScanRo(&fallback, kScanHeavyEntries);
  ASSERT_GT(ro_indexed, 0.0);
  // The acceptance bar: at >= 8 overlapping runs the cross-run view cuts
  // range RO by at least 3x vs the per-run fence-search walk.
  EXPECT_GE(ro_fallback / ro_indexed, 3.0)
      << "indexed RO=" << ro_indexed << " fallback RO=" << ro_fallback;
}

TEST(CrossRunIndexTest, IndexSpaceIsChargedAsAuxiliaryMo) {
  LsmTree tree(ScanHeavyOptions(true));
  for (uint64_t i = 0; i < kScanHeavyEntries; ++i) {
    ASSERT_TRUE(tree.Insert(ScrambledKey(i), i).ok());
  }
  ASSERT_NE(tree.cross_run_index(), nullptr);
  // Lazy build: a scan-free workload pays zero index space.
  EXPECT_EQ(tree.cross_run_index()->charged_bytes(), 0u);
  uint64_t aux_before = tree.stats().space_aux;
  std::vector<Entry> out;
  Key mid = ScrambledKey(7);
  ASSERT_TRUE(tree.Scan(mid, mid + (kMaxKey / kScanHeavyEntries) * 64, &out)
                  .ok());
  uint64_t charged = tree.cross_run_index()->charged_bytes();
  EXPECT_GT(charged, 0u);
  // The segment table shows up in stats() as bought auxiliary space.
  EXPECT_GE(tree.stats().space_aux, aux_before + charged);
  EXPECT_GT(tree.cross_run_index()->segment_count(), 1u);
}

TEST(CrossRunIndexTest, DisabledTreeHasNoIndex) {
  LsmTree tree(ScanHeavyOptions(false));
  EXPECT_EQ(tree.cross_run_index(), nullptr);
}

// Kept offsets. Tiered trees whose runs each span the key domain, in both
// page formats, with one fence per page so a run's fence search costs
// between floor(log2 pages) and bit_width(pages) probes: one run's search
// fits under FenceSearchBound, two runs' do not.
Options KeptOffsetOptions(bool compress) {
  Options options = ScanHeavyOptions(/*cross_run_index=*/true);
  options.lsm.compress_runs = compress;
  options.lsm.fence_entries = 0;
  return options;
}

uint64_t FenceSearchBound(const SortedRun& run) {
  return sizeof(Key) * std::bit_width(run.page_count());
}

// Inserts the i-th keys for i in [first, first + count) into the tree and
// the oracle. Key 0 (i = 0) and kMaxKey (i = 1) put the domain's ends in
// the first run, so the index's first layout covers every later key.
void InsertScrambled(LsmTree* tree, std::map<Key, Value>* oracle,
                     uint64_t first, uint64_t count) {
  for (uint64_t i = first; i < first + count; ++i) {
    const Key k = i == 1 ? kMaxKey : ScrambledKey(i);
    ASSERT_TRUE(tree->Insert(k, ValueFor(k)).ok());
    (*oracle)[k] = ValueFor(k);
  }
}

// Scans [lo, hi], checks the rows against the oracle, and returns what the
// scan charged the tree.
CounterSnapshot CheckedScan(LsmTree* tree, const std::map<Key, Value>& oracle,
                            Key lo, Key hi) {
  const CounterSnapshot before = tree->stats();
  std::vector<Entry> out;
  EXPECT_TRUE(tree->Scan(lo, hi, &out).ok());
  const CounterSnapshot delta = tree->stats() - before;
  std::vector<Entry> expected;
  for (auto it = oracle.lower_bound(lo); it != oracle.end() && it->first <= hi;
       ++it) {
    expected.push_back(Entry{it->first, it->second});
  }
  EXPECT_EQ(out, expected) << "[" << lo << ", " << hi << "]";
  return delta;
}

// A window of ~16 records starting mid-domain, where every run has records
// below lo and so is positioned through lo's segment.
constexpr Key kMidLo = kMaxKey / 2 + 12345;
Key MidHi(uint64_t entries) { return kMidLo + (kMaxKey / entries) * 16; }

struct TraceGuard {
  ~TraceGuard() {
    Trace::Disable();
    Trace::Drain();
  }
};

// A new run invalidates no stored offset: the rescan after a flush
// fence-searches only the new run, and no page is pinned twice -- the
// seek that stores an offset is the one the scan's cursor goes on from.
TEST(CrossRunIndexTest, AFlushSeeksOnlyTheNewRun) {
  for (const bool compress : {false, true}) {
    SCOPED_TRACE(testing::Message() << "compress=" << compress);
    RumCounters device_counters;
    BlockDevice base(512, &device_counters);
    CachingDevice cache(&base, /*capacity_pages=*/1 << 12);
    LsmTree tree(KeptOffsetOptions(compress), &cache);
    std::map<Key, Value> oracle;
    InsertScrambled(&tree, &oracle, 0, 4 * 256);
    ASSERT_EQ(tree.total_runs(), 4u);
    const Key hi = MidHi(5 * 256);
    CheckedScan(&tree, oracle, kMidLo, hi);
    const CrossRunIndex& index = *tree.cross_run_index();
    const uint64_t relayouts = index.relayouts();

    InsertScrambled(&tree, &oracle, 4 * 256, 256);  // One more flush.
    ASSERT_EQ(tree.total_runs(), 5u);
    const SortedRun& fresh = *tree.levels()[0].back();
    ASSERT_LT(fresh.min_key(), kMidLo);
    TraceGuard trace_guard;
    Trace::Enable(1 << 12);
    const CounterSnapshot rescan = CheckedScan(&tree, oracle, kMidLo, hi);
    Trace::Disable();
    ASSERT_EQ(Trace::dropped_events(), 0u);
    std::map<PageId, int> pins;
    for (const TraceEvent& e : Trace::Drain()) {
      if (e.kind == TraceKind::kPinAcquire) ++pins[e.page];
    }
    EXPECT_GE(pins.size(), tree.total_runs());
    for (const auto& [page, count] : pins) {
      EXPECT_EQ(count, 1) << "page " << page;
    }

    // The same scan again seeks nothing: what the rescan read beyond it is
    // the new run's fence search, less the offset it stored (read by this
    // scan's consult, not the rescan's).
    const CounterSnapshot again = CheckedScan(&tree, oracle, kMidLo, hi);
    EXPECT_EQ(index.relayouts(), relayouts);
    const uint64_t probes = rescan.bytes_read_aux + CrossRunIndex::kOffsetBytes -
                            again.bytes_read_aux;
    EXPECT_GT(probes, 0u);
    EXPECT_LE(probes, FenceSearchBound(fresh));
  }
}

// A compaction erases exactly its retired runs' offsets; the surviving run
// keeps its own, so the next scan of a segment seeks only the output run.
TEST(CrossRunIndexTest, RetiringARunErasesOnlyItsOffsets) {
  for (const bool compress : {false, true}) {
    SCOPED_TRACE(testing::Message() << "compress=" << compress);
    LsmTree tree(KeptOffsetOptions(compress));
    std::map<Key, Value> oracle;
    // Eight flushes merge into one level-1 run; seven more stay at level 0.
    InsertScrambled(&tree, &oracle, 0, 15 * 256);
    ASSERT_EQ(tree.levels()[0].size(), 7u);
    ASSERT_EQ(tree.levels()[1].size(), 1u);
    const SortedRun* survivor = tree.levels()[1].front().get();

    // Three segments, one offset per run in each.
    const CrossRunIndex& index = *tree.cross_run_index();
    const Key width = MidHi(15 * 256) - kMidLo;
    for (const Key lo : {kMidLo / 2, kMidLo, kMidLo + kMidLo / 2}) {
      CheckedScan(&tree, oracle, lo, lo + width);
    }
    const uint64_t relayouts = index.relayouts();
    const uint64_t segments = index.segment_count() *
                              CrossRunIndex::kSegmentBytes;
    const uint64_t charged = index.charged_bytes();
    EXPECT_EQ(charged, segments + 3 * 8 * CrossRunIndex::kOffsetBytes);

    // The eighth level-0 flush merges level 0 into a second level-1 run:
    // the seven scanned level-0 runs take their 3 * 7 offsets with them.
    InsertScrambled(&tree, &oracle, 15 * 256, 256);
    ASSERT_EQ(tree.levels()[0].size(), 0u);
    ASSERT_EQ(tree.levels()[1].size(), 2u);
    ASSERT_EQ(tree.levels()[1].front().get(), survivor);
    EXPECT_EQ(charged - index.charged_bytes(),
              3 * 7 * CrossRunIndex::kOffsetBytes);
    EXPECT_EQ(index.charged_bytes(), segments + 3 * CrossRunIndex::kOffsetBytes);

    // Rescan a used segment: only the output run is sought and stored.
    const SortedRun& output = *tree.levels()[1].back();
    const uint64_t kept = index.charged_bytes();
    const CounterSnapshot rescan =
        CheckedScan(&tree, oracle, kMidLo, kMidLo + width);
    EXPECT_EQ(index.charged_bytes() - kept, CrossRunIndex::kOffsetBytes);
    const CounterSnapshot again =
        CheckedScan(&tree, oracle, kMidLo, kMidLo + width);
    EXPECT_EQ(index.relayouts(), relayouts);
    const uint64_t probes = rescan.bytes_read_aux + CrossRunIndex::kOffsetBytes -
                            again.bytes_read_aux;
    EXPECT_GT(probes, 0u);
    EXPECT_LE(probes, FenceSearchBound(output));
  }
}

// --------------------------------------------------- Auxiliary-MO ledger

// The conservation identity: with an owned device, every resident byte the
// tree's stats() report is exactly one LsmMemoryFootprint term -- memtable,
// run pages, fences, filters, index segments -- at every point in the
// tree's life (mid-memtable, post-flush, post-compaction, post-delete).
TEST(LsmTreeTest, MemoryFootprintLedgerConservesStatsSpace) {
  Options options = SmallOptions();
  options.lsm.cross_run_index = true;  // Exercise the index term too.
  LsmTree tree(options);
  auto check = [&](const char* when) {
    LsmMemoryFootprint fp = tree.MemoryFootprint();
    EXPECT_EQ(tree.stats().total_space(), fp.total()) << when;
  };
  check("empty");
  for (Key k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree.Insert(ScrambledKey(k), ValueFor(k)).ok());
    if (k % 97 == 0) check("mid-insert");
  }
  check("after inserts");
  std::vector<Entry> out;
  ASSERT_TRUE(tree.Scan(0, ~Key{0}, &out).ok());  // Builds index segments.
  check("after scan");
  for (Key k = 0; k < 500; ++k) {
    ASSERT_TRUE(tree.Delete(ScrambledKey(k)).ok());
  }
  check("after deletes");
  ASSERT_TRUE(tree.Flush().ok());
  check("after flush");
  // All five terms are actually in play in this configuration.
  LsmMemoryFootprint fp = tree.MemoryFootprint();
  EXPECT_GT(fp.run_page_bytes, 0u);
  EXPECT_GT(fp.fence_bytes, 0u);
  EXPECT_GT(fp.filter_bytes, 0u);
}

// --------------------------------------------------------- Stepped-merge

// Every CounterSnapshot field, then size().
std::vector<uint64_t> ChargesAndSize(const AccessMethod& method) {
  const CounterSnapshot s = method.stats();
  return {s.bytes_read_base,    s.bytes_read_aux,
          s.bytes_written_base, s.bytes_written_aux,
          s.blocks_read,        s.blocks_written,
          s.space_base,         s.space_aux,
          s.logical_bytes_read, s.logical_bytes_written,
          s.point_queries,      s.range_queries,
          s.inserts,            s.updates,
          s.deletes,            s.batched_page_hits,
          s.io_errors,          s.retries,
          method.size()};
}

// A seeded Insert/Update/Delete/Get/Flush stream. The first delete comes
// after the first explicit flush, so no tombstone is buffered when the
// tree is still empty.
void DriveSteppedStream(AccessMethod* method, size_t ops, Key key_range) {
  Rng rng(0x57E9);
  bool flushed = false;
  for (size_t i = 0; i < ops; ++i) {
    const Key key = rng.NextBelow(key_range);
    const uint64_t dice = rng.NextBelow(1000);
    if (i == 1000 || dice == 0) {
      ASSERT_TRUE(method->Flush().ok());
      flushed = true;
    } else if (dice < 450) {
      ASSERT_TRUE(method->Insert(key, ValueFor(i)).ok());
    } else if (dice < 600) {
      ASSERT_TRUE(method->Update(key, ValueFor(i)).ok());
    } else if (dice < 700 && flushed) {
      ASSERT_TRUE(method->Delete(key).ok());
    } else {
      Result<Value> got = method->Get(key);
      ASSERT_TRUE(got.ok() || got.status().IsNotFound());
    }
  }
}

// The factory's stepped-merge charges, pinned on one stream at two
// configurations: every field and size() must stay exactly these.
TEST(SteppedMergeTest, ChargesArePinned) {
  struct Case {
    const char* label;
    Options options;
    Key key_range;
    std::vector<uint64_t> want;
  };
  const Case cases[] = {
      {"default", Options(), 1u << 15,
       {271319040, 248652696, 1986560, 711841, 66240, 485, 326416, 277242,
        108880, 669968, 18071, 0, 26863, 9016, 5994, 0, 0, 0, 20401}},
      {"small", SmallOptions(), 1u << 12,
       {41484288, 11902800, 3629568, 711841, 81024, 7089, 56048, 212986,
        222208, 669968, 18071, 0, 26863, 9016, 5994, 0, 0, 0, 3503}},
  };
  for (const Case& c : cases) {
    std::unique_ptr<AccessMethod> method =
        MakeAccessMethod("stepped-merge", c.options);
    ASSERT_NE(method, nullptr);
    ASSERT_NO_FATAL_FAILURE(
        DriveSteppedStream(method.get(), 60000, c.key_range));
    std::vector<uint64_t> got = ChargesAndSize(*method);
    std::string shown;
    for (uint64_t v : got) shown += std::to_string(v) + ", ";
    EXPECT_EQ(got, c.want) << c.label << ": {" << shown << "}";
  }
}

// The preset differs from the SteppedMergeTree class it replaced in three
// charges; each test below pins the direction of one.

// 1. The first flush into an empty tree keeps its tombstones, as every LSM
// flush does. The old seal dropped them, and a buffer of tombstones alone
// wrote no run.
TEST(SteppedMergeTest, FirstFlushIntoAnEmptyTreeKeepsItsTombstones) {
  std::unique_ptr<AccessMethod> method =
      MakeAccessMethod("stepped-merge", Options());
  for (Key k = 0; k < 50; ++k) ASSERT_TRUE(method->Delete(k * 1000).ok());
  ASSERT_TRUE(method->Flush().ok());
  EXPECT_GT(method->stats().blocks_written, 0u);
  auto* tree = dynamic_cast<LsmTree*>(method.get());
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->total_runs(), 1u);
  EXPECT_EQ(method->size(), 0u);
  EXPECT_TRUE(method->Get(7000).status().IsNotFound());
}

// 2. A Scan opens a cursor at page 0 of a run whose min key is >= lo, with
// no fence search; the old Scan searched the fences of every run in range.
// Its figures on this stream were 4,537,600 auxiliary bytes read, and
// 3,579,904 base bytes and 874 blocks for 108,673 results.
TEST(SteppedMergeTest, ScanSkipsTheFenceSearchOfRunsStartingInRange) {
  std::unique_ptr<AccessMethod> method =
      MakeAccessMethod("stepped-merge", Options());
  Rng rng(12);
  for (size_t i = 0; i < 60000; ++i) {
    ASSERT_TRUE(method->Insert(rng.NextBelow(1u << 16), ValueFor(i)).ok());
  }
  method->ResetStats();
  uint64_t results = 0;
  for (int q = 0; q < 100; ++q) {
    const Key lo = rng.NextBelow(64);
    std::vector<Entry> out;
    ASSERT_TRUE(method->Scan(lo, lo + rng.NextBelow(4096), &out).ok());
    results += out.size();
  }
  const CounterSnapshot stats = method->stats();
  EXPECT_LT(stats.bytes_read_aux, 4537600u);
  EXPECT_EQ(stats.bytes_read_base, 3579904u);
  EXPECT_EQ(stats.blocks_read, 874u);
  EXPECT_EQ(results, 108673u);
}

// 3. MultiGet takes the LSM's batched path, which pins each page once per
// batch; the old class looped Get. The answers are the Get loop's, and the
// blocks it saves are exactly its batched page hits.
TEST(SteppedMergeTest, MultiGetPinsEachPageOncePerBatch) {
  std::unique_ptr<AccessMethod> batched =
      MakeAccessMethod("stepped-merge", Options());
  std::unique_ptr<AccessMethod> looped =
      MakeAccessMethod("stepped-merge", Options());
  ASSERT_NO_FATAL_FAILURE(DriveSteppedStream(batched.get(), 60000, 1u << 15));
  ASSERT_NO_FATAL_FAILURE(DriveSteppedStream(looped.get(), 60000, 1u << 15));
  batched->ResetStats();
  looped->ResetStats();
  Rng rng(13);
  for (int b = 0; b < 200; ++b) {
    std::vector<Key> keys(64);
    for (Key& key : keys) key = rng.NextBelow(1u << 15);
    std::vector<std::optional<Value>> got;
    ASSERT_TRUE(batched->MultiGet(keys, &got).ok());
    for (size_t i = 0; i < keys.size(); ++i) {
      Result<Value> want = looped->Get(keys[i]);
      ASSERT_EQ(got[i].has_value(), want.ok()) << keys[i];
      if (want.ok()) {
        EXPECT_EQ(*got[i], want.value()) << keys[i];
      }
    }
  }
  const CounterSnapshot b = batched->stats();
  const CounterSnapshot l = looped->stats();
  EXPECT_GT(b.batched_page_hits, 0u);
  EXPECT_EQ(b.blocks_read + b.batched_page_hits, l.blocks_read);
  EXPECT_EQ(b.logical_bytes_read, l.logical_bytes_read);
}

}  // namespace
}  // namespace rum
