// Unit tests for the storage substrate: block device, page codec, caching
// device, heap file.
#include <gtest/gtest.h>

#include "core/counters.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "storage/faulty_device.h"
#include "storage/heap_file.h"
#include "storage/page_format.h"
#include "tests/testing_util.h"

namespace rum {
namespace {

constexpr size_t kBlock = 512;

TEST(BlockDeviceTest, AllocateChargesSpaceByClass) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  PageId base = testing_util::MustAllocate(device, DataClass::kBase);
  PageId aux = testing_util::MustAllocate(device, DataClass::kAux);
  EXPECT_NE(base, aux);
  EXPECT_EQ(counters.snapshot().space_base, kBlock);
  EXPECT_EQ(counters.snapshot().space_aux, kBlock);
  EXPECT_EQ(device.live_pages(), 2u);
  EXPECT_EQ(device.live_pages(DataClass::kBase), 1u);
}

TEST(BlockDeviceTest, FreeReturnsSpaceAndRecyclesIds) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  ASSERT_TRUE(device.Free(p).ok());
  EXPECT_EQ(counters.snapshot().space_base, 0u);
  PageId q = testing_util::MustAllocate(device, DataClass::kAux);
  EXPECT_EQ(q, p);  // Recycled.
  EXPECT_EQ(counters.snapshot().space_aux, kBlock);
}

TEST(BlockDeviceTest, DoubleFreeFails) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  ASSERT_TRUE(device.Free(p).ok());
  EXPECT_FALSE(device.Free(p).ok());
}

TEST(BlockDeviceTest, ReadWriteRoundTripAndCharges) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  std::vector<uint8_t> data(kBlock, 0xAB);
  ASSERT_TRUE(device.Write(p, data).ok());
  std::vector<uint8_t> readback;
  ASSERT_TRUE(device.Read(p, &readback).ok());
  EXPECT_EQ(readback, data);
  EXPECT_EQ(counters.snapshot().bytes_written_base, kBlock);
  EXPECT_EQ(counters.snapshot().bytes_read_base, kBlock);
  EXPECT_EQ(counters.snapshot().blocks_read, 1u);
  EXPECT_EQ(counters.snapshot().blocks_written, 1u);
}

TEST(BlockDeviceTest, WriteWrongSizeRejected) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  std::vector<uint8_t> tiny(10);
  EXPECT_EQ(device.Write(p, tiny).code(), Code::kInvalidArgument);
}

TEST(BlockDeviceTest, ReadOfDeadPageFails) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  std::vector<uint8_t> out;
  EXPECT_FALSE(device.Read(0, &out).ok());
}

TEST(BlockDeviceTest, FreeAllocRoundTripKeepsAccountingStable) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  std::vector<uint8_t> data(kBlock, 0x5A);
  ASSERT_TRUE(device.Write(p, data).ok());
  CounterSnapshot before = counters.snapshot();
  ASSERT_TRUE(device.Free(p).ok());
  PageId q = testing_util::MustAllocate(device, DataClass::kBase);
  EXPECT_EQ(q, p);  // Recycled in place; the slot's capacity is retained.
  CounterSnapshot after = counters.snapshot();
  EXPECT_EQ(after.space_base, before.space_base);
  EXPECT_EQ(after.bytes_written_base, before.bytes_written_base);
  EXPECT_EQ(after.blocks_written, before.blocks_written);
  // The recycled page must read back zeroed even though the old buffer
  // was reused rather than reallocated.
  std::vector<uint8_t> out;
  ASSERT_TRUE(device.Read(q, &out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(kBlock, 0));
}

TEST(BlockDeviceTest, PinForReadChargesLikeRead) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  std::vector<uint8_t> data(kBlock, 0xAB);
  ASSERT_TRUE(device.Write(p, data).ok());
  CounterSnapshot before = counters.snapshot();
  PageReadGuard guard;
  ASSERT_TRUE(device.PinForRead(p, &guard).ok());
  EXPECT_EQ(device.pinned_pages(), 1u);
  EXPECT_TRUE(std::equal(guard.bytes().begin(), guard.bytes().end(),
                         data.begin()));
  CounterSnapshot after = counters.snapshot();
  EXPECT_EQ(after.bytes_read_base, before.bytes_read_base + kBlock);
  EXPECT_EQ(after.blocks_read, before.blocks_read + 1);
  guard.Release();
  EXPECT_EQ(device.pinned_pages(), 0u);
  // Release charges nothing further.
  EXPECT_EQ(counters.snapshot().bytes_read_base, after.bytes_read_base);
}

TEST(BlockDeviceTest, PinForWriteChargesOnlyOnDirtyRelease) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  CounterSnapshot before = counters.snapshot();
  {
    PageWriteGuard guard;
    ASSERT_TRUE(device.PinForWrite(p, &guard).ok());
    // Nothing charged at pin time.
    EXPECT_EQ(counters.snapshot().bytes_written_base,
              before.bytes_written_base);
    std::fill(guard.bytes().begin(), guard.bytes().end(), 0xCD);
    guard.MarkDirty();
    ASSERT_TRUE(guard.Release().ok());
  }
  CounterSnapshot after = counters.snapshot();
  EXPECT_EQ(after.bytes_written_base, before.bytes_written_base + kBlock);
  EXPECT_EQ(after.blocks_written, before.blocks_written + 1);
  std::vector<uint8_t> out;
  ASSERT_TRUE(device.Read(p, &out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(kBlock, 0xCD));
}

TEST(BlockDeviceTest, CleanWritePinChargesNothing) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  CounterSnapshot before = counters.snapshot();
  PageWriteGuard guard;
  ASSERT_TRUE(device.PinForWrite(p, &guard).ok());
  ASSERT_TRUE(guard.Release().ok());
  CounterSnapshot after = counters.snapshot();
  EXPECT_EQ(after.bytes_written_base, before.bytes_written_base);
  EXPECT_EQ(after.blocks_written, before.blocks_written);
  EXPECT_EQ(after.bytes_read_base, before.bytes_read_base);
}

TEST(BlockDeviceTest, FreeWhilePinnedRejected) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  PageId p = testing_util::MustAllocate(device, DataClass::kBase);
  PageReadGuard guard;
  ASSERT_TRUE(device.PinForRead(p, &guard).ok());
  EXPECT_EQ(device.Free(p).code(), Code::kInvalidArgument);
  guard.Release();
  EXPECT_TRUE(device.Free(p).ok());
}

TEST(PageFormatTest, RoundTrip) {
  std::vector<Entry> entries = {{1, 10}, {2, 20}, {300, 3000}};
  std::vector<uint8_t> block(kBlock, 0xff);
  ASSERT_TRUE(PageFormat::PackInto(entries, block).ok());
  EXPECT_EQ(PageFormat::PeekCount(block), 3u);
  EXPECT_EQ(block.back(), 0u);  // The unused tail is zero-filled.
  std::vector<Entry> out;
  ASSERT_TRUE(PageFormat::Unpack(block, &out).ok());
  EXPECT_EQ(out, entries);
}

TEST(PageFormatTest, CapacityAndOverflow) {
  size_t cap = PageFormat::CapacityFor(kBlock);
  EXPECT_EQ(cap, (kBlock - 8) / 16);
  std::vector<Entry> too_many(cap + 1);
  std::vector<uint8_t> block(kBlock);
  EXPECT_EQ(PageFormat::PackInto(too_many, block).code(),
            Code::kResourceExhausted);
}

TEST(PageFormatTest, UnpackRejectsCorruptCount) {
  std::vector<uint8_t> block(kBlock, 0);
  std::vector<Entry> out;
  size_t n = 0;
  // Absurd counts, including one whose byte size wraps around 2^64.
  for (uint64_t count : {uint64_t{1} << 20, uint64_t{1} << 60, ~uint64_t{0}}) {
    EncodeU64(count, block.data());
    EXPECT_EQ(PageFormat::Unpack(block, &out).code(), Code::kCorruption);
    EXPECT_EQ(PageFormat::CheckedCount(block, &n).code(), Code::kCorruption);
  }
  EncodeU64(PageFormat::CapacityFor(kBlock), block.data());
  ASSERT_TRUE(PageFormat::CheckedCount(block, &n).ok());
  EXPECT_EQ(n, PageFormat::CapacityFor(kBlock));
}

TEST(ScalarCodecTest, RoundTrip) {
  uint8_t buf[8];
  EncodeU64(0x0123456789ABCDEFULL, buf);
  EXPECT_EQ(DecodeU64(buf), 0x0123456789ABCDEFULL);
  EncodeU32(0xDEADBEEF, buf);
  EXPECT_EQ(DecodeU32(buf), 0xDEADBEEFu);
}

TEST(VarintTest, DecodesAtTheOneByteBoundaryAndStopsAtTheLimit) {
  // 0x7F, the largest one-byte value, and 0x80, the smallest two-byte one.
  const uint8_t small[] = {0x7F, 0x80, 0x01};
  size_t at = 0;
  EXPECT_EQ(DecodeVarint64(small, sizeof(small), &at), 0x7Fu);
  EXPECT_EQ(at, 1u);
  EXPECT_EQ(DecodeVarint64(small, sizeof(small), &at), 0x80u);
  EXPECT_EQ(at, 3u);

  // The largest value takes ten bytes.
  uint8_t wide[10];
  ASSERT_EQ(EncodeVarint64(kMaxKey, wide), wide + 10);
  EXPECT_EQ(VarintLength(kMaxKey), 10u);
  at = 0;
  EXPECT_EQ(DecodeVarint64(wide, sizeof(wide), &at), kMaxKey);
  EXPECT_EQ(at, 10u);

  // At the limit nothing is read, not even a one-byte value lying there.
  const uint8_t one[] = {0x01};
  at = 0;
  EXPECT_EQ(DecodeVarint64(one, 0, &at), 0u);
  EXPECT_EQ(at, 0u);

  // A continuation byte cut off by the limit: the bits read so far, and
  // the offset stops at the limit.
  const uint8_t cut[] = {0x85, 0x01};
  at = 0;
  EXPECT_EQ(DecodeVarint64(cut, 1, &at), 5u);
  EXPECT_EQ(at, 1u);
}

TEST(CachingDeviceTest, HitsAreServedWithoutBaseTraffic) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, /*capacity_pages=*/4);
  PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
  std::vector<uint8_t> data(kBlock, 1);
  ASSERT_TRUE(cache.Write(p, data).ok());
  uint64_t base_reads_before = counters.snapshot().bytes_read_base;
  std::vector<uint8_t> out;
  ASSERT_TRUE(cache.Read(p, &out).ok());  // Hit: dirty page in cache.
  EXPECT_EQ(out, data);
  EXPECT_EQ(counters.snapshot().bytes_read_base, base_reads_before);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(CachingDeviceTest, EvictionWritesBackDirtyPages) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, /*capacity_pages=*/2);
  std::vector<PageId> pages;
  for (int i = 0; i < 3; ++i) {
    PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
    std::vector<uint8_t> data(kBlock, static_cast<uint8_t>(i + 1));
    ASSERT_TRUE(cache.Write(p, data).ok());
    pages.push_back(p);
  }
  // Page 0 was evicted (capacity 2) and must have reached the device.
  EXPECT_EQ(cache.cached_pages(), 2u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(device.Read(pages[0], &out).ok());
  EXPECT_EQ(out[0], 1);
  // Reading page 0 through the cache is now a miss.
  ASSERT_TRUE(cache.Read(pages[0], &out).ok());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CachingDeviceTest, FlushAllPushesDirtyPagesDown) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, 8);
  PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
  std::vector<uint8_t> data(kBlock, 7);
  ASSERT_TRUE(cache.Write(p, data).ok());
  ASSERT_TRUE(cache.FlushAll().ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(device.Read(p, &out).ok());
  EXPECT_EQ(out, data);
}

TEST(CachingDeviceTest, ZeroCapacityIsWriteThrough) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, 0);
  PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
  std::vector<uint8_t> data(kBlock, 9);
  ASSERT_TRUE(cache.Write(p, data).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(device.Read(p, &out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(cache.cached_pages(), 0u);
}

TEST(CachingDeviceTest, FreeDropsCachedCopy) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, 4);
  PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
  std::vector<uint8_t> data(kBlock, 3);
  ASSERT_TRUE(cache.Write(p, data).ok());
  ASSERT_TRUE(cache.Free(p).ok());
  EXPECT_EQ(cache.cached_pages(), 0u);
}

TEST(CachingDeviceTest, LevelStatsTrackResidency) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, 4);
  PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
  std::vector<uint8_t> data(kBlock, 3);
  ASSERT_TRUE(cache.Write(p, data).ok());
  EXPECT_EQ(cache.level_stats().space_aux, kBlock);
}

TEST(CachingDeviceTest, ReadPinMissChargesBaseHitChargesCache) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, /*capacity_pages=*/4);
  PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
  std::vector<uint8_t> data(kBlock, 0x11);
  ASSERT_TRUE(device.Write(p, data).ok());  // Populate base, bypass cache.
  uint64_t base_reads = counters.snapshot().bytes_read_base;
  uint64_t cache_reads = cache.level_stats().bytes_read_aux;
  {
    PageReadGuard guard;
    ASSERT_TRUE(cache.PinForRead(p, &guard).ok());  // Miss: base charged.
    EXPECT_EQ(guard.bytes()[0], 0x11);
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(counters.snapshot().bytes_read_base, base_reads + kBlock);
  EXPECT_EQ(cache.level_stats().bytes_read_aux, cache_reads);
  {
    PageReadGuard guard;
    ASSERT_TRUE(cache.PinForRead(p, &guard).ok());  // Hit: cache charged.
  }
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(counters.snapshot().bytes_read_base, base_reads + kBlock);
  EXPECT_EQ(cache.level_stats().bytes_read_aux, cache_reads + kBlock);
}

TEST(CachingDeviceTest, SpeculativeWritePinDropsOnCleanRelease) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, /*capacity_pages=*/4);
  PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
  std::vector<uint8_t> data(kBlock, 0x22);
  ASSERT_TRUE(device.Write(p, data).ok());
  uint64_t base_reads = counters.snapshot().bytes_read_base;
  {
    // A write pin on an uncached page inserts a zero-filled speculative
    // entry without reading the base...
    PageWriteGuard guard;
    ASSERT_TRUE(cache.PinForWrite(p, &guard).ok());
    EXPECT_EQ(guard.bytes()[0], 0);
    ASSERT_TRUE(guard.Release().ok());  // ...and a clean release drops it.
  }
  EXPECT_EQ(counters.snapshot().bytes_read_base, base_reads);
  EXPECT_EQ(cache.cached_pages(), 0u);
  // The base copy was never clobbered by the speculative zeros.
  std::vector<uint8_t> out;
  ASSERT_TRUE(device.Read(p, &out).ok());
  EXPECT_EQ(out, data);
}

TEST(CachingDeviceTest, DirtyWritePinReachesBaseOnFlush) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, /*capacity_pages=*/4);
  PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
  uint64_t base_writes = counters.snapshot().blocks_written;
  {
    PageWriteGuard guard;
    ASSERT_TRUE(cache.PinForWrite(p, &guard).ok());
    std::fill(guard.bytes().begin(), guard.bytes().end(), 0x33);
    guard.MarkDirty();
    ASSERT_TRUE(guard.Release().ok());
  }
  EXPECT_EQ(cache.cached_pages(), 1u);
  // Dirty release charged the cache level, not the base.
  EXPECT_EQ(counters.snapshot().blocks_written, base_writes);
  EXPECT_EQ(cache.level_stats().bytes_written_aux, kBlock);
  ASSERT_TRUE(cache.FlushAll().ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(device.Read(p, &out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(kBlock, 0x33));
}

// A Write to a page held by a missed write pin turns the speculative frame
// into real data: the pin's clean release keeps it and FlushAll writes it
// back, instead of the base's old bytes coming back.
TEST(CachingDeviceTest, WriteUnderAMissedWritePinSurvivesItsCleanRelease) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, /*capacity_pages=*/4);
  PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
  ASSERT_TRUE(device.Write(p, std::vector<uint8_t>(kBlock, 0x11)).ok());
  const std::vector<uint8_t> data(kBlock, 0x22);
  {
    PageWriteGuard guard;
    ASSERT_TRUE(cache.PinForWrite(p, &guard).ok());  // Miss: speculative.
    ASSERT_TRUE(cache.Write(p, data).ok());
    ASSERT_TRUE(guard.Release().ok());  // Clean.
  }
  ASSERT_TRUE(cache.FlushAll().ok());
  EXPECT_EQ(cache.write_backs(), 1u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(cache.Read(p, &out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(device.Read(p, &out).ok());
  EXPECT_EQ(out, data);
}

TEST(CachingDeviceTest, ZeroCapacityPinWritesThroughAtRelease) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, /*capacity_pages=*/0);
  PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
  {
    PageWriteGuard guard;
    ASSERT_TRUE(cache.PinForWrite(p, &guard).ok());
    std::fill(guard.bytes().begin(), guard.bytes().end(), 0x44);
    guard.MarkDirty();
    ASSERT_TRUE(guard.Release().ok());
  }
  // The transient entry was trimmed at last unpin; data reached the base.
  EXPECT_EQ(cache.cached_pages(), 0u);
  EXPECT_EQ(cache.pinned_pages(), 0u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(device.Read(p, &out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(kBlock, 0x44));
}

TEST(CachingDeviceTest, EvictionSkipsPinnedPages) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, /*capacity_pages=*/1);
  PageId a = testing_util::MustAllocate(cache, DataClass::kBase);
  PageId b = testing_util::MustAllocate(cache, DataClass::kBase);
  PageReadGuard guard_a;
  std::vector<uint8_t> zeros(kBlock, 0);
  ASSERT_TRUE(device.Write(a, zeros).ok());
  ASSERT_TRUE(device.Write(b, zeros).ok());
  ASSERT_TRUE(cache.PinForRead(a, &guard_a).ok());
  {
    // Pinning a second page overshoots capacity transiently; the pinned
    // page `a` must not be the eviction victim.
    PageReadGuard guard_b;
    ASSERT_TRUE(cache.PinForRead(b, &guard_b).ok());
    EXPECT_EQ(guard_a.bytes().data()[0], 0);  // Still valid.
  }
  guard_a.Release();
  EXPECT_LE(cache.cached_pages(), 1u);
}

TEST(CachingDeviceTest, SetCapacityTrimsImmediately) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, /*capacity_pages=*/8);
  std::vector<PageId> pages;
  std::vector<uint8_t> data(kBlock, 9);
  for (int i = 0; i < 8; ++i) {
    PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
    ASSERT_TRUE(cache.Write(p, data).ok());
    pages.push_back(p);
  }
  ASSERT_EQ(cache.cached_pages(), 8u);
  // Shrinking evicts (writing back dirty victims) down to the new cap now.
  ASSERT_TRUE(cache.SetCapacity(3).ok());
  EXPECT_EQ(cache.capacity_pages(), 3u);
  EXPECT_EQ(cache.cached_pages(), 3u);
  // Evicted dirty pages reached the base device.
  std::vector<uint8_t> out;
  ASSERT_TRUE(device.Read(pages[0], &out).ok());
  EXPECT_EQ(out[0], 9);
  // Growing never faults anything in.
  ASSERT_TRUE(cache.SetCapacity(16).ok());
  EXPECT_EQ(cache.cached_pages(), 3u);
}

TEST(CachingDeviceTest, SetCapacityBelowPinnedResidencyDoesNotWedge) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, /*capacity_pages=*/4);
  std::vector<uint8_t> zeros(kBlock, 0);
  std::vector<PageId> pages;
  for (int i = 0; i < 4; ++i) {
    PageId p = testing_util::MustAllocate(cache, DataClass::kBase);
    ASSERT_TRUE(device.Write(p, zeros).ok());
    pages.push_back(p);
  }
  // Pin three pages, then shrink to 1: the sweep must skip every pinned
  // entry (their guards stay valid), evict nothing it cannot, and still
  // return OK -- an all-pinned overshoot is not an error.
  PageReadGuard g0, g1, g2;
  ASSERT_TRUE(cache.PinForRead(pages[0], &g0).ok());
  ASSERT_TRUE(cache.PinForRead(pages[1], &g1).ok());
  ASSERT_TRUE(cache.PinForRead(pages[2], &g2).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(cache.Read(pages[3], &out).ok());  // Unpinned 4th resident.
  ASSERT_EQ(cache.cached_pages(), 4u);
  ASSERT_TRUE(cache.SetCapacity(1).ok());
  EXPECT_EQ(cache.capacity_pages(), 1u);
  // Only the unpinned page could go; residency overshoots at 3 (pinned).
  EXPECT_EQ(cache.cached_pages(), 3u);
  EXPECT_EQ(cache.pinned_pages(), 3u);
  EXPECT_EQ(g0.bytes().data()[0], 0);  // Pinned views never invalidated.
  EXPECT_EQ(g1.bytes().data()[0], 0);
  EXPECT_EQ(g2.bytes().data()[0], 0);
  // Residency converges to the cap as pins release -- held across the
  // shrink, released after it.
  g0.Release();
  g1.Release();
  EXPECT_LE(cache.cached_pages(), 2u);
  g2.Release();
  EXPECT_LE(cache.cached_pages(), 1u);
}

// Replacement is LRU, not FIFO: a read-pin hit, a Read hit and a Write hit
// each move the page to MRU, and an insert evicts the least recently used
// unpinned page. Each phase names its victim through the miss counter:
// probing survivors from LRU to MRU keeps their order, and probing the
// victim misses.
TEST(CachingDeviceTest, HitsMoveToMruAndInsertsEvictTheLruUnpinnedPage) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  CachingDevice cache(&device, /*capacity_pages=*/3);
  std::vector<PageId> p;
  std::vector<uint8_t> data(kBlock, 0x5a);
  for (int i = 0; i < 4; ++i) {
    p.push_back(testing_util::MustAllocate(cache, DataClass::kBase));
    ASSERT_TRUE(device.Write(p.back(), data).ok());  // Bypass the cache.
  }
  auto hit = [&](PageId page) {
    uint64_t misses = cache.misses();
    std::vector<uint8_t> out;
    EXPECT_TRUE(cache.Read(page, &out).ok());
    return cache.misses() == misses;
  };
  // LRU to MRU after each step in the trailing comments.
  EXPECT_FALSE(hit(p[0]));
  EXPECT_FALSE(hit(p[1]));
  EXPECT_FALSE(hit(p[2]));  // p0 p1 p2
  {
    PageReadGuard guard;
    ASSERT_TRUE(cache.PinForRead(p[0], &guard).ok());
  }                         // p1 p2 p0: the read-pin hit moved p0.
  EXPECT_FALSE(hit(p[3]));  // p2 p0 p3: evicts p1, not p0.
  EXPECT_TRUE(hit(p[0]));   // p2 p3 p0
  EXPECT_FALSE(hit(p[1]));  // p3 p0 p1: evicts p2.
  EXPECT_EQ(cache.hits(), 2u);

  EXPECT_TRUE(hit(p[3]));   // p0 p1 p3: the Read hit moved p3.
  EXPECT_FALSE(hit(p[2]));  // p1 p3 p2: evicts p0.
  EXPECT_TRUE(hit(p[3]));   // p1 p2 p3
  EXPECT_FALSE(hit(p[0]));  // p2 p3 p0: evicts p1.

  ASSERT_TRUE(cache.Write(p[2], data).ok());  // p3 p0 p2: the Write hit.
  EXPECT_FALSE(hit(p[1]));  // p0 p2 p1: evicts p3 (clean).
  EXPECT_TRUE(hit(p[2]));   // p0 p1 p2
  EXPECT_EQ(cache.write_backs(), 0u);

  PageReadGuard pinned;
  ASSERT_TRUE(cache.PinForRead(p[0], &pinned).ok());  // p1 p2 p0
  EXPECT_TRUE(hit(p[1]));   // p2 p0 p1
  EXPECT_TRUE(hit(p[2]));   // p0 p1 p2: p0 is the LRU page, and pinned.
  EXPECT_FALSE(hit(p[3]));  // p0 p2 p3: the sweep skips p0, evicts p1.
  EXPECT_TRUE(hit(p[2]));   // p0 p3 p2
  EXPECT_FALSE(hit(p[1]));  // p0 p2 p1: skips p0 again, evicts p3.
  EXPECT_EQ(pinned.bytes()[0], 0x5a);
  pinned.Release();
  EXPECT_EQ(cache.misses(), 10u);
  EXPECT_EQ(cache.evictions(), 7u);
  EXPECT_EQ(cache.write_backs(), 0u);
  EXPECT_EQ(cache.cached_pages(), 3u);
}

// A guard abandoned by Crash() and released after its page was pinned again
// must leave the new pin alone, at every rung that hands out guards: each
// guard carries its device's crash epoch, and a stale one releases nothing.
TEST(BlockDeviceTest, StaleGuardReleaseKeepsTheNewPin) {
  RumCounters counters;
  BlockDevice device(kBlock, &counters);
  PageId a = testing_util::MustAllocate(device, DataClass::kBase);
  PageReadGuard stale;
  ASSERT_TRUE(device.PinForRead(a, &stale).ok());
  PageWriteGuard stale_write;
  ASSERT_TRUE(device.PinForWrite(a, &stale_write).ok());
  stale_write.MarkDirty();
  device.Crash();
  PageReadGuard fresh;
  ASSERT_TRUE(device.PinForRead(a, &fresh).ok());
  uint64_t writes = counters.snapshot().blocks_written;
  stale.Release();
  EXPECT_TRUE(stale_write.Release().ok());
  EXPECT_EQ(counters.snapshot().blocks_written, writes);  // No charge.
  EXPECT_EQ(device.pinned_pages(), 1u);
  EXPECT_EQ(device.Free(a).code(), Code::kInvalidArgument);
  fresh.Release();
  EXPECT_EQ(device.pinned_pages(), 0u);
  EXPECT_TRUE(device.Free(a).ok());
}

TEST(FaultyDeviceTest, StaleGuardReleaseKeepsTheNewPin) {
  RumCounters counters;
  BlockDevice base(kBlock, &counters);
  FaultyDevice device(&base);
  PageId a = testing_util::MustAllocate(device, DataClass::kBase);
  PageReadGuard stale;
  ASSERT_TRUE(device.PinForRead(a, &stale).ok());
  device.Crash();
  PageReadGuard fresh;
  ASSERT_TRUE(device.PinForRead(a, &fresh).ok());
  stale.Release();
  EXPECT_EQ(device.pinned_pages(), 1u);
  // The fresh pin still holds its base pin.
  EXPECT_EQ(base.pinned_pages(), 1u);
  EXPECT_EQ(base.Free(a).code(), Code::kInvalidArgument);
  fresh.Release();
  EXPECT_EQ(base.pinned_pages(), 0u);
  EXPECT_TRUE(device.Free(a).ok());
}

TEST(CachingDeviceTest, StaleGuardReleaseKeepsTheNewPin) {
  RumCounters counters;
  BlockDevice base(kBlock, &counters);
  CachingDevice cache(&base, /*capacity_pages=*/1);
  PageId a = testing_util::MustAllocate(cache, DataClass::kBase);
  PageId b = testing_util::MustAllocate(cache, DataClass::kBase);
  PageReadGuard stale;
  ASSERT_TRUE(cache.PinForRead(a, &stale).ok());
  cache.Crash();
  PageReadGuard fresh;
  ASSERT_TRUE(cache.PinForRead(a, &fresh).ok());
  stale.Release();
  EXPECT_EQ(cache.pinned_pages(), 1u);
  // `a` is still pinned, so pinning `b` overshoots instead of evicting it
  // from under the fresh guard.
  PageReadGuard guard_b;
  ASSERT_TRUE(cache.PinForRead(b, &guard_b).ok());
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.cached_pages(), 2u);
  EXPECT_EQ(cache.Free(a).code(), Code::kInvalidArgument);
  guard_b.Release();
  fresh.Release();
  EXPECT_EQ(cache.pinned_pages(), 0u);
}

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest()
      : device_(kBlock, &counters_),
        heap_(&device_, DataClass::kBase, &counters_) {}

  RumCounters counters_;
  BlockDevice device_;
  HeapFile heap_;
};

TEST_F(HeapFileTest, AppendAssignsSequentialRows) {
  for (uint64_t i = 0; i < 100; ++i) {
    Result<RowId> row = heap_.Append(Entry{i, i * 10});
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row.value(), i);
  }
  EXPECT_EQ(heap_.row_count(), 100u);
}

TEST_F(HeapFileTest, AtReadsAnyRow) {
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap_.Append(Entry{i, i * 10}).ok());
  }
  for (uint64_t i = 0; i < 100; i += 7) {
    Result<Entry> e = heap_.At(i);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().key, i);
    EXPECT_EQ(e.value().value, i * 10);
  }
  EXPECT_FALSE(heap_.At(100).ok());
}

TEST_F(HeapFileTest, SetOverwritesInPlace) {
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(heap_.Append(Entry{i, 0}).ok());
  }
  ASSERT_TRUE(heap_.Set(3, Entry{3, 999}).ok());
  EXPECT_EQ(heap_.At(3).value().value, 999u);
  ASSERT_TRUE(heap_.Set(63, Entry{63, 888}).ok());  // Tail row.
  EXPECT_EQ(heap_.At(63).value().value, 888u);
}

TEST_F(HeapFileTest, PopBackShrinksAcrossPageBoundary) {
  size_t per_page = heap_.rows_per_page();
  for (uint64_t i = 0; i < per_page + 1; ++i) {
    ASSERT_TRUE(heap_.Append(Entry{i, i}).ok());
  }
  ASSERT_TRUE(heap_.PopBack().ok());  // Tail row goes.
  ASSERT_TRUE(heap_.PopBack().ok());  // Unseals the full page.
  EXPECT_EQ(heap_.row_count(), per_page - 1);
  EXPECT_EQ(heap_.At(per_page - 2).value().key, per_page - 2);
  // Drain to empty.
  while (heap_.row_count() > 0) {
    ASSERT_TRUE(heap_.PopBack().ok());
  }
  EXPECT_EQ(device_.live_pages(), 0u);
}

TEST_F(HeapFileTest, PopBackOnEmptyFails) {
  EXPECT_EQ(heap_.PopBack().code(), Code::kOutOfRange);
}

// A sealed page a crash rolled back to zeroes holds no rows; unsealing it
// must report Corruption rather than pop from an empty tail.
TEST_F(HeapFileTest, PopBackIntoARolledBackPageIsCorruption) {
  for (uint64_t i = 0; i < heap_.rows_per_page(); ++i) {
    ASSERT_TRUE(heap_.Append(Entry{i, i}).ok());
  }
  ASSERT_EQ(device_.live_pages(), 1u);
  ASSERT_TRUE(device_.Write(0, std::vector<uint8_t>(kBlock, 0)).ok());
  EXPECT_EQ(heap_.PopBack().code(), Code::kCorruption);
}

TEST_F(HeapFileTest, ForEachVisitsEverythingInOrder) {
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(heap_.Append(Entry{i, i}).ok());
  }
  uint64_t next = 0;
  ASSERT_TRUE(heap_
                  .ForEach([&](RowId row, const Entry& e) {
                    EXPECT_EQ(row, next);
                    EXPECT_EQ(e.key, next);
                    ++next;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(next, 200u);
}

TEST_F(HeapFileTest, ForRowsReadsEachPageOnce) {
  size_t per_page = heap_.rows_per_page();
  for (uint64_t i = 0; i < 4 * per_page; ++i) {
    ASSERT_TRUE(heap_.Append(Entry{i, i}).ok());
  }
  uint64_t blocks_before = counters_.snapshot().blocks_read;
  // Three rows on the same (first) page.
  std::vector<RowId> rows = {0, 1, 2};
  size_t visited = 0;
  ASSERT_TRUE(heap_
                  .ForRows(rows,
                           [&](RowId, const Entry&) {
                             ++visited;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(visited, 3u);
  EXPECT_EQ(counters_.snapshot().blocks_read, blocks_before + 1);
}

TEST_F(HeapFileTest, ClearFreesAllPages) {
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(heap_.Append(Entry{i, i}).ok());
  }
  ASSERT_TRUE(heap_.Clear().ok());
  EXPECT_EQ(heap_.row_count(), 0u);
  EXPECT_EQ(device_.live_pages(), 0u);
}

}  // namespace
}  // namespace rum
