// Heap allocations on the LSM write path. This binary replaces the global
// operator new and new[] (every form) with counting ones, so it counts
// every allocation the process makes; each test reads the count around
// the operations it measures.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/options.h"
#include "methods/lsm/lsm_tree.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rum {
namespace {

constexpr uint64_t kOps = 100000;

// Spreads consecutive integers over the key space, so inserts land all
// over the memtable rather than at its tail.
Key Spread(uint64_t i) { return i * 0x9E3779B97F4A7C15ULL; }

TEST(AllocTest, LsmWritesAllocateOnlyArenaChunksAndTableGrowth) {
  Options options;
  options.lsm.memtable_entries = 2 * kOps;  // No flush within the test.
  LsmTree tree(options);

  uint64_t failed = 0;
  uint64_t before = g_allocations.load();
  for (uint64_t i = 0; i < kOps; ++i) {
    if (!tree.Insert(Spread(i), i).ok()) ++failed;
  }
  uint64_t inserts = g_allocations.load() - before;

  before = g_allocations.load();
  for (uint64_t i = 0; i < kOps; ++i) {
    if (!tree.Insert(Spread(i), i + 1).ok()) ++failed;
  }
  uint64_t overwrites = g_allocations.load() - before;

  RecordProperty("allocations_per_insert",
                 std::to_string(static_cast<double>(inserts) / kOps));
  RecordProperty("allocations_per_overwrite",
                 std::to_string(static_cast<double>(overwrites) / kOps));
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(tree.size(), kOps);
  // The rest are a 64 KiB arena chunk per ~1,800 nodes and the live-key
  // set's doublings.
  EXPECT_LT(static_cast<double>(inserts) / kOps, 0.01) << inserts;
  EXPECT_EQ(overwrites, 0u);
}

}  // namespace
}  // namespace rum
