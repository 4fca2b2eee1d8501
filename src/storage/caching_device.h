#ifndef RUMLAB_STORAGE_CACHING_DEVICE_H_
#define RUMLAB_STORAGE_CACHING_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/counters.h"
#include "core/memory_budget.h"
#include "core/metrics.h"
#include "core/status.h"
#include "core/types.h"
#include "storage/device.h"

namespace rum {

/// An LRU write-back cache stacked on another Device -- one level of the
/// paper's Figure-2 memory hierarchy.
///
/// Accounting model: traffic served from this level is charged to this
/// level's own RumCounters; misses and write-backs propagate to the
/// underlying device, which charges *its* counters. The cache's resident
/// bytes (its memory overhead MO at level n-1) are reported in this level's
/// counters as auxiliary space.
///
/// Layout: resident pages live in a flat vector of frames, linked into one
/// LRU list by frame index, and one open-addressing table maps a PageId to
/// its frame. A hit costs one table probe and an O(1) relink to MRU, with
/// no allocation; an unpin costs one probe. A dropped frame frees its
/// buffer and its index is reused by the next insert.
///
/// Thread safety: one internal mutex serializes every operation (a single
/// global LRU order does not shard), so a CachingDevice may be shared by
/// concurrent access-method shards. Calls into the base device happen under
/// that lock, serializing the whole stack beneath this level. Pins hold the
/// lock only for the lookup/insert, not for the caller's whole critical
/// section, so concurrent callers must touch disjoint pages while pinned
/// (the ShardedMethod partitioning guarantees exactly that).
///
/// Pinned entries are excluded from eviction, so a burst of pins can push
/// residency transiently above `capacity_pages`; the overshoot is trimmed
/// back as pins release.
class CachingDevice : public Device, public MemoryPool {
 public:
  /// Wraps `base` (borrowed, must outlive this) with an LRU cache holding at
  /// most `capacity_pages` page copies. With a non-null `registrar` the
  /// cache registers itself as a resizable kCache memory pool (global
  /// memory arbitration; see core/memory_budget.h) and ticks the
  /// registrar's epoch clock once per cache operation -- always after
  /// releasing the internal lock, because a replan triggered by the tick
  /// calls back into SetCapacity.
  CachingDevice(Device* base, size_t capacity_pages,
                MemoryRegistrar* registrar = nullptr);

  ~CachingDevice() override;

  Status Allocate(DataClass cls, PageId* out) override;
  Status Free(PageId page) override;
  Status Read(PageId page, std::vector<uint8_t>* out) override;
  Status Write(PageId page, const std::vector<uint8_t>& data) override;
  /// Writes every dirty page back, LRU to MRU, then flushes the base.
  Status FlushAll() override;

  /// Pins the cache entry for `page` (faulting it in from the base device
  /// on a miss) and returns a view of its bytes. A hit charges this level's
  /// counters exactly like a cache-hit Read; a miss charges only the base.
  Status PinForRead(PageId page, PageReadGuard* out) override;

  /// Pins the cache entry for `page` for in-place mutation. On a miss the
  /// entry is zero-filled WITHOUT reading the base device (matching the
  /// accounting of a blind Write), so callers must fully overwrite the
  /// block unless the page is simultaneously read-pinned or already cached.
  /// The cache-level write charge lands at the guard's dirty release; a
  /// clean release of a missed pin drops the speculative entry unchanged.
  Status PinForWrite(PageId page, PageWriteGuard* out) override;

  /// Crash simulation: every cached entry -- dirty or clean -- vanishes
  /// without write-back, open pins are abandoned (their guards go stale:
  /// late releases are no-ops), and the crash propagates to the device
  /// below. Only state that reached the bottom of the stack survives.
  void Crash() override;

  size_t block_size() const override { return base_->block_size(); }
  size_t live_pages() const override { return base_->live_pages(); }

  /// This cache level's own accounting (hits served, resident bytes).
  CounterSnapshot level_stats() const { return counters_.snapshot(); }
  void ResetLevelStats() { counters_.ResetTraffic(); }

  /// Retargets the cache to hold at most `capacity_pages` entries, trimming
  /// immediately with the pin-safe skip-and-continue eviction sweep. Pinned
  /// entries are never touched: a shrink below the pinned population leaves
  /// residency transiently above the new cap, and the standard
  /// unpin-time trim (UnpinRead/UnpinWrite) converges it as pins release.
  /// Returns non-OK (the first write-back failure) only when dirty-victim
  /// write-back faults kept residency above the new cap; the capacity
  /// itself is always updated.
  Status SetCapacity(size_t capacity_pages);

  // MemoryPool (the global arbiter's resize surface): assigned bytes are
  // capacity * block_size; the benefit signal is miss bytes (every miss is
  // base-device traffic more capacity might have absorbed).
  std::string_view pool_name() const override { return "caching_device"; }
  MemoryPoolKind pool_kind() const override { return MemoryPoolKind::kCache; }
  uint64_t pool_bytes() const override;
  void SetPoolBytes(uint64_t bytes) override;
  uint64_t BenefitSignal() const override;

  size_t capacity_pages() const;
  size_t cached_pages() const;
  uint64_t hits() const;
  uint64_t misses() const;
  /// Entries dropped from the cache by eviction sweeps.
  uint64_t evictions() const;
  /// Dirty victims successfully written back (by eviction or FlushAll).
  uint64_t write_backs() const;
  /// Dirty-victim write-backs that failed during eviction sweeps; the
  /// victim stays cached and the sweep moves on to the next candidate.
  uint64_t write_back_failures() const;

  /// Cached pages currently pinned (tests / debugging).
  size_t pinned_pages() const;

 protected:
  void UnpinRead(PageId page) override;
  Status UnpinWrite(PageId page, bool dirty) override;

 private:
  /// Frame index meaning "none": the end of the LRU list, an empty slot.
  static constexpr uint32_t kNoFrame = UINT32_MAX;
  /// The page table's size when the cache holds nothing.
  static constexpr size_t kMinTableSlots = 16;

  /// One resident page.
  struct Frame {
    PageId page = kInvalidPageId;
    std::vector<uint8_t> bytes;
    uint32_t pins = 0;
    bool dirty = false;
    /// Created by a missed write pin: contents are not backed by the base
    /// device until the frame turns dirty (a dirty release or a Write);
    /// dropped on a clean release before then.
    bool speculative = false;
    /// Steady-clock stamp of the 0->1 pin, read only while tracing, so a
    /// kPinRelease event can carry the held duration.
    uint64_t pinned_at_ns = 0;
    uint32_t newer = kNoFrame;  // Toward MRU.
    uint32_t older = kNoFrame;  // Toward LRU.
  };

  /// One slot of the page table; `frame == kNoFrame` marks it empty.
  struct Slot {
    PageId page = kInvalidPageId;
    uint32_t frame = kNoFrame;
  };

  /// The frame holding `page`, or kNoFrame.
  uint32_t Find(PageId page) const;
  /// The table slot `page` hashes to.
  size_t HomeSlot(PageId page) const;
  /// Adds `page -> frame` to the table (the page must be absent), doubling
  /// the table first when it would pass half full.
  void MapPage(PageId page, uint32_t frame);
  /// Removes `page` from the table (it must be present), shifting later
  /// entries of its probe run back so no tombstone is left.
  void UnmapPage(PageId page);

  /// Links a frame in at the MRU end / unlinks it from the LRU list.
  void LinkMru(uint32_t frame);
  void Unlink(uint32_t frame);
  /// Moves a resident frame to the MRU end.
  void Touch(uint32_t frame);

  /// One LRU-to-MRU eviction sweep (writing back dirty victims) until at
  /// most `target` entries remain. Pinned entries and victims whose dirty
  /// write-back fails are *skipped*, not sweep-ending: a single unwritable
  /// page cannot wedge eviction while clean victims exist. Returns non-OK
  /// (the first write-back failure) only when failures left the cache above
  /// `target`; an all-pinned overshoot still returns OK.
  Status EvictDownTo(size_t target);
  /// Evicts so one more entry fits under the capacity; at capacity 0 it
  /// evicts nothing. A pin inserts after it even when every candidate is
  /// pinned (overshooting the capacity); Read and Write insert through
  /// InsertEntry.
  Status MakeRoom();
  /// Makes `page` resident at MRU with `bytes` and returns its frame. Does
  /// not evict; callers make room first.
  uint32_t AddFrame(PageId page, std::vector<uint8_t> bytes);
  /// Inserts a page copy for Read and Write, evicting as needed.
  Status InsertEntry(PageId page, std::vector<uint8_t> bytes, bool dirty);
  /// Removes a frame from the table and the LRU list, frees its buffer and
  /// releases its space.
  void DropFrame(uint32_t frame);
  /// Pins a resident frame: one more pin, and the trace stamp on 0 -> 1.
  void PinFrame(uint32_t frame);
  /// Drops one pin of `page`, which must hold one, and returns its frame.
  uint32_t UnpinFrame(PageId page);
  /// Emits the one-shot kRecovery event on the first operation after a
  /// Crash(). Call with mu_ held.
  void NoteRecoveryLocked();
  /// Ticks the registrar's epoch clock. MUST be called with mu_ released:
  /// a replan fired by the tick re-enters SetCapacity, which locks mu_.
  void TickRegistrar();

  Device* base_;  // Not owned.
  MemoryRegistrar* registrar_;  // Not owned; may be null.
  size_t capacity_pages_;
  RumCounters counters_;
  mutable std::mutex mu_;  // Guards everything below (and base_ calls).
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_frames_;  // Indices of dropped frames.
  std::vector<Slot> table_;            // Size a power of two, or empty.
  size_t resident_ = 0;
  uint32_t mru_ = kNoFrame;
  uint32_t lru_ = kNoFrame;
  size_t pins_outstanding_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t write_backs_ = 0;
  uint64_t write_back_failures_ = 0;
  bool crashed_ = false;
  /// Last member: unregisters before any state its callbacks read dies.
  MetricsGroup metrics_;
};

}  // namespace rum

#endif  // RUMLAB_STORAGE_CACHING_DEVICE_H_
