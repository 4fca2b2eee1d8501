#ifndef RUMLAB_STORAGE_BLOCK_DEVICE_H_
#define RUMLAB_STORAGE_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/counters.h"
#include "core/metrics.h"
#include "core/status.h"
#include "core/types.h"
#include "storage/device.h"

namespace rum {

/// A deterministic simulated block device.
///
/// This is the substrate the paper's cost model assumes: storage with a
/// minimum access granularity (Section 4, "the fundamental assumption that
/// data has a minimum access granularity holds for all storage mediums").
/// Every read or write touches whole blocks and is charged -- in bytes and
/// blocks, tagged base vs auxiliary -- to the RumCounters supplied at
/// construction.
///
/// Pages are allocated with a DataClass tag so space amplification can be
/// derived exactly: resident space is (#allocated pages of class) x
/// block_size.
class BlockDevice : public Device {
 public:
  /// Creates a device with blocks of `block_size` bytes, charging all
  /// traffic to `counters` (borrowed; must outlive the device).
  BlockDevice(size_t block_size, RumCounters* counters);

  /// Allocates a zeroed page of class `cls`; never fails at this level (the
  /// simulated store has no capacity limit -- allocation faults come from a
  /// FaultyDevice stacked on top).
  Status Allocate(DataClass cls, PageId* out) override;

  /// Frees a page; its id may be recycled by later allocations.
  Status Free(PageId page) override;

  /// Reads a whole block into `out` (resized to block_size). Charged as one
  /// block read of the page's class.
  Status Read(PageId page, std::vector<uint8_t>* out) override;

  /// Writes a whole block from `data` (must be exactly block_size bytes).
  /// Charged as one block write of the page's class.
  Status Write(PageId page, const std::vector<uint8_t>& data) override;

  /// No buffering at the bottom of the stack; always OK.
  Status FlushAll() override { return Status::OK(); }

  /// Zero-copy pin straight into the page slot's backing bytes. Charged
  /// exactly like Read (at pin time); the slot cannot be freed while pinned.
  Status PinForRead(PageId page, PageReadGuard* out) override;

  /// Zero-copy mutable pin into the page slot. Nothing is charged until the
  /// guard's dirty release, which is charged exactly like Write.
  Status PinForWrite(PageId page, PageWriteGuard* out) override;

  /// Direct mutable access to a page's backing bytes WITHOUT accounting.
  /// Only for tests that corrupt pages in place.
  std::vector<uint8_t>* mutable_page_unaccounted(PageId page);

  /// Crash simulation: the bottom of the stack holds no volatile state, so
  /// only open pins are abandoned (their guards go stale: late releases are
  /// no-ops).
  void Crash() override;

  size_t block_size() const override { return block_size_; }
  /// Live (allocated, not freed) page count, total and per class.
  size_t live_pages() const override { return live_total_; }
  size_t live_pages(DataClass cls) const {
    return cls == DataClass::kBase ? live_base_ : live_aux_;
  }

  /// Pins currently outstanding across all pages (tests / debugging).
  size_t pinned_pages() const { return pins_outstanding_; }

 protected:
  void UnpinRead(PageId page) override;
  Status UnpinWrite(PageId page, bool dirty) override;

 private:
  struct PageSlot {
    std::vector<uint8_t> bytes;
    DataClass cls = DataClass::kBase;
    bool live = false;
    uint32_t pins = 0;
  };

  Status CheckLive(PageId page) const;
  /// Charge one block read/write of the page's class: the one accounting
  /// step behind Read/Write, a read pin and a dirty write release.
  Status ChargeRead(PageId page) const;
  Status ChargeWrite(PageId page);

  size_t block_size_;
  RumCounters* counters_;  // Not owned.
  std::vector<PageSlot> pages_;
  std::vector<PageId> free_list_;
  size_t live_total_ = 0;
  size_t live_base_ = 0;
  size_t live_aux_ = 0;
  size_t pins_outstanding_ = 0;
  /// Last member: unregisters before any state its callbacks read dies.
  /// BlockDevice has no internal lock (upper layers serialize access), so
  /// its gauges must only be exported at quiescence.
  MetricsGroup metrics_;
};

}  // namespace rum

#endif  // RUMLAB_STORAGE_BLOCK_DEVICE_H_
