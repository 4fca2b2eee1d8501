#ifndef RUMLAB_STORAGE_DEVICE_H_
#define RUMLAB_STORAGE_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/counters.h"
#include "core/status.h"
#include "core/types.h"

namespace rum {

class Device;

/// RAII handle to a page pinned for reading. While the guard is live the
/// device keeps the underlying block bytes at a stable address and `bytes()`
/// is a zero-copy const view of the whole block. The read charge
/// (`OnRead` + `OnBlockRead`, and any injected fault) happens once, at pin
/// time -- byte-identical to the accounting of a `Device::Read` copy.
///
/// Lifetime rules: guards must not be held across `Allocate`, `Free`, or
/// `FlushAll` on the same device, and a pinned page cannot be freed. A guard
/// carries the crash epoch of the device that handed it out; once that
/// device has crashed (`Device::Crash`), releasing the guard does nothing.
class PageReadGuard {
 public:
  PageReadGuard() = default;
  PageReadGuard(const PageReadGuard&) = delete;
  PageReadGuard& operator=(const PageReadGuard&) = delete;
  PageReadGuard(PageReadGuard&& other) noexcept { MoveFrom(&other); }
  PageReadGuard& operator=(PageReadGuard&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(&other);
    }
    return *this;
  }
  inline ~PageReadGuard();

  /// True when the guard holds a pin.
  bool valid() const { return device_ != nullptr; }
  PageId page() const { return page_; }
  /// Const view of the whole block; empty when !valid().
  std::span<const uint8_t> bytes() const { return {data_, size_}; }

  /// Drops the pin early (no-op on an empty guard).
  inline void Release();

 private:
  friend class Device;
  PageReadGuard(Device* device, PageId page, uint32_t epoch,
                const uint8_t* data, size_t size)
      : device_(device), page_(page), epoch_(epoch), data_(data),
        size_(size) {}

  void MoveFrom(PageReadGuard* other) {
    device_ = std::exchange(other->device_, nullptr);
    page_ = std::exchange(other->page_, kInvalidPageId);
    epoch_ = other->epoch_;
    data_ = std::exchange(other->data_, nullptr);
    size_ = std::exchange(other->size_, 0);
  }

  Device* device_ = nullptr;
  PageId page_ = kInvalidPageId;
  uint32_t epoch_ = 0;  ///< The device's crash epoch at pin time.
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// RAII handle to a page pinned for writing. `bytes()` is a zero-copy
/// mutable view of the whole block; mutations happen in place. Nothing is
/// charged at pin time. `Release()` unpins and -- only if `MarkDirty()` was
/// called -- charges `OnWrite` + `OnBlockWrite` (consuming one fault-budget
/// token) exactly once, byte-identical to a `Device::Write` of the block.
/// A clean release charges nothing.
///
/// If the dirty release fails (injected fault), the charge did not happen,
/// the guard is left inert (no dangling dirty state, a second Release is a
/// no-op), and the in-place mutations may remain visible -- the simulated
/// analogue of a torn write.
///
/// Pinning a page for write does NOT fault its prior contents in: on a
/// cache miss the view is zero-filled, so callers must fully overwrite the
/// block unless they read-pinned the same page first. Same lifetime and
/// crash rules as PageReadGuard.
class PageWriteGuard {
 public:
  PageWriteGuard() = default;
  PageWriteGuard(const PageWriteGuard&) = delete;
  PageWriteGuard& operator=(const PageWriteGuard&) = delete;
  PageWriteGuard(PageWriteGuard&& other) noexcept { MoveFrom(&other); }
  PageWriteGuard& operator=(PageWriteGuard&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(&other);
    }
    return *this;
  }
  /// Releases the pin, ignoring the unpin status (use Release() on paths
  /// that must observe write faults).
  inline ~PageWriteGuard();

  bool valid() const { return device_ != nullptr; }
  PageId page() const { return page_; }
  /// Mutable view of the whole block; empty when !valid().
  std::span<uint8_t> bytes() const { return {data_, size_}; }

  /// Marks the block modified; the write charge happens at Release().
  void MarkDirty() { dirty_ = true; }
  bool dirty() const { return dirty_; }

  /// Unpins; charges the write iff dirty. Returns the charge status.
  inline Status Release();

 private:
  friend class Device;
  PageWriteGuard(Device* device, PageId page, uint32_t epoch, uint8_t* data,
                 size_t size)
      : device_(device), page_(page), epoch_(epoch), data_(data),
        size_(size) {}

  void MoveFrom(PageWriteGuard* other) {
    device_ = std::exchange(other->device_, nullptr);
    page_ = std::exchange(other->page_, kInvalidPageId);
    epoch_ = other->epoch_;
    data_ = std::exchange(other->data_, nullptr);
    size_ = std::exchange(other->size_, 0);
    dirty_ = std::exchange(other->dirty_, false);
  }

  Device* device_ = nullptr;
  PageId page_ = kInvalidPageId;
  uint32_t epoch_ = 0;  ///< The device's crash epoch at pin time.
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool dirty_ = false;
};

/// Abstract block storage. Access methods program against this interface so
/// a raw simulated device (BlockDevice) and a cache stacked on top of one
/// (CachingDevice) are interchangeable -- the composition the paper's
/// Figure 2 reasons about.
///
/// Access methods reach blocks only through the pin path: `PinForRead` /
/// `PinForWrite` hand out zero-copy views into the device's own storage
/// (see the guard classes above for the charging contract and lifetime
/// rules). `Read` / `Write` are the whole-block transfer between rungs of a
/// device stack -- a cache filling a miss from the rung below and writing a
/// dirty page back -- and carry the same charges as a read pin and a dirty
/// release.
class Device {
 public:
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Allocates a zeroed page of class `cls` into `*out`. Allocation is
  /// fallible (fault injection models a full or failing device); on error
  /// `*out` is left untouched and nothing is charged.
  virtual Status Allocate(DataClass cls, PageId* out) = 0;
  /// Frees a page. Fails if the page is pinned.
  virtual Status Free(PageId page) = 0;
  /// Copies a whole block into `out`: a cache level's miss fill from the
  /// rung below. Charged like a read pin.
  virtual Status Read(PageId page, std::vector<uint8_t>* out) = 0;
  /// Copies a whole block down (`data.size()` must equal block_size()): a
  /// cache level's write-back. Charged like a dirty release.
  virtual Status Write(PageId page, const std::vector<uint8_t>& data) = 0;
  /// Pushes any buffered dirty state down to the bottom of the stack.
  virtual Status FlushAll() = 0;

  /// Simulates a process crash at this level and below: all buffered dirty
  /// state is dropped without write-back and all open pins are abandoned.
  /// Durable state (what reached the bottom of the stack) survives. A level
  /// that hands out guards starts a new crash epoch (AdvanceCrashEpoch), so
  /// guards still held by callers become stale: their eventual release is
  /// a no-op, even after the same page was pinned again, but their views
  /// must not be touched again. The default is a no-op (a level with
  /// nothing volatile).
  virtual void Crash() {}

  /// Pins `page` and charges the read (same charge as `Read`). On failure
  /// nothing is charged and `*out` is left invalid.
  virtual Status PinForRead(PageId page, PageReadGuard* out) = 0;
  /// Pins `page` for in-place writing; charges nothing until a dirty
  /// release. On failure `*out` is left invalid.
  virtual Status PinForWrite(PageId page, PageWriteGuard* out) = 0;

  virtual size_t block_size() const = 0;
  /// Live page count at the bottom of the stack.
  virtual size_t live_pages() const = 0;

 protected:
  Device() = default;

  /// Unpin hooks the guards call on release. `UnpinWrite` performs the
  /// dirty-write charge and returns its status.
  virtual void UnpinRead(PageId page) = 0;
  virtual Status UnpinWrite(PageId page, bool dirty) = 0;

  /// Guard factories for implementations (guard constructors are private).
  /// Each guard is stamped with `device`'s current crash epoch.
  static PageReadGuard MakeReadGuard(Device* device, PageId page,
                                     const uint8_t* data, size_t size) {
    return PageReadGuard(device, page, device->crash_epoch_, data, size);
  }
  static PageWriteGuard MakeWriteGuard(Device* device, PageId page,
                                       uint8_t* data, size_t size) {
    return PageWriteGuard(device, page, device->crash_epoch_, data, size);
  }

  /// Makes every guard this device handed out so far stale. The Crash() of
  /// each level that hands out guards calls it.
  void AdvanceCrashEpoch() { ++crash_epoch_; }

 private:
  friend class PageReadGuard;
  friend class PageWriteGuard;

  uint32_t crash_epoch_ = 0;
};

inline void PageReadGuard::Release() {
  if (device_ == nullptr) return;
  Device* device = std::exchange(device_, nullptr);
  // A stale guard's pin died in the crash; the page may be pinned anew.
  if (epoch_ == device->crash_epoch_) device->UnpinRead(page_);
  data_ = nullptr;
  size_ = 0;
}

inline PageReadGuard::~PageReadGuard() { Release(); }

inline Status PageWriteGuard::Release() {
  if (device_ == nullptr) return Status::OK();
  Device* device = std::exchange(device_, nullptr);
  bool dirty = std::exchange(dirty_, false);
  data_ = nullptr;
  size_ = 0;
  if (epoch_ != device->crash_epoch_) return Status::OK();  // Stale guard.
  return device->UnpinWrite(page_, dirty);
}

inline PageWriteGuard::~PageWriteGuard() { Release(); }

}  // namespace rum

#endif  // RUMLAB_STORAGE_DEVICE_H_
