#ifndef RUMLAB_METHODS_KEY_SET_H_
#define RUMLAB_METHODS_KEY_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"

namespace rum {

/// The exact live-key set a differential method keeps for `size()` and its
/// base/aux space split (simulator bookkeeping, never charged).
///
/// A flat table of 8-byte key slots: open addressing with linear probing,
/// a power-of-two capacity that doubles once the load passes 7/8 (so it
/// sits between 7/16 and 7/8 once grown), and a multiplicative hash whose
/// top bits pick the home slot. Erase shifts the rest of the probe run
/// back, so no tombstones build up under erase-heavy streams. One key
/// value marks a free slot; that key itself is held in a side flag, so
/// every Key is a valid member. Nothing iterates a live-key set, so there
/// is no iterator.
class KeySet {
 public:
  /// Adds `key`; returns false if it was already present.
  bool insert(Key key) {
    if (key == kFree) {
      if (has_free_key_) return false;
      has_free_key_ = true;
      return true;
    }
    if (slots_.empty()) Grow();
    size_t i = Home(key);
    while (slots_[i] != kFree) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    if (++used_ * 8 > slots_.size() * 7) Grow();
    return true;
  }

  /// Removes `key`; returns false if it was absent.
  bool erase(Key key) {
    if (key == kFree) {
      bool had = has_free_key_;
      has_free_key_ = false;
      return had;
    }
    if (used_ == 0) return false;
    size_t hole = Home(key);
    while (slots_[hole] != key) {
      if (slots_[hole] == kFree) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: walk the rest of the run, and move back into the
    // hole every key whose probe path passes over it.
    for (size_t j = (hole + 1) & mask_; slots_[j] != kFree;
         j = (j + 1) & mask_) {
      size_t home = Home(slots_[j]);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kFree;
    --used_;
    return true;
  }

  bool contains(Key key) const {
    if (key == kFree) return has_free_key_;
    if (used_ == 0) return false;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
      if (slots_[i] == kFree) return false;
    }
  }

  size_t size() const { return used_ + (has_free_key_ ? 1 : 0); }

 private:
  static constexpr Key kFree = kMaxKey;
  static constexpr size_t kInitialSlots = 16;

  size_t Home(Key key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Grow() {
    size_t capacity = slots_.empty() ? kInitialSlots : 2 * slots_.size();
    std::vector<Key> old =
        std::exchange(slots_, std::vector<Key>(capacity, kFree));
    mask_ = slots_.size() - 1;
    shift_ = 64 - std::countr_zero(slots_.size());
    for (Key key : old) {
      if (key == kFree) continue;
      size_t i = Home(key);
      while (slots_[i] != kFree) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<Key> slots_;
  size_t mask_ = 0;
  int shift_ = 64;  // 64 - log2(capacity); set by Grow().
  size_t used_ = 0;  // Slots holding a key.
  bool has_free_key_ = false;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_KEY_SET_H_
