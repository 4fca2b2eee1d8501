#ifndef RUMLAB_STORAGE_PAGE_FORMAT_H_
#define RUMLAB_STORAGE_PAGE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace rum {

/// Serialization of fixed-width Entry records into device blocks.
///
/// Layout of an entry page (little-endian):
///   [0, 8)   uint64   entry count `n`
///   [8, ...) n x { uint64 key, uint64 value }
///
/// The 8-byte header is part of the access method's physical footprint --
/// the kind of small structural overhead the paper's MO accounting charges.
class PageFormat {
 public:
  /// Maximum entries that fit in a page of `block_size` bytes.
  static constexpr size_t CapacityFor(size_t block_size) {
    return (block_size - kHeaderSize) / kEntrySize;
  }

  /// Serializes `entries` in place into `block` (e.g. a pinned page view),
  /// zero-filling the remainder. Fails with kResourceExhausted if they do
  /// not fit.
  static Status PackInto(std::span<const Entry> entries,
                         std::span<uint8_t> block);

  /// Deserializes a block previously produced by PackInto.
  static Status Unpack(std::span<const uint8_t> block, std::vector<Entry>* out);

  /// Reads just the entry count from a packed block. Inline: this and the
  /// single-slot accessors below sit on the per-entry hot path of the
  /// zero-copy pinned-page scans. Unchecked: callers must bound every slot
  /// they touch by the block's capacity themselves, or use CheckedCount.
  static size_t PeekCount(std::span<const uint8_t> block);

  /// The entry count, validated against the block: kCorruption when the
  /// block is smaller than the header or the count exceeds
  /// CapacityFor(block.size()), so a corrupt header can never index past
  /// the block.
  static Status CheckedCount(std::span<const uint8_t> block, size_t* count);

  /// Decodes the `index`-th entry of a packed block without materializing
  /// the rest (zero-copy single-slot read; `index` must be < PeekCount).
  static Entry EntryAt(std::span<const uint8_t> block, size_t index);

  /// Re-encodes just the `index`-th entry of a packed block in place,
  /// leaving the header and all other slots untouched.
  static void SetEntryAt(std::span<uint8_t> block, size_t index,
                         const Entry& entry);

  static constexpr size_t kHeaderSize = sizeof(uint64_t);
};

/// Little-endian scalar helpers shared by all page codecs. Inline so the
/// per-entry decode loops (Unpack, in-place binary searches on pinned
/// pages) do not pay a call per scalar.
inline void EncodeU64(uint64_t v, uint8_t* dst) {
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

inline uint64_t DecodeU64(const uint8_t* src) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(src[i]) << (8 * i);
  }
  return v;
}

inline void EncodeU32(uint32_t v, uint8_t* dst) {
  for (int i = 0; i < 4; ++i) {
    dst[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

inline uint32_t DecodeU32(const uint8_t* src) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(src[i]) << (8 * i);
  }
  return v;
}

inline size_t PageFormat::PeekCount(std::span<const uint8_t> block) {
  if (block.size() < kHeaderSize) return 0;
  return static_cast<size_t>(DecodeU64(block.data()));
}

inline Status PageFormat::CheckedCount(std::span<const uint8_t> block,
                                       size_t* count) {
  if (block.size() < kHeaderSize) {
    return Status::Corruption("block smaller than page header");
  }
  uint64_t n = DecodeU64(block.data());
  if (n > CapacityFor(block.size())) {
    return Status::Corruption("entry count exceeds block capacity");
  }
  *count = static_cast<size_t>(n);
  return Status::OK();
}

inline Entry PageFormat::EntryAt(std::span<const uint8_t> block,
                                 size_t index) {
  const uint8_t* slot = block.data() + kHeaderSize + index * kEntrySize;
  Entry e;
  e.key = DecodeU64(slot);
  e.value = DecodeU64(slot + sizeof(uint64_t));
  return e;
}

inline void PageFormat::SetEntryAt(std::span<uint8_t> block, size_t index,
                                   const Entry& entry) {
  uint8_t* slot = block.data() + kHeaderSize + index * kEntrySize;
  EncodeU64(entry.key, slot);
  EncodeU64(entry.value, slot + sizeof(uint64_t));
}

/// LEB128 varint helpers (used by compressed run pages). EncodeVarint64
/// writes VarintLength(v) bytes at `dst` and returns the byte past them;
/// DecodeVarint64 reads from `src`, advances `*offset`, and returns the
/// value (offset clamped to `limit` on malformed input). The decoder is
/// inline, like the scalar helpers above: a compressed page walk runs it
/// once per record.
uint8_t* EncodeVarint64(uint64_t v, uint8_t* dst);
/// Bytes EncodeVarint64 would emit for `v`.
size_t VarintLength(uint64_t v);
inline uint64_t DecodeVarint64(const uint8_t* src, size_t limit,
                               size_t* offset) {
  uint64_t v = 0;
  int shift = 0;
  while (*offset < limit && shift <= 63) {
    uint8_t byte = src[(*offset)++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  return v;  // Malformed input: best-effort value, offset at limit.
}

}  // namespace rum

#endif  // RUMLAB_STORAGE_PAGE_FORMAT_H_
