#include "storage/page_format.h"

#include <cstring>

namespace rum {

size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

uint8_t* EncodeVarint64(uint64_t v, uint8_t* dst) {
  while (v >= 0x80) {
    *dst++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *dst++ = static_cast<uint8_t>(v);
  return dst;
}

Status PageFormat::PackInto(std::span<const Entry> entries,
                            std::span<uint8_t> block) {
  if (entries.size() > CapacityFor(block.size())) {
    return Status::ResourceExhausted("entries do not fit in one block");
  }
  std::memset(block.data(), 0, block.size());
  EncodeU64(entries.size(), block.data());
  uint8_t* cursor = block.data() + kHeaderSize;
  for (const Entry& e : entries) {
    EncodeU64(e.key, cursor);
    EncodeU64(e.value, cursor + sizeof(uint64_t));
    cursor += kEntrySize;
  }
  return Status::OK();
}

Status PageFormat::Unpack(std::span<const uint8_t> block,
                          std::vector<Entry>* out) {
  size_t n = 0;
  Status s = CheckedCount(block, &n);
  if (!s.ok()) return s;
  out->clear();
  out->reserve(n);
  const uint8_t* cursor = block.data() + kHeaderSize;
  for (size_t i = 0; i < n; ++i) {
    Entry e;
    e.key = DecodeU64(cursor);
    e.value = DecodeU64(cursor + sizeof(uint64_t));
    out->push_back(e);
    cursor += kEntrySize;
  }
  return Status::OK();
}

}  // namespace rum
