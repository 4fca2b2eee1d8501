#include "methods/btree/btree_node.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "storage/page_format.h"

namespace rum {

namespace {
constexpr size_t kLeafHeader = BTreeLeaf::kHeaderBytes;
constexpr size_t kInnerHeader = 1 + 4;
constexpr uint8_t kLeafType = 0;
constexpr uint8_t kInnerType = 1;

// BTreeLeaf::CheckHeader for an inner node: `*count` is its separator
// count, and its children and separators must fit the block.
Status CheckInnerHeader(std::span<const uint8_t> block, size_t* count) {
  if (block.size() < kInnerHeader || block[0] != kInnerType) {
    return Status::Corruption("not an inner block");
  }
  *count = DecodeU32(block.data() + 1);
  if (kInnerHeader + (*count + 1) * 4 + *count * 8 > block.size()) {
    return Status::Corruption("inner count exceeds block");
  }
  return Status::OK();
}
}  // namespace

Status BTreeLeaf::CheckHeader(std::span<const uint8_t> block,
                              size_t* count) {
  if (block.size() < kLeafHeader || block[0] != kLeafType) {
    return Status::Corruption("not a leaf block");
  }
  *count = DecodeU32(block.data() + 1);
  if (kLeafHeader + *count * kEntrySize > block.size()) {
    return Status::Corruption("leaf count exceeds block");
  }
  return Status::OK();
}

size_t BTreeLeaf::CapacityFor(size_t node_size) {
  return (node_size - kLeafHeader) / kEntrySize;
}

Status BTreeLeaf::EncodeInto(std::span<uint8_t> block) const {
  if (entries.size() > CapacityFor(block.size())) {
    return Status::ResourceExhausted("leaf overflow");
  }
  std::memset(block.data(), 0, block.size());
  block[0] = kLeafType;
  EncodeU32(static_cast<uint32_t>(entries.size()), block.data() + 1);
  EncodeU32(next, block.data() + 5);
  uint8_t* cursor = block.data() + kLeafHeader;
  for (const Entry& e : entries) {
    EncodeU64(e.key, cursor);
    EncodeU64(e.value, cursor + 8);
    cursor += kEntrySize;
  }
  return Status::OK();
}

Status BTreeLeaf::FindInBlock(std::span<const uint8_t> block, Key key,
                              Value* value, bool* found) {
  size_t slot = 0;
  Status s = LowerBoundInBlock(block, key, &slot, found);
  if (s.ok() && *found) {
    *value = DecodeU64(block.data() + kLeafHeader + slot * kEntrySize + 8);
  }
  return s;
}

Status BTreeLeaf::LowerBoundInBlock(std::span<const uint8_t> block, Key key,
                                    size_t* slot, bool* found) {
  size_t n = 0;
  Status s = CheckHeader(block, &n);
  if (!s.ok()) return s;
  const uint8_t* base = block.data() + kLeafHeader;
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (DecodeU64(base + mid * kEntrySize) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *slot = lo;
  *found = lo < n && DecodeU64(base + lo * kEntrySize) == key;
  return Status::OK();
}

void BTreeLeaf::SetValueInBlock(std::span<uint8_t> block, size_t slot,
                                Value value) {
  assert(kLeafHeader + (slot + 1) * kEntrySize <= block.size());
  EncodeU64(value, block.data() + kLeafHeader + slot * kEntrySize + 8);
}

Status BTreeLeaf::DecodeFrom(std::span<const uint8_t> block, BTreeLeaf* out) {
  size_t n = 0;
  Status s = CheckHeader(block, &n);
  if (!s.ok()) return s;
  out->next = DecodeU32(block.data() + 5);
  out->entries.clear();
  out->entries.reserve(n);
  const uint8_t* cursor = block.data() + kLeafHeader;
  for (size_t i = 0; i < n; ++i) {
    out->entries.push_back(Entry{DecodeU64(cursor), DecodeU64(cursor + 8)});
    cursor += kEntrySize;
  }
  return Status::OK();
}

size_t BTreeInner::CapacityFor(size_t node_size) {
  // n separators need n*8 + (n+1)*4 bytes after the header.
  return (node_size - kInnerHeader - 4) / 12;
}

Status BTreeInner::EncodeInto(std::span<uint8_t> block) const {
  if (keys.size() > CapacityFor(block.size()) ||
      children.size() != keys.size() + 1) {
    return Status::ResourceExhausted("inner overflow or malformed");
  }
  std::memset(block.data(), 0, block.size());
  block[0] = kInnerType;
  EncodeU32(static_cast<uint32_t>(keys.size()), block.data() + 1);
  uint8_t* cursor = block.data() + kInnerHeader;
  for (PageId child : children) {
    EncodeU32(child, cursor);
    cursor += 4;
  }
  for (Key key : keys) {
    EncodeU64(key, cursor);
    cursor += 8;
  }
  return Status::OK();
}

Status BTreeInner::ChildForKey(std::span<const uint8_t> block, Key key,
                               PageId* child, size_t* index) {
  size_t n = 0;
  Status s = CheckInnerHeader(block, &n);
  if (!s.ok()) return s;
  // upper_bound over the separators, decoded lazily in place.
  const uint8_t* keys_base = block.data() + kInnerHeader + (n + 1) * 4;
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (DecodeU64(keys_base + mid * 8) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *child = DecodeU32(block.data() + kInnerHeader + lo * 4);
  if (index != nullptr) *index = lo;
  return Status::OK();
}

Status BTreeInner::PartitionBatch(
    std::span<const uint8_t> block,
    std::span<const std::pair<Key, uint32_t>> batch,
    std::vector<ChildRange>* parts) {
  parts->clear();
  size_t n = 0;
  Status s = CheckInnerHeader(block, &n);
  if (!s.ok()) return s;
  const uint8_t* children_base = block.data() + kInnerHeader;
  const uint8_t* keys_base = children_base + (n + 1) * 4;
  auto sep_at = [&](size_t i) { return DecodeU64(keys_base + i * 8); };
  // Child index for a key is the count of separators <= it. Ascending keys
  // make that count monotone, so the walk gallops right from where the
  // previous key landed instead of bisecting all separators again.
  size_t p = 0;  // Separators [0, p) are <= every key routed so far.
  size_t i = 0;
  bool first = true;
  while (i < batch.size()) {
    Key key = batch[i].first;
    if (first) {
      // The first key bisects all separators (it can land anywhere).
      size_t x = 0;
      size_t y = n;
      while (x < y) {
        size_t mid = x + (y - x) / 2;
        if (sep_at(mid) <= key) {
          x = mid + 1;
        } else {
          y = mid;
        }
      }
      p = x;
      first = false;
    } else if (p < n && sep_at(p) <= key) {
      // Later keys gallop right from where the previous key landed.
      size_t last_le = p;  // Greatest probed slot with separator <= key.
      size_t step = 1;
      while (p + step < n && sep_at(p + step) <= key) {
        last_le = p + step;
        step <<= 1;
      }
      size_t x = last_le + 1;
      size_t y = std::min(p + step, static_cast<size_t>(n));
      while (x < y) {
        size_t mid = x + (y - x) / 2;
        if (sep_at(mid) <= key) {
          x = mid + 1;
        } else {
          y = mid;
        }
      }
      p = x;
    }
    // Everything below the next separator shares child p.
    size_t j = i + 1;
    if (p == n) {
      j = batch.size();
    } else {
      Key bound = sep_at(p);
      while (j < batch.size() && batch[j].first < bound) ++j;
    }
    parts->push_back({DecodeU32(children_base + p * 4),
                      static_cast<uint32_t>(i), static_cast<uint32_t>(j)});
    i = j;
  }
  return Status::OK();
}

Status BTreeInner::DecodeFrom(std::span<const uint8_t> block,
                              BTreeInner* out) {
  size_t n = 0;
  Status s = CheckInnerHeader(block, &n);
  if (!s.ok()) return s;
  out->children.clear();
  out->children.reserve(n + 1);
  out->keys.clear();
  out->keys.reserve(n);
  const uint8_t* cursor = block.data() + kInnerHeader;
  for (size_t i = 0; i <= n; ++i) {
    out->children.push_back(DecodeU32(cursor));
    cursor += 4;
  }
  for (size_t i = 0; i < n; ++i) {
    out->keys.push_back(DecodeU64(cursor));
    cursor += 8;
  }
  return Status::OK();
}

bool IsLeafBlock(std::span<const uint8_t> block) {
  return !block.empty() && block[0] == kLeafType;
}

}  // namespace rum
