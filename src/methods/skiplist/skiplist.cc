#include "methods/skiplist/skiplist.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace rum {

namespace {
constexpr uint64_t kPointerSize = sizeof(void*);
/// Seed of the tower-height generator: every skiplist draws the same
/// heights for the same insert sequence.
constexpr uint64_t kHeightSeed = 0x5eedULL;
/// Bytes per arena chunk.
constexpr size_t kChunkBytes = 64 * 1024;

// AddressSanitizer cannot see inside an arena on its own: the unused tail
// of each chunk, a red zone after each node and every erased node are
// poisoned, so a tower overrun or a use after Erase or Clear is reported.
#if defined(__SANITIZE_ADDRESS__)
constexpr size_t kRedZone = 8;
void Poison(const void* p, size_t n) { ASAN_POISON_MEMORY_REGION(p, n); }
void Unpoison(const void* p, size_t n) { ASAN_UNPOISON_MEMORY_REGION(p, n); }
#else
constexpr size_t kRedZone = 0;
void Poison(const void*, size_t) {}
void Unpoison(const void*, size_t) {}
#endif
}  // namespace

/// A node's header; its `height` tower slots follow it in the same arena
/// slot (Node is 8-byte aligned, so they start aligned).
struct SkipListMap::Node {
  Key key;
  Value value;
  bool tombstone;
  uint8_t height;

  Node** tower() { return reinterpret_cast<Node**>(this + 1); }
  Node* next(size_t level) { return tower()[level]; }

  /// Arena bytes a node of `height` uses (its red zone included).
  static size_t Bytes(size_t height) {
    static_assert(sizeof(Node) % alignof(Node*) == 0);
    return sizeof(Node) + height * sizeof(Node*) + kRedZone;
  }
};

SkipListMap::SkipListMap(const Options::SkipList& options,
                         RumCounters* counters)
    : options_(options), counters_(counters), rng_state_(kHeightSeed | 1) {
  assert(counters_ != nullptr);
  // Put and Erase keep one splice point per level in a kMaxHeight array,
  // and callers may construct the map past ValidateOptions.
  options_.max_height = std::clamp<size_t>(options_.max_height, 1, kMaxHeight);
  head_ = NewNode(kMinKey, 0, false, options_.max_height);
  tower_slots_ += options_.max_height;
  PublishSpace();
}

SkipListMap::~SkipListMap() = default;

std::byte* SkipListMap::Carve(size_t bytes) {
  if (chunks_.empty() || chunk_used_ + bytes > kChunkBytes) {
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(kChunkBytes));
    Poison(chunks_.back().get(), kChunkBytes);
    chunk_used_ = 0;
  }
  std::byte* slot = chunks_.back().get() + chunk_used_;
  chunk_used_ += bytes;
  return slot;
}

SkipListMap::Node* SkipListMap::NewNode(Key key, Value value, bool tombstone,
                                        size_t height) {
  size_t bytes = Node::Bytes(height) - kRedZone;
  Node*& free_list = free_[height - 1];
  void* slot;
  if (free_list != nullptr) {
    slot = free_list;
    Unpoison(slot, bytes);
    free_list = free_list->next(0);
  } else {
    slot = Carve(bytes + kRedZone);
    Unpoison(slot, bytes);
  }
  Node* node =
      new (slot) Node{key, value, tombstone, static_cast<uint8_t>(height)};
  std::uninitialized_fill_n(node->tower(), height, nullptr);
  return node;
}

size_t SkipListMap::RandomHeight() {
  size_t height = 1;
  while (height < options_.max_height) {
    // xorshift64*
    rng_state_ ^= rng_state_ >> 12;
    rng_state_ ^= rng_state_ << 25;
    rng_state_ ^= rng_state_ >> 27;
    uint64_t r = rng_state_ * 0x2545F4914F6CDD1DULL;
    double u = static_cast<double>(r >> 11) / static_cast<double>(1ULL << 53);
    if (u >= options_.promote_probability) break;
    ++height;
  }
  return height;
}

SkipListMap::Node* SkipListMap::FindGreaterOrEqual(Key key, Node** prev) {
  Node* node = head_;
  size_t level = height_;
  uint64_t hops = 0;
  uint64_t compares = 0;
  while (level-- > 0) {
    while (true) {
      // Following one forward pointer reads the pointer slot...
      ++hops;
      Node* next = node->next(level);
      if (next == nullptr) break;
      // ...and comparing at the target reads its key.
      ++compares;
      if (next->key >= key) break;
      node = next;
    }
    if (prev != nullptr) prev[level] = node;
  }
  counters_->OnRead(DataClass::kAux, hops * kPointerSize);
  counters_->OnRead(DataClass::kBase, compares * sizeof(Key));
  return node->next(0);
}

void SkipListMap::Put(Key key, Value value, bool tombstone) {
  // The descent fills the levels below height_; a taller node fills the
  // levels up to its height below. No other level is read.
  Node* prev[kMaxHeight];
  Node* node = FindGreaterOrEqual(key, prev);
  if (node != nullptr && node->key == key) {
    // In-place overwrite.
    bool was_tombstone = node->tombstone;
    node->value = value;
    node->tombstone = tombstone;
    counters_->OnWrite(
        tombstone ? DataClass::kAux : DataClass::kBase, kEntrySize);
    if (was_tombstone && !tombstone) {
      ++live_count_;
    } else if (!was_tombstone && tombstone) {
      --live_count_;
    }
    PublishSpace();
    return;
  }
  size_t h = RandomHeight();
  for (; height_ < h; ++height_) prev[height_] = head_;
  Node* fresh = NewNode(key, value, tombstone, h);
  tower_slots_ += h;
  for (size_t level = 0; level < h; ++level) {
    fresh->tower()[level] = prev[level]->next(level);
    prev[level]->tower()[level] = fresh;
  }
  // Each spliced level writes two pointer slots.
  counters_->OnWrite(DataClass::kAux, 2 * kPointerSize * h);
  counters_->OnWrite(tombstone ? DataClass::kAux : DataClass::kBase,
                     kEntrySize);
  ++record_count_;
  if (!tombstone) ++live_count_;
  PublishSpace();
}

bool SkipListMap::Find(Key key, Record* out) {
  Node* node = FindGreaterOrEqual(key, nullptr);
  if (node == nullptr || node->key != key) return false;
  counters_->OnRead(DataClass::kBase, sizeof(Value));
  out->key = node->key;
  out->value = node->value;
  out->tombstone = node->tombstone;
  return true;
}

void SkipListMap::Erase(Key key) {
  // Filled below height_, which no node's height exceeds.
  Node* prev[kMaxHeight];
  Node* node = FindGreaterOrEqual(key, prev);
  if (node == nullptr || node->key != key) return;
  size_t h = node->height;
  uint64_t unlinked = 0;
  for (size_t level = 0; level < h; ++level) {
    if (prev[level]->next(level) == node) {
      prev[level]->tower()[level] = node->next(level);
      ++unlinked;
    }
  }
  counters_->OnWrite(DataClass::kAux, unlinked * kPointerSize);
  tower_slots_ -= h;
  --record_count_;
  if (!node->tombstone) --live_count_;
  node->tower()[0] = free_[h - 1];
  free_[h - 1] = node;
  Poison(node, Node::Bytes(h));
  PublishSpace();
}

void SkipListMap::VisitRange(Key lo, Key hi,
                             const std::function<void(const Record&)>& visit) {
  Node* node = FindGreaterOrEqual(lo, nullptr);
  while (node != nullptr && node->key <= hi) {
    counters_->OnRead(DataClass::kBase, kEntrySize);
    visit(Record{node->key, node->value, node->tombstone});
    counters_->OnRead(DataClass::kAux, kPointerSize);
    node = node->next(0);
  }
}

void SkipListMap::VisitAllUnaccounted(
    const std::function<void(const Record&)>& visit) const {
  for (Node* node = head_->next(0); node != nullptr; node = node->next(0)) {
    visit(Record{node->key, node->value, node->tombstone});
  }
}

void SkipListMap::Clear() {
  // Rewind the arena to the head, which opens chunks_[0], and free the
  // rest: a refill reuses the memory, and a shrunken memtable drops its
  // peak.
  chunks_.resize(1);
  chunk_used_ = Node::Bytes(options_.max_height);
  Poison(chunks_[0].get() + chunk_used_, kChunkBytes - chunk_used_);
  free_.fill(nullptr);
  std::fill_n(head_->tower(), options_.max_height, nullptr);
  height_ = 1;
  tower_slots_ = options_.max_height;
  record_count_ = 0;
  live_count_ = 0;
  PublishSpace();
}

uint64_t SkipListMap::aux_bytes() const {
  uint64_t tombstones = record_count_ - live_count_;
  return tower_slots_ * kPointerSize + tombstones * kEntrySize;
}

uint64_t SkipListMap::base_bytes() const {
  return static_cast<uint64_t>(live_count_) * kEntrySize;
}

void SkipListMap::PublishSpace() {
  counters_->SetSpace(DataClass::kBase, base_bytes());
  counters_->SetSpace(DataClass::kAux, aux_bytes());
}

// ----------------------------------------------------------- SkipListMethod

SkipListMethod::SkipListMethod(const Options& options)
    : map_(std::make_unique<SkipListMap>(options.skiplist, &counters())) {}

SkipListMethod::~SkipListMethod() = default;

Status SkipListMethod::Insert(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  map_->Put(key, value, /*tombstone=*/false);
  return Status::OK();
}

Status SkipListMethod::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  map_->Erase(key);
  return Status::OK();
}

Result<Value> SkipListMethod::Get(Key key) {
  counters().OnPointQuery();
  SkipListMap::Record record;
  if (!map_->Find(key, &record) || record.tombstone) {
    return Status::NotFound();
  }
  counters().OnLogicalRead(kEntrySize);
  return record.value;
}

Status SkipListMethod::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  uint64_t found = 0;
  map_->VisitRange(lo, hi, [&](const SkipListMap::Record& r) {
    if (!r.tombstone) {
      out->push_back(Entry{r.key, r.value});
      ++found;
    }
  });
  counters().OnLogicalRead(found * kEntrySize);
  return Status::OK();
}

size_t SkipListMethod::size() const { return map_->live_count(); }

}  // namespace rum
