#include "methods/skiplist/skiplist.h"

#include <cassert>

namespace rum {

namespace {
constexpr uint64_t kPointerSize = sizeof(void*);
/// Seed of the tower-height generator: every skiplist draws the same
/// heights for the same insert sequence.
constexpr uint64_t kHeightSeed = 0x5eedULL;
}  // namespace

struct SkipListMap::Node {
  Key key;
  Value value;
  bool tombstone;
  std::vector<Node*> next;  // Tower of forward pointers.

  Node(Key k, Value v, bool t, size_t height)
      : key(k), value(v), tombstone(t), next(height, nullptr) {}
};

SkipListMap::SkipListMap(const Options::SkipList& options,
                         RumCounters* counters)
    : options_(options), counters_(counters), rng_state_(kHeightSeed | 1) {
  assert(counters_ != nullptr);
  assert(options_.max_height >= 1);
  head_ = new Node(kMinKey, 0, false, options_.max_height);
  tower_slots_ += options_.max_height;
  PublishSpace();
}

SkipListMap::~SkipListMap() {
  Node* node = head_;
  while (node != nullptr) {
    Node* next = node->next[0];
    delete node;
    node = next;
  }
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

SkipListMap::Node* SkipListMap::FindGreaterOrEqual(Key key,
                                                   std::vector<Node*>* prev) {
  Node* node = head_;
  size_t level = height_;
  while (level-- > 0) {
    while (true) {
      // Following one forward pointer reads the pointer slot...
      counters_->OnRead(DataClass::kAux, kPointerSize);
      Node* next = node->next[level];
      if (next == nullptr) break;
      // ...and comparing at the target reads its key.
      counters_->OnRead(DataClass::kBase, sizeof(Key));
      if (next->key >= key) break;
      node = next;
    }
    if (prev != nullptr) (*prev)[level] = node;
  }
  return node->next[0];
}

void SkipListMap::Put(Key key, Value value, bool tombstone) {
  std::vector<Node*> prev(options_.max_height, head_);
  Node* node = FindGreaterOrEqual(key, &prev);
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
  if (h > height_) height_ = h;
  Node* fresh = new Node(key, value, tombstone, h);
  tower_slots_ += h;
  for (size_t level = 0; level < h; ++level) {
    fresh->next[level] = prev[level]->next[level];
    prev[level]->next[level] = fresh;
    // Each spliced level writes two pointer slots.
    counters_->OnWrite(DataClass::kAux, 2 * kPointerSize);
  }
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
  std::vector<Node*> prev(options_.max_height, head_);
  Node* node = FindGreaterOrEqual(key, &prev);
  if (node == nullptr || node->key != key) return;
  for (size_t level = 0; level < node->next.size(); ++level) {
    if (prev[level]->next[level] == node) {
      prev[level]->next[level] = node->next[level];
      counters_->OnWrite(DataClass::kAux, kPointerSize);
    }
  }
  tower_slots_ -= node->next.size();
  --record_count_;
  if (!node->tombstone) --live_count_;
  delete node;
  PublishSpace();
}

void SkipListMap::VisitRange(Key lo, Key hi,
                             const std::function<void(const Record&)>& visit) {
  Node* node = FindGreaterOrEqual(lo, nullptr);
  while (node != nullptr && node->key <= hi) {
    counters_->OnRead(DataClass::kBase, kEntrySize);
    visit(Record{node->key, node->value, node->tombstone});
    counters_->OnRead(DataClass::kAux, kPointerSize);
    node = node->next[0];
  }
}

void SkipListMap::VisitAllUnaccounted(
    const std::function<void(const Record&)>& visit) const {
  for (Node* node = head_->next[0]; node != nullptr; node = node->next[0]) {
    visit(Record{node->key, node->value, node->tombstone});
  }
}

void SkipListMap::Clear() {
  Node* node = head_->next[0];
  while (node != nullptr) {
    Node* next = node->next[0];
    delete node;
    node = next;
  }
  for (size_t level = 0; level < options_.max_height; ++level) {
    head_->next[level] = nullptr;
  }
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
