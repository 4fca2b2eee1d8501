#include "methods/btree/btree.h"

#include <algorithm>
#include <cassert>

#include "storage/page_format.h"

namespace rum {

namespace {
size_t EffectiveNodeSize(const Options& options) {
  return options.btree.node_size != 0 ? options.btree.node_size
                                      : options.block_size;
}
}  // namespace

BTree::BTree(const Options& options)
    : owned_device_(std::make_unique<BlockDevice>(EffectiveNodeSize(options),
                                                  &counters())),
      device_(owned_device_.get()),
      node_size_(EffectiveNodeSize(options)),
      leaf_capacity_(BTreeLeaf::CapacityFor(node_size_)),
      inner_capacity_(BTreeInner::CapacityFor(node_size_)),
      bulk_fill_(options.btree.bulk_fill),
      split_fraction_(options.btree.split_fraction) {
  assert(leaf_capacity_ >= 2 && inner_capacity_ >= 2);
}

BTree::BTree(const Options& options, Device* device)
    : device_(device),
      node_size_(device->block_size()),
      leaf_capacity_(BTreeLeaf::CapacityFor(node_size_)),
      inner_capacity_(BTreeInner::CapacityFor(node_size_)),
      bulk_fill_(options.btree.bulk_fill),
      split_fraction_(options.btree.split_fraction) {
  assert(leaf_capacity_ >= 2 && inner_capacity_ >= 2);
}

BTree::~BTree() = default;

namespace {

/// Every leaf in the chain holds at least one entry, so a walk of more hops
/// than the tree has entries loops: pages a crash rolled back can link a
/// leaf to one before it. (The tree's own count, not the device's page
/// count: sharded trees share one device.)
Status LeafChainCycle() {
  return Status::Corruption("btree leaf chain revisits a leaf");
}

}  // namespace

Status BTree::LoadLeaf(PageId page, BTreeLeaf* out) {
  PageReadGuard guard;
  Status s = device_->PinForRead(page, &guard);
  if (!s.ok()) return s;
  return BTreeLeaf::DecodeFrom(guard.bytes(), out);
}

Status BTree::StoreLeaf(PageId page, const BTreeLeaf& leaf) {
  PageWriteGuard guard;
  Status s = device_->PinForWrite(page, &guard);
  if (!s.ok()) return s;
  s = leaf.EncodeInto(guard.bytes());
  if (!s.ok()) return s;  // Overflow is detected before any byte moves.
  guard.MarkDirty();
  return guard.Release();
}

Status BTree::LoadInner(PageId page, BTreeInner* out) {
  PageReadGuard guard;
  Status s = device_->PinForRead(page, &guard);
  if (!s.ok()) return s;
  return BTreeInner::DecodeFrom(guard.bytes(), out);
}

Status BTree::StoreInner(PageId page, const BTreeInner& inner) {
  PageWriteGuard guard;
  Status s = device_->PinForWrite(page, &guard);
  if (!s.ok()) return s;
  s = inner.EncodeInto(guard.bytes());
  if (!s.ok()) return s;
  guard.MarkDirty();
  return guard.Release();
}

Status BTree::DescendToLeaf(Key key, std::vector<PathStep>* path,
                            PageId* leaf_id, BTreeLeaf* leaf) {
  assert(root_ != kInvalidPageId);
  PageId page = root_;
  for (size_t level = height_; level > 1; --level) {
    // Descend straight off the pinned inner block: no materialization.
    PageReadGuard guard;
    Status s = device_->PinForRead(page, &guard);
    if (!s.ok()) return s;
    PageId child_page;
    size_t child;
    s = BTreeInner::ChildForKey(guard.bytes(), key, &child_page, &child);
    if (!s.ok()) return s;
    if (path != nullptr) path->push_back(PathStep{page, child});
    page = child_page;
  }
  *leaf_id = page;
  return LoadLeaf(page, leaf);
}

Status BTree::InsertIntoParent(std::vector<PathStep>& path, size_t level,
                               Key separator, PageId new_child) {
  if (level == 0) {
    // Split reached the root: grow the tree by one level.
    BTreeInner new_root;
    new_root.keys.push_back(separator);
    new_root.children.push_back(root_);
    new_root.children.push_back(new_child);
    PageId page;
    Status s = device_->Allocate(DataClass::kAux, &page);
    if (!s.ok()) return s;
    s = StoreInner(page, new_root);
    if (!s.ok()) return s;
    root_ = page;
    ++height_;
    return Status::OK();
  }
  PathStep& step = path[level - 1];
  BTreeInner inner;
  Status s = LoadInner(step.page, &inner);
  if (!s.ok()) return s;
  inner.keys.insert(
      inner.keys.begin() + static_cast<ptrdiff_t>(step.child_index),
      separator);
  inner.children.insert(
      inner.children.begin() + static_cast<ptrdiff_t>(step.child_index) + 1,
      new_child);
  if (inner.keys.size() <= inner_capacity_) {
    return StoreInner(step.page, inner);
  }
  // Split the inner node at the middle separator, which moves up.
  size_t mid = inner.keys.size() / 2;
  Key up_key = inner.keys[mid];
  BTreeInner right;
  right.keys.assign(inner.keys.begin() + static_cast<ptrdiff_t>(mid) + 1,
                    inner.keys.end());
  right.children.assign(
      inner.children.begin() + static_cast<ptrdiff_t>(mid) + 1,
      inner.children.end());
  inner.keys.resize(mid);
  inner.children.resize(mid + 1);
  PageId right_page;
  s = device_->Allocate(DataClass::kAux, &right_page);
  if (!s.ok()) return s;
  s = StoreInner(step.page, inner);
  if (!s.ok()) return s;
  s = StoreInner(right_page, right);
  if (!s.ok()) return s;
  return InsertIntoParent(path, level - 1, up_key, right_page);
}

Status BTree::Insert(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  if (root_ == kInvalidPageId) {
    BTreeLeaf leaf;
    leaf.entries.push_back(Entry{key, value});
    Status alloc = device_->Allocate(DataClass::kBase, &root_);
    if (!alloc.ok()) return alloc;
    height_ = 1;
    ++count_;
    return StoreLeaf(root_, leaf);
  }
  std::vector<PathStep> path;
  PageId leaf_id;
  BTreeLeaf leaf;
  Status s = DescendToLeaf(key, &path, &leaf_id, &leaf);
  if (!s.ok()) return s;

  auto it = std::lower_bound(
      leaf.entries.begin(), leaf.entries.end(), key,
      [](const Entry& e, Key k) { return e.key < k; });
  if (it != leaf.entries.end() && it->key == key) {
    it->value = value;  // Upsert in place.
    return StoreLeaf(leaf_id, leaf);
  }
  leaf.entries.insert(it, Entry{key, value});
  ++count_;
  if (leaf.entries.size() <= leaf_capacity_) {
    return StoreLeaf(leaf_id, leaf);
  }

  // Leaf split: left keeps split_fraction of the entries.
  size_t left_count = std::clamp<size_t>(
      static_cast<size_t>(static_cast<double>(leaf.entries.size()) *
                          split_fraction_),
      1, leaf.entries.size() - 1);
  BTreeLeaf right;
  right.entries.assign(
      leaf.entries.begin() + static_cast<ptrdiff_t>(left_count),
      leaf.entries.end());
  leaf.entries.resize(left_count);
  PageId right_page;
  s = device_->Allocate(DataClass::kBase, &right_page);
  if (!s.ok()) return s;
  right.next = leaf.next;
  leaf.next = right_page;
  Key separator = right.entries.front().key;
  s = StoreLeaf(leaf_id, leaf);
  if (!s.ok()) return s;
  s = StoreLeaf(right_page, right);
  if (!s.ok()) return s;
  return InsertIntoParent(path, path.size(), separator, right_page);
}

Status BTree::RemoveFromParent(std::vector<PathStep>& path, size_t level) {
  if (level == 0) {
    // The root itself vanished (its page was freed by the caller); the
    // tree is empty.
    root_ = kInvalidPageId;
    height_ = 0;
    return Status::OK();
  }
  PathStep& step = path[level - 1];
  BTreeInner inner;
  Status s = LoadInner(step.page, &inner);
  if (!s.ok()) return s;
  size_t ci = step.child_index;
  inner.children.erase(inner.children.begin() + static_cast<ptrdiff_t>(ci));
  if (!inner.keys.empty()) {
    // Drop the separator adjacent to the removed child.
    size_t ki = ci == 0 ? 0 : ci - 1;
    inner.keys.erase(inner.keys.begin() + static_cast<ptrdiff_t>(ki));
  }
  if (inner.children.empty()) {
    s = device_->Free(step.page);
    if (!s.ok()) return s;
    return RemoveFromParent(path, level - 1);
  }
  if (inner.children.size() == 1 && level == 1 && step.page == root_) {
    // Collapse a root with a single child.
    PageId only_child = inner.children[0];
    s = device_->Free(step.page);
    if (!s.ok()) return s;
    root_ = only_child;
    --height_;
    return Status::OK();
  }
  return StoreInner(step.page, inner);
}

Status BTree::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  if (root_ == kInvalidPageId) return Status::OK();
  std::vector<PathStep> path;
  PageId leaf_id;
  BTreeLeaf leaf;
  Status s = DescendToLeaf(key, &path, &leaf_id, &leaf);
  if (!s.ok()) return s;
  auto it = std::lower_bound(
      leaf.entries.begin(), leaf.entries.end(), key,
      [](const Entry& e, Key k) { return e.key < k; });
  if (it == leaf.entries.end() || it->key != key) return Status::OK();
  leaf.entries.erase(it);
  --count_;
  if (!leaf.entries.empty()) {
    return StoreLeaf(leaf_id, leaf);
  }
  // The leaf emptied. Unlink it from the chain by fixing the predecessor...
  // finding the predecessor would cost another descent; instead we leave
  // the empty leaf unlinked lazily: remove it from the parent and let the
  // left sibling's `next` pointer be repaired on its next store. To keep
  // scans correct we must fix the chain now, so locate the left sibling via
  // the parent when one exists.
  if (!path.empty()) {
    PathStep& step = path.back();
    BTreeInner parent;
    s = LoadInner(step.page, &parent);
    if (!s.ok()) return s;
    if (step.child_index > 0) {
      PageId left_id = parent.children[step.child_index - 1];
      // The left sibling of a leaf under the same parent is itself a leaf.
      BTreeLeaf left;
      s = LoadLeaf(left_id, &left);
      if (!s.ok()) return s;
      left.next = leaf.next;
      s = StoreLeaf(left_id, left);
      if (!s.ok()) return s;
    } else {
      // Leftmost child: the previous leaf (if any) lives under another
      // subtree. Walk the chain from the leftmost leaf of the tree.
      // This is rare (leftmost leaf of a parent emptying); a linear chain
      // walk is acceptable and fully accounted.
      PageId prev = kInvalidPageId;
      PageId cur = root_;
      for (size_t level = height_; level > 1; --level) {
        BTreeInner inner;
        s = LoadInner(cur, &inner);
        if (!s.ok()) return s;
        cur = inner.children[0];
      }
      size_t hops = 0;
      while (cur != leaf_id && cur != kInvalidPageId) {
        if (++hops > count_ + 1) return LeafChainCycle();
        BTreeLeaf walk;
        s = LoadLeaf(cur, &walk);
        if (!s.ok()) return s;
        prev = cur;
        cur = walk.next;
      }
      if (cur == leaf_id && prev != kInvalidPageId) {
        BTreeLeaf left;
        s = LoadLeaf(prev, &left);
        if (!s.ok()) return s;
        left.next = leaf.next;
        s = StoreLeaf(prev, left);
        if (!s.ok()) return s;
      }
    }
  }
  s = device_->Free(leaf_id);
  if (!s.ok()) return s;
  return RemoveFromParent(path, path.size());
}

Result<Value> BTree::Get(Key key) {
  counters().OnPointQuery();
  if (root_ == kInvalidPageId) return Status::NotFound();
  // Fully zero-copy point lookup: binary search each pinned node in place,
  // never materializing a single entry.
  PageId page = root_;
  for (size_t level = height_; level > 1; --level) {
    PageReadGuard guard;
    Status s = device_->PinForRead(page, &guard);
    if (!s.ok()) return s;
    s = BTreeInner::ChildForKey(guard.bytes(), key, &page);
    if (!s.ok()) return s;
  }
  PageReadGuard guard;
  Status s = device_->PinForRead(page, &guard);
  if (!s.ok()) return s;
  Value value;
  bool found = false;
  s = BTreeLeaf::FindInBlock(guard.bytes(), key, &value, &found);
  if (!s.ok()) return s;
  if (!found) return Status::NotFound();
  counters().OnLogicalRead(kEntrySize);
  return value;
}

Status BTree::MultiGet(std::span<const Key> keys,
                       std::vector<std::optional<Value>>* out) {
  // A single key gains nothing from batching; take Get's exact path (and
  // its exact charge sequence) via the base-class loop.
  if (keys.size() <= 1) return AccessMethod::MultiGet(keys, out);
  out->assign(keys.size(), std::nullopt);
  for (size_t i = 0; i < keys.size(); ++i) counters().OnPointQuery();
  if (root_ == kInvalidPageId) return Status::OK();
  std::vector<std::pair<Key, uint32_t>> batch;
  batch.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    batch.push_back({keys[i], static_cast<uint32_t>(i)});
  }
  std::sort(batch.begin(), batch.end());
  std::span<const std::pair<Key, uint32_t>> span(batch);
  if (height_ == 1) {
    // Root leaf: one pin and one header validation serve the whole batch
    // (the per-key Get loop would have pinned it batch.size() times); each
    // key resumes its lower-bound search from the previous key's slot.
    counters().OnBatchedPageHits(batch.size() - 1);
    PageReadGuard guard;
    Status s = device_->PinForRead(root_, &guard);
    if (!s.ok()) return s;
    size_t found_count = 0;
    s = BTreeLeaf::MultiFindInBlock(guard.bytes(), span, out, &found_count);
    if (!s.ok()) return s;
    if (found_count > 0) {
      counters().OnLogicalRead(kEntrySize * found_count);
    }
    return Status::OK();
  }
  // Level-synchronous descent: route the whole batch through each inner
  // level before touching the next, so by the time the leaves are reached
  // every leaf part in the tree is known and a single interleaved pass
  // (MultiGetLeafParts) can overlap all their searches. Each node is pinned
  // once for every key routed through it, the saved pins credited as
  // batched-page hits; the descent holds one inner pin at a time, like Get.
  std::vector<BTreeInner::ChildRange> frontier;
  frontier.push_back({root_, 0, static_cast<uint32_t>(batch.size())});
  std::vector<BTreeInner::ChildRange> next;
  std::vector<BTreeInner::ChildRange> parts;
  for (size_t level = height_; level > 1; --level) {
    next.clear();
    for (const BTreeInner::ChildRange& node : frontier) {
      const size_t width = node.end - node.begin;
      if (width > 1) counters().OnBatchedPageHits(width - 1);
      PageReadGuard guard;
      Status s = device_->PinForRead(node.child, &guard);
      if (!s.ok()) return s;
      s = BTreeInner::PartitionBatch(guard.bytes(),
                                     span.subspan(node.begin, width), &parts);
      if (!s.ok()) return s;
      for (const BTreeInner::ChildRange& part : parts) {
        next.push_back({part.child, part.begin + node.begin,
                        part.end + node.begin});
      }
    }
    frontier.swap(next);
  }
  return MultiGetLeafParts(frontier, span, out);
}

Status BTree::MultiGetLeafParts(
    std::span<const BTreeInner::ChildRange> parts,
    std::span<const std::pair<Key, uint32_t>> batch,
    std::vector<std::optional<Value>>* out) {
  // A deep tree's leaf searches are chains of dependent cache misses, one
  // chain per leaf and nothing shared between them. Running one chain at a
  // time leaves the memory system idle between probes, so up to kWindow
  // leaves advance round-robin: each task takes one bisect step, prefetches
  // the line its *next* step will touch, and yields to the other leaves --
  // by the time it runs again the line is (usually) resident. Resolution
  // order across leaves changes; pins, probes, logical reads, and
  // batched-hit credits do not.
  constexpr size_t kWindow = 8;
  struct LeafTask {
    PageReadGuard guard;
    const uint8_t* base = nullptr;  // Entry array; null = slot idle.
    size_t n = 0;
    size_t bi = 0;   // Current key, an index into `batch`.
    size_t end = 0;  // One past the part's last key.
    size_t x = 0;    // Lower-bound bisect interval [x, y).
    size_t y = 0;
  };
  LeafTask tasks[kWindow];
  size_t next_part = 0;
  size_t active = 0;
  Status status = Status::OK();
  // An entry's key can straddle a cache line (the 9-byte header skews the
  // 16-byte stride), so hint both ends of it.
  auto prefetch_probe = [](const LeafTask& t) {
    if (t.x < t.y) {
      const uint8_t* p = t.base + (t.x + (t.y - t.x) / 2) * kEntrySize;
      __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
      __builtin_prefetch(p + 7, /*rw=*/0, /*locality=*/3);
    }
  };
  // Points `t` at the next unclaimed part: pin, validate the header (the
  // same checks MultiFindInBlock makes), credit the shared node read, and
  // open the first key's whole-leaf bisect.
  auto start_next = [&](LeafTask* t) -> bool {
    if (!status.ok() || next_part >= parts.size()) return false;
    const BTreeInner::ChildRange& part = parts[next_part++];
    t->guard.Release();
    Status s = device_->PinForRead(part.child, &t->guard);
    if (!s.ok()) {
      status = s;
      return false;
    }
    std::span<const uint8_t> block = t->guard.bytes();
    if (block.size() < BTreeLeaf::kHeaderBytes ||
        block[0] != BTreeLeaf::kTypeByte) {
      status = Status::Corruption("not a leaf block");
      return false;
    }
    size_t n = DecodeU32(block.data() + 1);
    if (BTreeLeaf::kHeaderBytes + n * kEntrySize > block.size()) {
      status = Status::Corruption("leaf count exceeds block");
      return false;
    }
    if (part.end - part.begin > 1) {
      counters().OnBatchedPageHits(part.end - part.begin - 1);
    }
    t->base = block.data() + BTreeLeaf::kHeaderBytes;
    t->n = n;
    t->bi = part.begin;
    t->end = part.end;
    t->x = 0;
    t->y = n;
    prefetch_probe(*t);
    return true;
  };
  for (size_t w = 0; w < kWindow; ++w) {
    if (!start_next(&tasks[w])) break;
    ++active;
  }
  while (active > 0) {
    for (size_t w = 0; w < kWindow; ++w) {
      LeafTask& t = tasks[w];
      if (t.base == nullptr) continue;
      if (t.x < t.y) {
        // One bisect step; the probed line was prefetched last round.
        size_t mid = t.x + (t.y - t.x) / 2;
        if (DecodeU64(t.base + mid * kEntrySize) < batch[t.bi].first) {
          t.x = mid + 1;
        } else {
          t.y = mid;
        }
        prefetch_probe(t);
        continue;
      }
      // Interval closed: x is the key's lower bound.
      const auto& [key, idx] = batch[t.bi];
      if (t.x < t.n && DecodeU64(t.base + t.x * kEntrySize) == key) {
        (*out)[idx] = DecodeU64(t.base + t.x * kEntrySize + 8);
        counters().OnLogicalRead(kEntrySize);
      }
      ++t.bi;
      if (t.bi < t.end) {
        // The part's next (ascending) key resumes right of this slot, the
        // same carried lower bound MultiFindInBlock uses.
        if (t.x < t.n && DecodeU64(t.base + t.x * kEntrySize) <
                             batch[t.bi].first) {
          ++t.x;
          t.y = t.n;
          prefetch_probe(t);
        }  // else: already positioned (duplicate key), resolve next round.
        continue;
      }
      t.base = nullptr;
      if (!start_next(&t)) {
        t.guard.Release();
        --active;
      }
    }
    if (!status.ok()) break;
  }
  return status;
}

Status BTree::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  if (root_ == kInvalidPageId) return Status::OK();
  PageId leaf_id;
  BTreeLeaf leaf;
  Status s = DescendToLeaf(lo, nullptr, &leaf_id, &leaf);
  if (!s.ok()) return s;
  uint64_t found = 0;
  size_t hops = 0;
  while (true) {
    for (const Entry& e : leaf.entries) {
      if (e.key > hi) {
        counters().OnLogicalRead(found * kEntrySize);
        return Status::OK();
      }
      if (e.key >= lo) {
        out->push_back(e);
        ++found;
      }
    }
    if (leaf.next == kInvalidPageId) break;
    if (++hops > count_ + 1) return LeafChainCycle();
    s = LoadLeaf(leaf.next, &leaf);
    if (!s.ok()) return s;
  }
  counters().OnLogicalRead(found * kEntrySize);
  return Status::OK();
}

Status BTree::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  if (entries.empty()) return Status::OK();

  size_t per_leaf = std::clamp<size_t>(
      static_cast<size_t>(static_cast<double>(leaf_capacity_) * bulk_fill_),
      1, leaf_capacity_);

  // Build the leaf level. Each leaf's `next` pointer must name its
  // successor, so the previous leaf is held in memory and stored once its
  // successor's page id is known (every leaf is still written exactly once).
  struct ChildRef {
    Key first_key;
    PageId page;
  };
  std::vector<ChildRef> level;
  BTreeLeaf pending;
  PageId pending_page = kInvalidPageId;
  for (size_t i = 0; i < entries.size(); i += per_leaf) {
    size_t end = std::min(i + per_leaf, entries.size());
    BTreeLeaf leaf;
    leaf.entries.assign(entries.begin() + static_cast<ptrdiff_t>(i),
                        entries.begin() + static_cast<ptrdiff_t>(end));
    leaf.next = kInvalidPageId;
    PageId page;
    s = device_->Allocate(DataClass::kBase, &page);
    if (!s.ok()) return s;
    level.push_back(ChildRef{leaf.entries.front().key, page});
    if (pending_page != kInvalidPageId) {
      pending.next = page;
      s = StoreLeaf(pending_page, pending);
      if (!s.ok()) return s;
    }
    pending = std::move(leaf);
    pending_page = page;
  }
  s = StoreLeaf(pending_page, pending);
  if (!s.ok()) return s;
  count_ = entries.size();
  height_ = 1;

  // Build inner levels bottom-up. Nodes take per_inner+1 children; the
  // last node is kept at >= 2 children by borrowing one from its
  // predecessor chunk when needed.
  size_t per_inner = std::clamp<size_t>(
      static_cast<size_t>(static_cast<double>(inner_capacity_) * bulk_fill_),
      2, inner_capacity_);
  while (level.size() > 1) {
    std::vector<ChildRef> next_level;
    size_t i = 0;
    while (i < level.size()) {
      size_t take = std::min(per_inner + 1, level.size() - i);
      if (level.size() - i - take == 1) --take;
      BTreeInner inner;
      for (size_t j = i; j < i + take; ++j) {
        if (j > i) inner.keys.push_back(level[j].first_key);
        inner.children.push_back(level[j].page);
      }
      PageId page;
      s = device_->Allocate(DataClass::kAux, &page);
      if (!s.ok()) return s;
      s = StoreInner(page, inner);
      if (!s.ok()) return s;
      next_level.push_back(ChildRef{level[i].first_key, page});
      i += take;
    }
    level = std::move(next_level);
    ++height_;
  }
  root_ = level[0].page;
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  return Status::OK();
}

}  // namespace rum
