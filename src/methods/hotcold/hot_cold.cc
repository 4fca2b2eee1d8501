#include "methods/hotcold/hot_cold.h"

#include <algorithm>

#include "methods/lsm/lsm_tree.h"

namespace rum {

HotColdStore::HotColdStore(const Options& options, Device* device)
    : options_(options),
      cold_(std::make_unique<LsmTree>(options, device)),
      sketch_(std::make_unique<CountMinSketch>(kSketchWidth, kSketchDepth,
                                               &own_)) {}

HotColdStore::~HotColdStore() = default;

void HotColdStore::RepublishHotSpace() {
  // The hot table duplicates (or shadows) cold data: pure overhead bought
  // for read performance. Sketch space is charged by the sketch itself.
  own_.SetSpace(DataClass::kAux,
                sketch_->space_bytes() +
                    static_cast<uint64_t>(hot_.size()) * kHotEntrySize);
}

Status HotColdStore::EvictOne() {
  if (hot_.empty()) return Status::OK();
  // Sample a few entries deterministically and evict the coldest.
  auto it = hot_.begin();
  std::advance(it, static_cast<long>(evict_cursor_ % hot_.size()));
  evict_cursor_ = evict_cursor_ * 6364136223846793005ULL + 1;
  auto victim = it;
  uint64_t victim_freq = sketch_->Estimate(it->first);
  for (int samples = 1; samples < 4; ++samples) {
    ++it;
    if (it == hot_.end()) it = hot_.begin();
    uint64_t freq = sketch_->Estimate(it->first);
    if (freq < victim_freq) {
      victim = it;
      victim_freq = freq;
    }
  }
  if (victim->second.dirty) {
    Status s = cold_->Insert(victim->first, victim->second.value);
    if (!s.ok()) return s;
  }
  own_.OnWrite(DataClass::kAux, kHotEntrySize);
  hot_.erase(victim);
  ++evictions_;
  RepublishHotSpace();
  return Status::OK();
}

Status HotColdStore::Track(Key key, bool have_value, Value known_value) {
  sketch_->Add(key);
  if (sketch_->Estimate(key) < options_.hot_cold.promote_estimate) {
    return Status::OK();
  }
  if (hot_.find(key) != hot_.end()) return Status::OK();
  if (!live_keys_.contains(key)) return Status::OK();
  Value value = known_value;
  if (!have_value) {
    Result<Value> from_cold = cold_->Get(key);
    if (!from_cold.ok()) return Status::OK();  // Raced with delete; skip.
    value = from_cold.value();
  }
  // A clean promotion: the cold copy stays authoritative until the hot
  // entry is dirtied.
  hot_.emplace(key, HotEntry{value, /*dirty=*/false});
  own_.OnWrite(DataClass::kAux, kHotEntrySize);
  ++promotions_;
  RepublishHotSpace();
  if (hot_.size() > options_.hot_cold.hot_capacity) {
    return EvictOne();
  }
  return Status::OK();
}

Status HotColdStore::Insert(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  live_keys_.insert(key);
  own_.OnRead(DataClass::kAux, kHotEntrySize);  // Hot-table probe.
  auto it = hot_.find(key);
  if (it != hot_.end()) {
    // Hot write: absorbed in memory, written back on eviction/flush.
    it->second = HotEntry{value, /*dirty=*/true};
    own_.OnWrite(DataClass::kAux, kHotEntrySize);
    sketch_->Add(key);
    return Status::OK();
  }
  Status s = cold_->Insert(key, value);
  if (!s.ok()) return s;
  return Track(key, /*have_value=*/true, value);
}

Status HotColdStore::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  live_keys_.erase(key);
  own_.OnRead(DataClass::kAux, kHotEntrySize);
  auto it = hot_.find(key);
  if (it != hot_.end()) {
    hot_.erase(it);
    own_.OnWrite(DataClass::kAux, kHotEntrySize);
    RepublishHotSpace();
  }
  return cold_->Delete(key);
}

Result<Value> HotColdStore::Get(Key key) {
  counters().OnPointQuery();
  own_.OnRead(DataClass::kAux, kHotEntrySize);
  auto it = hot_.find(key);
  if (it != hot_.end()) {
    counters().OnLogicalRead(kEntrySize);
    sketch_->Add(key);
    return it->second.value;
  }
  Result<Value> result = cold_->Get(key);
  if (result.ok()) {
    counters().OnLogicalRead(kEntrySize);
    Status s = Track(key, /*have_value=*/true, result.value());
    if (!s.ok()) return s;
  }
  return result;
}

Status HotColdStore::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  std::vector<Entry> cold_hits;
  Status s = cold_->Scan(lo, hi, &cold_hits);
  if (!s.ok()) return s;
  // Overlay dirty hot entries (clean ones agree with the cold copy) and
  // add hot-only keys.
  own_.OnRead(DataClass::kAux,
              static_cast<uint64_t>(hot_.size()) * kHotEntrySize);
  std::unordered_map<Key, Value> overlay;
  for (const auto& [key, entry] : hot_) {
    if (key >= lo && key <= hi && entry.dirty) overlay[key] = entry.value;
  }
  std::vector<Entry> merged;
  merged.reserve(cold_hits.size());
  for (const Entry& e : cold_hits) {
    auto it = overlay.find(e.key);
    if (it != overlay.end()) {
      merged.push_back(Entry{e.key, it->second});
      overlay.erase(it);
    } else {
      merged.push_back(e);
    }
  }
  for (const auto& [key, value] : overlay) {
    merged.push_back(Entry{key, value});
  }
  std::sort(merged.begin(), merged.end());
  counters().OnLogicalRead(static_cast<uint64_t>(merged.size()) *
                           kEntrySize);
  out->insert(out->end(), merged.begin(), merged.end());
  return Status::OK();
}

Status HotColdStore::BulkLoad(std::span<const Entry> entries) {
  if (size() != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty structure");
  }
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  for (const Entry& e : entries) live_keys_.insert(e.key);
  return cold_->BulkLoad(entries);
}

Status HotColdStore::Flush() {
  // Write back every dirty hot entry; the table stays populated (clean).
  for (auto& [key, entry] : hot_) {
    if (entry.dirty) {
      Status s = cold_->Insert(key, entry.value);
      if (!s.ok()) return s;
      entry.dirty = false;
    }
  }
  return cold_->Flush();
}

CounterSnapshot HotColdStore::stats() const {
  CounterSnapshot snap = cold_->stats();
  snap += own_.snapshot();
  const CounterSnapshot& wrapper = AccessMethod::stats();
  snap.logical_bytes_read = wrapper.logical_bytes_read;
  snap.logical_bytes_written = wrapper.logical_bytes_written;
  snap.point_queries = wrapper.point_queries;
  snap.range_queries = wrapper.range_queries;
  snap.inserts = wrapper.inserts;
  snap.updates = wrapper.updates;
  snap.deletes = wrapper.deletes;
  return snap;
}

void HotColdStore::ResetStats() {
  AccessMethod::ResetStats();
  cold_->ResetStats();
  own_.ResetTraffic();
}

}  // namespace rum
