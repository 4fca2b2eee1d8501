#include "methods/hotcold/hot_cold.h"

#include <algorithm>

#include "methods/lsm/lsm_tree.h"
#include "methods/newest_wins_merge.h"

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

Status HotColdStore::Track(Key key, Value value) {
  sketch_->Add(key);
  if (sketch_->Estimate(key) < options_.hot_cold.promote_estimate) {
    return Status::OK();
  }
  if (hot_.find(key) != hot_.end()) return Status::OK();
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
  return Track(key, value);
}

Status HotColdStore::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
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
    Status s = Track(key, result.value());
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
  // Dirty hot entries are newer than the cold copy (clean ones agree with
  // it), and some keys are hot only.
  own_.OnRead(DataClass::kAux,
              static_cast<uint64_t>(hot_.size()) * kHotEntrySize);
  std::vector<Entry> dirty;
  for (const auto& [key, entry] : hot_) {
    if (key >= lo && key <= hi && entry.dirty) {
      dirty.push_back(Entry{key, entry.value});
    }
  }
  std::sort(dirty.begin(), dirty.end());
  SpanSource<Entry> sources[] = {SpanSource<Entry>(dirty),
                                 SpanSource<Entry>(cold_hits)};
  const size_t before = out->size();
  s = MergeNewestWins(std::span(sources), hi,
                      [&](const Entry& e) { out->push_back(e); });
  if (!s.ok()) return s;
  counters().OnLogicalRead(static_cast<uint64_t>(out->size() - before) *
                           kEntrySize);
  return Status::OK();
}

Status HotColdStore::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  s = cold_->BulkLoad(entries);
  if (!s.ok()) return s;
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  return Status::OK();
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
