#include "methods/approx/update_absorber.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "methods/lsm/sorted_run.h"
#include "methods/newest_wins_merge.h"

namespace rum {

UpdateAbsorber::UpdateAbsorber(std::unique_ptr<AccessMethod> base,
                               const Options& options)
    : options_(options), base_(std::move(base)) {
  assert(base_ != nullptr);
  name_ = "absorbed-" + std::string(base_->name());
  // Size the filter for the delta capacity at a comfortable load (< 0.6).
  size_t quotient_bits = std::max<size_t>(
      6, std::bit_width(options_.absorber.delta_entries * 2));
  filter_ = std::make_unique<QuotientFilter>(
      quotient_bits, options_.absorber.qf_remainder_bits, &own_);
}

UpdateAbsorber::~UpdateAbsorber() = default;

void UpdateAbsorber::RepublishDeltaSpace() {
  // Filter space is charged by the filter itself; the delta map is ours.
  own_.SetSpace(DataClass::kBase, 0);
  // AdjustSpace would drift with rehashing; publish the level directly.
  uint64_t filter_bytes = filter_->space_bytes();
  own_.SetSpace(DataClass::kAux,
                filter_bytes + static_cast<uint64_t>(delta_.size()) *
                                   kDeltaRecordSize);
}

Status UpdateAbsorber::Absorb(Key key, Value value, bool tombstone) {
  counters().OnLogicalWrite(kEntrySize);
  if (tombstone) {
    live_keys_.erase(key);
  } else {
    live_keys_.insert(key);
  }
  auto it = delta_.find(key);
  own_.OnRead(DataClass::kAux, kDeltaRecordSize);  // One bucket probe.
  if (it != delta_.end()) {
    it->second = DeltaRecord{value, tombstone};
    own_.OnWrite(DataClass::kAux, kDeltaRecordSize);
    return Status::OK();
  }
  if (!filter_->Insert(key)) {
    // Filter at load limit: drain early, then retry.
    Status s = Drain();
    if (!s.ok()) return s;
    if (!filter_->Insert(key)) {
      return Status::ResourceExhausted("quotient filter cannot admit key");
    }
  }
  delta_.emplace(key, DeltaRecord{value, tombstone});
  own_.OnWrite(DataClass::kAux, kDeltaRecordSize);
  RepublishDeltaSpace();
  if (delta_.size() >= options_.absorber.delta_entries) {
    return Drain();
  }
  return Status::OK();
}

Status UpdateAbsorber::Drain() {
  if (delta_.empty()) return Status::OK();
  // Apply in key order (friendlier to the base structure's locality).
  std::vector<std::pair<Key, DeltaRecord>> ops(delta_.begin(), delta_.end());
  std::sort(ops.begin(), ops.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  own_.OnRead(DataClass::kAux,
              static_cast<uint64_t>(ops.size()) * kDeltaRecordSize);
  for (const auto& [key, record] : ops) {
    Status s = record.tombstone ? base_->Delete(key)
                                : base_->Insert(key, record.value);
    if (!s.ok()) return s;
    (void)filter_->Delete(key);
  }
  delta_.clear();
  RepublishDeltaSpace();
  return Status::OK();
}

Status UpdateAbsorber::Insert(Key key, Value value) {
  counters().OnInsert();
  return Absorb(key, value, /*tombstone=*/false);
}

Status UpdateAbsorber::Update(Key key, Value value) {
  counters().OnUpdate();
  return Absorb(key, value, /*tombstone=*/false);
}

Status UpdateAbsorber::Delete(Key key) {
  counters().OnDelete();
  return Absorb(key, 0, /*tombstone=*/true);
}

Result<Value> UpdateAbsorber::Get(Key key) {
  counters().OnPointQuery();
  // The filter decides whether the delta must be consulted at all; for the
  // overwhelmingly common key-without-pending-update, this is the entire
  // read overhead the buffering adds.
  if (filter_->MayContain(key)) {
    own_.OnRead(DataClass::kAux, kDeltaRecordSize);
    auto it = delta_.find(key);
    if (it != delta_.end()) {
      if (it->second.tombstone) return Status::NotFound();
      counters().OnLogicalRead(kEntrySize);
      return it->second.value;
    }
  }
  Result<Value> result = base_->Get(key);
  if (result.ok()) counters().OnLogicalRead(kEntrySize);
  return result;
}

Status UpdateAbsorber::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  // Ranges cannot use the filter (it is orderless): merge base + delta.
  std::vector<Entry> base_hits;
  Status s = base_->Scan(lo, hi, &base_hits);
  if (!s.ok()) return s;
  own_.OnRead(DataClass::kAux,
              static_cast<uint64_t>(delta_.size()) * kDeltaRecordSize);
  // The delta is newer than the base; its tombstones shadow base entries.
  std::vector<LogRecord> pending;
  for (const auto& [key, record] : delta_) {
    if (key >= lo && key <= hi) {
      pending.push_back(LogRecord{
          key, record.value, record.tombstone ? LogOp::kDelete : LogOp::kPut});
    }
  }
  std::ranges::sort(pending, {}, &LogRecord::key);
  std::vector<LogRecord> base;
  base.reserve(base_hits.size());
  for (const Entry& e : base_hits) {
    base.push_back(LogRecord{e.key, e.value, LogOp::kPut});
  }
  SpanSource<LogRecord> sources[] = {SpanSource<LogRecord>(pending),
                                     SpanSource<LogRecord>(base)};
  uint64_t hits = 0;
  s = MergeNewestWins(std::span(sources), hi, [&](const LogRecord& r) {
    if (r.op == LogOp::kDelete) return;
    out->push_back(Entry{r.key, r.value});
    ++hits;
  });
  if (!s.ok()) return s;
  counters().OnLogicalRead(hits * kEntrySize);
  return Status::OK();
}

Status UpdateAbsorber::BulkLoad(std::span<const Entry> entries) {
  if (!delta_.empty()) {
    return Status::InvalidArgument("BulkLoad requires an empty structure");
  }
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  s = base_->BulkLoad(entries);
  if (!s.ok()) return s;
  for (const Entry& e : entries) live_keys_.insert(e.key);
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  return Status::OK();
}

Status UpdateAbsorber::Flush() {
  Status s = Drain();
  if (!s.ok()) return s;
  return base_->Flush();
}

size_t UpdateAbsorber::size() const { return live_keys_.size(); }

CounterSnapshot UpdateAbsorber::stats() const {
  CounterSnapshot snap = base_->stats();
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

void UpdateAbsorber::ResetStats() {
  AccessMethod::ResetStats();
  base_->ResetStats();
  own_.ResetTraffic();
}

}  // namespace rum
