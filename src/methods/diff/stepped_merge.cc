#include "methods/diff/stepped_merge.h"

#include <algorithm>
#include <unordered_map>

namespace rum {

SteppedMergeTree::SteppedMergeTree(const Options& options, Device* device)
    : options_(options), device_(device, options.block_size, &counters()) {}

SteppedMergeTree::~SteppedMergeTree() = default;

size_t SteppedMergeTree::total_runs() const {
  size_t n = 0;
  for (const auto& level : levels_) n += level.size();
  return n;
}

bool SteppedMergeTree::IsLastPopulated(size_t level) const {
  for (size_t i = level + 1; i < levels_.size(); ++i) {
    if (!levels_[i].empty()) return false;
  }
  return true;
}

Status SteppedMergeTree::Put(Key key, Value value, bool tombstone) {
  counters().OnLogicalWrite(kEntrySize);
  buffer_.push_back(
      LogRecord{key, value, tombstone ? LogOp::kDelete : LogOp::kPut});
  counters().OnWrite(DataClass::kAux, LogRecord::kWireSize);
  counters().AdjustSpace(DataClass::kAux, LogRecord::kWireSize);
  if (tombstone) {
    live_keys_.erase(key);
  } else {
    live_keys_.insert(key);
  }
  if (buffer_.size() >= options_.stepped.buffer_entries) {
    return SealBuffer();
  }
  return Status::OK();
}

Status SteppedMergeTree::Insert(Key key, Value value) {
  counters().OnInsert();
  return Put(key, value, /*tombstone=*/false);
}

Status SteppedMergeTree::Delete(Key key) {
  counters().OnDelete();
  return Put(key, 0, /*tombstone=*/true);
}

Status SteppedMergeTree::SealBuffer() {
  if (buffer_.empty()) return Status::OK();
  // Sort the buffer, newest occurrence of a key winning.
  std::stable_sort(buffer_.begin(), buffer_.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     return a.key < b.key;
                   });
  std::vector<LogRecord> records;
  records.reserve(buffer_.size());
  for (size_t i = 0; i < buffer_.size(); ++i) {
    // Stable sort keeps the newest version last within equal keys.
    if (i + 1 < buffer_.size() && buffer_[i + 1].key == buffer_[i].key) {
      continue;
    }
    records.push_back(buffer_[i]);
  }
  counters().AdjustSpace(
      DataClass::kAux,
      -static_cast<int64_t>(buffer_.size() * LogRecord::kWireSize));
  buffer_.clear();

  if (levels_.empty()) levels_.resize(1);
  if (IsLastPopulated(0) && levels_[0].empty()) {
    records.erase(std::remove_if(records.begin(), records.end(),
                                 [](const LogRecord& r) {
                                   return r.op == LogOp::kDelete;
                                 }),
                  records.end());
  }
  if (!records.empty()) {
    std::unique_ptr<SortedRun> run;
    Status s = SortedRun::Build(device_.get(), &counters(), records,
                                /*bloom_bits_per_key=*/0, &run);
    if (!s.ok()) return s;
    levels_[0].push_back(std::move(run));
  }

  // Cascade full levels.
  for (size_t level = 0; level < levels_.size(); ++level) {
    if (levels_[level].size() < options_.stepped.runs_per_level) continue;
    std::vector<SortedRun*> inputs;
    for (size_t i = levels_[level].size(); i-- > 0;) {
      inputs.push_back(levels_[level][i].get());
    }
    std::vector<LogRecord> merged;
    Status m = MergeSortedRuns(inputs, IsLastPopulated(level), &merged);
    if (!m.ok()) return m;
    for (auto& run : levels_[level]) {
      Status d = run->Destroy();
      if (!d.ok()) return d;
    }
    levels_[level].clear();
    if (levels_.size() <= level + 1) levels_.resize(level + 2);
    if (!merged.empty()) {
      std::unique_ptr<SortedRun> run;
      Status s = SortedRun::Build(device_.get(), &counters(), merged,
                                  /*bloom_bits_per_key=*/0, &run);
      if (!s.ok()) return s;
      levels_[level + 1].push_back(std::move(run));
    }
  }
  return Status::OK();
}

Result<Value> SteppedMergeTree::Get(Key key) {
  counters().OnPointQuery();
  // Buffer first, newest wins, scanned backwards.
  counters().OnRead(DataClass::kAux,
                    static_cast<uint64_t>(buffer_.size()) *
                        LogRecord::kWireSize);
  for (size_t i = buffer_.size(); i-- > 0;) {
    if (buffer_[i].key == key) {
      if (buffer_[i].op == LogOp::kDelete) return Status::NotFound();
      counters().OnLogicalRead(kEntrySize);
      return buffer_[i].value;
    }
  }
  for (const auto& level : levels_) {
    for (size_t i = level.size(); i-- > 0;) {
      Result<std::optional<LogRecord>> hit = level[i]->Get(key);
      if (!hit.ok()) return hit.status();
      if (hit.value().has_value()) {
        if (hit.value()->op == LogOp::kDelete) return Status::NotFound();
        counters().OnLogicalRead(kEntrySize);
        return hit.value()->value;
      }
    }
  }
  return Status::NotFound();
}

Status SteppedMergeTree::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  std::unordered_map<Key, std::pair<Value, bool>> newest;
  counters().OnRead(DataClass::kAux,
                    static_cast<uint64_t>(buffer_.size()) *
                        LogRecord::kWireSize);
  for (size_t i = buffer_.size(); i-- > 0;) {
    const LogRecord& r = buffer_[i];
    if (r.key < lo || r.key > hi) continue;
    newest.emplace(r.key, std::make_pair(r.value, r.op == LogOp::kDelete));
  }
  for (const auto& level : levels_) {
    for (size_t i = level.size(); i-- > 0;) {
      Status s = level[i]->VisitRange(lo, hi, [&](const LogRecord& r) {
        newest.emplace(r.key,
                       std::make_pair(r.value, r.op == LogOp::kDelete));
      });
      if (!s.ok()) return s;
    }
  }
  std::vector<Entry> hits;
  for (const auto& [k, vt] : newest) {
    if (!vt.second) hits.push_back(Entry{k, vt.first});
  }
  std::sort(hits.begin(), hits.end());
  counters().OnLogicalRead(static_cast<uint64_t>(hits.size()) * kEntrySize);
  out->insert(out->end(), hits.begin(), hits.end());
  return Status::OK();
}

Status SteppedMergeTree::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  if (entries.empty()) return Status::OK();
  std::vector<LogRecord> records;
  records.reserve(entries.size());
  for (const Entry& e : entries) {
    records.push_back(LogRecord{e.key, e.value, LogOp::kPut});
    live_keys_.insert(e.key);
  }
  // One run at the deepest level the size warrants.
  uint64_t per_level = options_.stepped.buffer_entries;
  size_t level = 0;
  while (per_level * options_.stepped.runs_per_level < records.size()) {
    per_level *= options_.stepped.runs_per_level;
    ++level;
  }
  if (levels_.size() <= level) levels_.resize(level + 1);
  std::unique_ptr<SortedRun> run;
  s = SortedRun::Build(device_.get(), &counters(), records,
                       /*bloom_bits_per_key=*/0, &run);
  if (!s.ok()) return s;
  levels_[level].push_back(std::move(run));
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  return Status::OK();
}

Status SteppedMergeTree::Flush() { return SealBuffer(); }

CounterSnapshot SteppedMergeTree::stats() const {
  CounterSnapshot snap = AccessMethod::stats();
  uint64_t total = snap.total_space();
  uint64_t base =
      std::min(static_cast<uint64_t>(live_keys_.size()) * kEntrySize, total);
  snap.space_base = base;
  snap.space_aux = total - base;
  return snap;
}

}  // namespace rum
