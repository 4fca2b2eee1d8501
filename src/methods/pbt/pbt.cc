#include "methods/pbt/pbt.h"

#include <algorithm>

#include "methods/newest_wins_merge.h"

namespace rum {

PartitionedBTree::PartitionedBTree(const Options& options)
    : options_(options) {}

PartitionedBTree::~PartitionedBTree() = default;

BTree* PartitionedBTree::ActivePartition() {
  if (partitions_.empty() ||
      partitions_.back()->size() >= options_.pbt.partition_entries) {
    partitions_.push_back(std::make_unique<BTree>(options_));
  }
  return partitions_.back().get();
}

Status PartitionedBTree::ScanPartitions(Key lo, Key hi,
                                        std::vector<Entry>* out) {
  std::vector<std::vector<Entry>> parts(partitions_.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    Status s = partitions_[parts.size() - 1 - i]->Scan(lo, hi, &parts[i]);
    if (!s.ok()) return s;
  }
  std::vector<SpanSource<Entry>> sources(parts.begin(), parts.end());
  return MergeNewestWins(std::span(sources), hi,
                         [&](const Entry& e) { out->push_back(e); });
}

Status PartitionedBTree::MergeAll() {
  std::vector<Entry> merged;
  Status s = ScanPartitions(kMinKey, kMaxKey, &merged);
  if (!s.ok()) return s;

  for (const auto& partition : partitions_) {
    CounterSnapshot snap = partition->stats();
    snap.space_base = 0;  // Space dies with the partition.
    snap.space_aux = 0;
    retired_ += snap;
  }
  partitions_.clear();
  auto fresh = std::make_unique<BTree>(options_);
  s = fresh->BulkLoad(merged);
  if (!s.ok()) return s;
  partitions_.push_back(std::move(fresh));
  ++merges_;
  return Status::OK();
}

Status PartitionedBTree::Insert(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  live_keys_.insert(key);
  Status s = ActivePartition()->Insert(key, value);
  if (!s.ok()) return s;
  if (partitions_.size() > options_.pbt.max_partitions) {
    return MergeAll();
  }
  return Status::OK();
}

Status PartitionedBTree::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  live_keys_.erase(key);
  // Eager delete: the key vanishes from every partition (no tombstones).
  for (auto& partition : partitions_) {
    Status s = partition->Delete(key);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<Value> PartitionedBTree::Get(Key key) {
  counters().OnPointQuery();
  for (size_t i = partitions_.size(); i-- > 0;) {
    Result<Value> result = partitions_[i]->Get(key);
    if (result.ok()) {
      counters().OnLogicalRead(kEntrySize);
      return result;
    }
    if (!result.status().IsNotFound()) return result;
  }
  return Status::NotFound();
}

Status PartitionedBTree::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();
  const size_t before = out->size();
  Status s = ScanPartitions(lo, hi, out);
  if (!s.ok()) return s;
  counters().OnLogicalRead(static_cast<uint64_t>(out->size() - before) *
                           kEntrySize);
  return Status::OK();
}

Status PartitionedBTree::BulkLoad(std::span<const Entry> entries) {
  if (size() != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty structure");
  }
  auto fresh = std::make_unique<BTree>(options_);
  Status s = fresh->BulkLoad(entries);
  if (!s.ok()) return s;
  partitions_.clear();
  partitions_.push_back(std::move(fresh));
  for (const Entry& e : entries) live_keys_.insert(e.key);
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  return Status::OK();
}

Status PartitionedBTree::Flush() { return Status::OK(); }

CounterSnapshot PartitionedBTree::stats() const {
  CounterSnapshot snap = retired_;
  for (const auto& partition : partitions_) {
    snap += partition->stats();
  }
  const CounterSnapshot& wrapper = AccessMethod::stats();
  snap.logical_bytes_read = wrapper.logical_bytes_read;
  snap.logical_bytes_written = wrapper.logical_bytes_written;
  snap.point_queries = wrapper.point_queries;
  snap.range_queries = wrapper.range_queries;
  snap.inserts = wrapper.inserts;
  snap.updates = wrapper.updates;
  snap.deletes = wrapper.deletes;
  // Live entries are base data; shadowed versions in older partitions and
  // all tree structure are overhead.
  uint64_t total = snap.total_space();
  uint64_t base =
      std::min(static_cast<uint64_t>(live_keys_.size()) * kEntrySize, total);
  snap.space_base = base;
  snap.space_aux = total - base;
  return snap;
}

void PartitionedBTree::ResetStats() {
  AccessMethod::ResetStats();
  for (auto& partition : partitions_) {
    partition->ResetStats();
  }
  retired_ = CounterSnapshot();
}

}  // namespace rum
