#include "methods/sharded/sharded_method.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/metrics.h"

namespace rum {

ShardedMethod::ShardedMethod(
    std::string name, std::vector<std::unique_ptr<AccessMethod>> shards)
    : name_(std::move(name)) {
  assert(!shards.empty());
  shards_.reserve(shards.size());
  for (auto& method : shards) {
    auto shard = std::make_unique<Shard>();
    shard->method = std::move(method);
    shards_.push_back(std::move(shard));
  }
}

ShardedMethod::~ShardedMethod() = default;

size_t ShardedMethod::PartitionOf(Key key) const {
  // SplitMix64 finalizer: decorrelates shard choice from key order so
  // sequential and clustered workloads still spread across shards.
  uint64_t x = key + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<size_t>(x % shards_.size());
}

Status ShardedMethod::Insert(Key key, Value value) {
  Shard& shard = *shards_[PartitionOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.method->Insert(key, value);
}

Status ShardedMethod::Update(Key key, Value value) {
  Shard& shard = *shards_[PartitionOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.method->Update(key, value);
}

Status ShardedMethod::Delete(Key key) {
  Shard& shard = *shards_[PartitionOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.method->Delete(key);
}

Result<Value> ShardedMethod::Get(Key key) {
  Shard& shard = *shards_[PartitionOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.method->Get(key);
}

Status ShardedMethod::MultiGet(std::span<const Key> keys,
                               std::vector<std::optional<Value>>* out) {
  // A single key gains nothing from batching; take Get's exact path (and
  // its exact charge sequence) via the base-class loop.
  if (keys.size() <= 1) return AccessMethod::MultiGet(keys, out);
  out->assign(keys.size(), std::nullopt);
  std::vector<std::vector<Key>> part_keys(shards_.size());
  std::vector<std::vector<uint32_t>> part_idx(shards_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    size_t shard = PartitionOf(keys[i]);
    part_keys[shard].push_back(keys[i]);
    part_idx[shard].push_back(static_cast<uint32_t>(i));
  }
  std::vector<std::optional<Value>> part_out;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    if (part_keys[shard].empty()) continue;
    {
      std::lock_guard<std::mutex> lock(shards_[shard]->mu);
      Status s = shards_[shard]->method->MultiGet(part_keys[shard], &part_out);
      if (!s.ok()) return s;
    }
    for (size_t j = 0; j < part_idx[shard].size(); ++j) {
      (*out)[part_idx[shard][j]] = std::move(part_out[j]);
    }
  }
  return Status::OK();
}

Status ShardedMethod::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) {
    return Status::InvalidArgument("Scan range is inverted");
  }
  scans_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Entry> merged;
  for (auto& shard : shards_) {
    std::vector<Entry> part;
    std::lock_guard<std::mutex> lock(shard->mu);
    Status s = shard->method->Scan(lo, hi, &part);
    if (!s.ok()) return s;
    merged.insert(merged.end(), part.begin(), part.end());
  }
  // Shards hold disjoint key sets, each scanned in ascending order; one
  // sort restores the global order.
  std::sort(merged.begin(), merged.end());
  out->insert(out->end(), merged.begin(), merged.end());
  return Status::OK();
}

Status ShardedMethod::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  std::vector<std::vector<Entry>> parts(shards_.size());
  for (auto& part : parts) part.reserve(entries.size() / shards_.size() + 1);
  for (const Entry& e : entries) {
    parts[PartitionOf(e.key)].push_back(e);
  }
  // A subsequence of strictly-ascending entries is strictly ascending, so
  // each shard sees a valid bulk load.
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    s = shards_[i]->method->BulkLoad(parts[i]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedMethod::Flush() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    Status s = shard->method->Flush();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

size_t ShardedMethod::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->method->size();
  }
  return total;
}

CounterSnapshot ShardedMethod::stats() const {
  // A full stats() locks and merges every shard -- fine per phase, ruinous
  // per operation. The counter below is how trace_test's sampling-
  // regression check verifies the workload runner no longer does the
  // latter (the counter is cheap: one relaxed atomic add).
  static MetricsRegistry::Counter* merges =
      MetricsRegistry::Global().FindOrCreateCounter(
          "sharded_method.stats_merges");
  merges->Increment();
  CounterSnapshot out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out += shard->method->stats();
  }
  out.range_queries = scans_.load(std::memory_order_relaxed);
  return out;
}

void ShardedMethod::ResetStats() {
  scans_.store(0, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->method->ResetStats();
  }
}

}  // namespace rum
