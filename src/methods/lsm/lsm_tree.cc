#include "methods/lsm/lsm_tree.h"

#include <algorithm>
#include <cassert>

#include "core/trace.h"
#include "methods/sketch/bloom_filter.h"

namespace rum {

LsmTree::LsmTree(const Options& options, Device* device)
    : options_(options),
      policy_(CompactionPolicy::Make(options.lsm.policy)),
      device_(device, options.block_size, &counters()),
      memtable_(
          std::make_unique<SkipListMap>(options.skiplist, &mem_counters_)) {
  if (options_.lsm.cross_run_index) {
    index_ = std::make_unique<CrossRunIndex>(
        &counters(), options_.lsm.cross_run_segment_entries);
  }
  InitMetrics();
  MaybeRegisterPools();
}

LsmTree::~LsmTree() {
  if (registrar_ != nullptr) {
    registrar_->UnregisterPool(&memtable_pool_);
    if (filter_pool_registered_) registrar_->UnregisterPool(&filter_pool_);
  }
}

void LsmTree::MaybeRegisterPools() {
  // Seed the live knobs from the static configuration; without an arbiter
  // they never change, which is what makes memory.enabled=false byte-
  // identical to the pre-arbiter behavior.
  memtable_limit_.store(std::max<size_t>(1, options_.lsm.memtable_entries),
                        std::memory_order_relaxed);
  bloom_bits_.store(options_.lsm.bloom_bits_per_key,
                    std::memory_order_relaxed);
  filter_budget_bytes_.store(
      static_cast<uint64_t>(options_.lsm.bloom_bits_per_key) *
          std::max<uint64_t>(1, options_.lsm.memtable_entries) / 8,
      std::memory_order_relaxed);
  if (!options_.memory.enabled || options_.memory.arbiter == nullptr) return;
  registrar_ = options_.memory.arbiter;
  registrar_->RegisterPool(&memtable_pool_);
  // Filter memory is only arbitrable when the configuration asked for
  // filters at all: 0 bits/key keeps the paper's filterless baseline.
  if (options_.lsm.bloom_bits_per_key > 0) {
    registrar_->RegisterPool(&filter_pool_);
    filter_pool_registered_ = true;
  }
}

void LsmTree::FilterPool::SetPoolBytes(uint64_t bytes) {
  tree_->filter_budget_bytes_.store(bytes, std::memory_order_relaxed);
  // Convert the byte budget into bits-per-key against the published live
  // key count (the static memtable size stands in before any key lands).
  uint64_t keys = tree_->approx_keys_.load(std::memory_order_relaxed);
  if (keys == 0) {
    keys = std::max<uint64_t>(1, tree_->options_.lsm.memtable_entries);
  }
  uint64_t bits = bytes * 8 / keys;
  if (bits > 64) bits = 64;  // Past ~20 bits/key the FP-rate gain is nil.
  tree_->SetBloomBitsPerKey(static_cast<size_t>(bits));
}

void LsmTree::InitMetrics() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  flush_counter_ = registry.FindOrCreateCounter("lsm.flushes");
  compaction_counter_ = registry.FindOrCreateCounter("lsm.compactions");
  compaction_records_counter_ =
      registry.FindOrCreateCounter("lsm.compaction_records");
  metrics_.Init("lsm");
  metrics_.Gauge("levels", [this] { return levels_.size(); });
  metrics_.Gauge("runs", [this] { return total_runs(); });
  metrics_.Gauge("flushes", [this] { return flushes_; });
  metrics_.Gauge("compactions", [this] { return compactions_; });
}

size_t LsmTree::total_runs() const {
  size_t n = 0;
  for (const auto& level : levels_) n += level.size();
  return n;
}

Status LsmTree::Put(Key key, Value value, bool tombstone) {
  counters().OnLogicalWrite(kEntrySize);
  memtable_->Put(key, value, tombstone);
  if (tombstone) {
    live_keys_.erase(key);
  } else {
    live_keys_.insert(key);
  }
  approx_keys_.store(live_keys_.size(), std::memory_order_relaxed);
  // The *live* limit, not the configured one: a replan shrink flushes on
  // the very next write, a growth lets the memtable keep filling.
  if (memtable_->record_count() >= memtable_entry_limit()) {
    return FlushMemtable();
  }
  return Status::OK();
}

Status LsmTree::Insert(Key key, Value value) {
  TickRegistrar();
  counters().OnInsert();
  return Put(key, value, /*tombstone=*/false);
}

Status LsmTree::Delete(Key key) {
  TickRegistrar();
  counters().OnDelete();
  return Put(key, 0, /*tombstone=*/true);
}

Status LsmTree::BuildRun(size_t level, std::vector<LogRecord> records) {
  if (levels_.size() <= level) levels_.resize(level + 1);
  if (records.empty()) return Status::OK();
  Trace::Emit(TraceKind::kLsmCompaction, TraceOp::kWrite, kInvalidPageId,
              DataClass::kBase, level);
  std::unique_ptr<SortedRun> run;
  // bloom_bits_per_key() (the live knob), not the configured value: the
  // arbiter re-budgets filters at exactly this rebuild boundary.
  Status s = SortedRun::Build(device_.get(), &counters(), records,
                              bloom_bits_per_key(), &run,
                              options_.lsm.fence_entries,
                              options_.lsm.compress_runs,
                              options_.lsm.blocked_bloom);
  if (!s.ok()) return s;
  run->set_filter_stats(&filter_stats_);
  if (index_ != nullptr) index_->OnRunCreated(run.get());
  levels_[level].push_back(std::move(run));
  return Status::OK();
}

Status LsmTree::AddFlushRun() { return BuildRun(0, std::move(sealed_)); }

Status LsmTree::MergeLevel(size_t level, size_t dest, bool with_memtable,
                           bool absorb_next) {
  if (levels_.size() <= dest) levels_.resize(dest + 1);
  // Run inputs, newest first: the level's runs, then the absorbed run of
  // the level below. The sealed memtable, when merged, is newer still.
  std::vector<SortedRun*> inputs;
  for (size_t i = levels_[level].size(); i-- > 0;) {
    inputs.push_back(levels_[level][i].get());
  }
  const bool absorb = absorb_next && runs_at(level + 1) > 0;
  if (absorb) inputs.push_back(levels_[level + 1].back().get());
  const bool drop_tombstones = IsLastPopulated(absorb_next ? level + 1 : level);
  if (!inputs.empty()) {
    uint64_t input_records = 0;
    for (const SortedRun* run : inputs) input_records += run->record_count();
    ++compactions_;
    compaction_input_records_ += input_records;
    compaction_counter_->Increment();
    compaction_records_counter_->Increment(input_records);
    merge_bytes_.fetch_add(input_records * kEntrySize,
                           std::memory_order_relaxed);
  }
  std::vector<std::vector<LogRecord>> streams;
  if (with_memtable) streams.push_back(std::move(sealed_));
  for (SortedRun* run : inputs) {
    streams.emplace_back();
    Status s = GatherSortedRun(run, &streams.back());
    if (!s.ok()) return s;
  }
  // Retire before building: the level's runs oldest first, then the
  // absorbed one.
  for (auto& run : levels_[level]) {
    Status s = RetireRun(run.get());
    if (!s.ok()) return s;
  }
  levels_[level].clear();
  if (absorb) {
    Status s = RetireRun(levels_[level + 1].back().get());
    if (!s.ok()) return s;
    levels_[level + 1].pop_back();
  }
  return BuildRun(dest, MergeLogStreams(std::move(streams), drop_tombstones));
}

void LsmTree::MoveRunDown(size_t level) {
  // Not a retirement: the run object, and so the cross-run index's stored
  // cursor offsets into it, survive the move.
  if (levels_.size() <= level + 1) levels_.resize(level + 2);
  levels_[level + 1].push_back(std::move(levels_[level].back()));
  levels_[level].pop_back();
}

Status LsmTree::RetireRun(SortedRun* run) {
  if (index_ != nullptr) index_->OnRunRetiring(run);
  return run->Destroy();
}

Status LsmTree::FlushMemtable() {
  if (memtable_->record_count() == 0) return Status::OK();
  sealed_.reserve(memtable_->record_count());
  memtable_->VisitAllUnaccounted([&](const SkipListMap::Record& r) {
    sealed_.push_back(LogRecord{
        r.key, r.value, r.tombstone ? LogOp::kDelete : LogOp::kPut});
  });
  memtable_->Clear();
  Trace::Emit(TraceKind::kLsmFlush, TraceOp::kFlush, kInvalidPageId,
              DataClass::kBase, sealed_.size());

  ++flushes_;
  flush_counter_->Increment();
  // The memtable pool's benefit signal: bytes this flush pushes into the
  // merge machinery (a bigger buffer would have absorbed more first).
  merge_bytes_.fetch_add(sealed_.size() * kEntrySize,
                         std::memory_order_relaxed);
  Status s = policy_->HandleFlush(this);
  sealed_ = std::vector<LogRecord>();  // No buffer outlives a flush.
  return s;
}

Result<Value> LsmTree::Get(Key key) {
  TickRegistrar();
  counters().OnPointQuery();
  SkipListMap::Record mem_record;
  if (memtable_->Find(key, &mem_record)) {
    if (mem_record.tombstone) return Status::NotFound();
    counters().OnLogicalRead(kEntrySize);
    return mem_record.value;
  }
  for (const auto& level : levels_) {
    for (size_t i = level.size(); i-- > 0;) {
      // O(1) bounds skip: a run whose [min, max] misses the key costs
      // nothing -- no Bloom probe, no fence search.
      if (key < level[i]->min_key() || key > level[i]->max_key()) continue;
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

Status LsmTree::MultiGet(std::span<const Key> keys,
                         std::vector<std::optional<Value>>* out) {
  // A single key gains nothing from batching; take Get's exact path (and
  // its exact charge sequence) via the base-class loop.
  if (keys.size() <= 1) return AccessMethod::MultiGet(keys, out);
  out->assign(keys.size(), std::nullopt);
  // Memtable pass, charged per input key (duplicates included) exactly
  // like the Get loop: tick, point-query count, skiplist find.
  std::vector<std::pair<Key, uint32_t>> todo;  // Unresolved (key, out idx).
  todo.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    TickRegistrar();
    counters().OnPointQuery();
    SkipListMap::Record mem_record;
    if (memtable_->Find(keys[i], &mem_record)) {
      if (!mem_record.tombstone) {
        counters().OnLogicalRead(kEntrySize);
        (*out)[i] = mem_record.value;
      }
      continue;  // Tombstone: resolved absent.
    }
    todo.push_back({keys[i], static_cast<uint32_t>(i)});
  }
  std::sort(todo.begin(), todo.end());
  // Structure-of-arrays view of the pending batch: the key array is handed
  // to each run as-is (duplicates included, each charged like its own Get),
  // so nothing is rebuilt per run. The probe-hash cache starts invalid;
  // the first filtered run fills it (one hash mix + reduction per key) and
  // every later run with the same filter geometry reuses it -- the per-key
  // Get loop redoes the mixes and modulo reductions per run per key.
  std::vector<Key> pending_keys(todo.size());
  std::vector<uint32_t> pending_idx(todo.size());
  for (size_t i = 0; i < todo.size(); ++i) {
    pending_keys[i] = todo[i].first;
    pending_idx[i] = todo[i].second;
  }
  ProbeHashCache probe_cache;
  // Runs newest-first, the Get probe order. Each run sees one ascending
  // batch of the still-unresolved keys; a resolved key (put or tombstone)
  // drops out before the next, older run.
  std::vector<std::pair<uint32_t, LogRecord>> hits;
  for (const auto& level : levels_) {
    if (pending_keys.empty()) break;
    for (size_t i = level.size(); i-- > 0;) {
      if (pending_keys.empty()) break;
      SortedRun* run = level[i].get();
      // O(1) whole-batch bounds skip: the run costs nothing when its
      // [min, max] misses every pending key.
      if (pending_keys.back() < run->min_key() ||
          pending_keys.front() > run->max_key()) {
        continue;
      }
      Status s = run->MultiGet(pending_keys, &probe_cache, &hits);
      if (!s.ok()) return s;
      if (hits.empty()) continue;
      // Resolve the hits and compact the pending arrays in one pass; hit
      // positions arrive in ascending order.
      const bool cached = probe_cache.mode != ProbeHashCache::kInvalid;
      size_t keep = 0;
      size_t h = 0;
      for (size_t t = 0; t < pending_keys.size(); ++t) {
        if (h < hits.size() && hits[h].first == t) {
          const LogRecord& rec = hits[h].second;
          ++h;
          if (rec.op != LogOp::kDelete) {
            counters().OnLogicalRead(kEntrySize);
            (*out)[pending_idx[t]] = rec.value;
          }
        } else {
          pending_keys[keep] = pending_keys[t];
          pending_idx[keep] = pending_idx[t];
          // Compacting the cached offsets alongside keeps the cache valid
          // (positions shift, geometry does not), so no refill is needed.
          if (cached) {
            probe_cache.a[keep] = probe_cache.a[t];
            probe_cache.b[keep] = probe_cache.b[t];
          }
          ++keep;
        }
      }
      pending_keys.resize(keep);
      pending_idx.resize(keep);
      if (cached) {
        probe_cache.a.resize(keep);
        probe_cache.b.resize(keep);
      }
    }
  }
  return Status::OK();  // Keys no run resolved stay nullopt (absent).
}

std::vector<SortedRun*> LsmTree::RunsNewestFirst() {
  std::vector<SortedRun*> runs;
  runs.reserve(total_runs());
  for (auto& level : levels_) {
    for (size_t i = level.size(); i-- > 0;) {
      runs.push_back(level[i].get());
    }
  }
  return runs;
}

Status LsmTree::PositionRunsFallback(const std::vector<SortedRun*>& runs,
                                     Key lo, Key hi,
                                     std::vector<SortedRun::Cursor>* out) {
  out->clear();
  out->reserve(runs.size());
  for (SortedRun* run : runs) {
    // O(1) bounds skip, same rule as the index path.
    if (run->max_key() < lo || run->min_key() > hi) continue;
    SortedRun::Cursor cursor(run);
    Status s = cursor.SeekFirstAtLeast(lo);
    if (!s.ok()) return s;
    out->push_back(std::move(cursor));
  }
  return Status::OK();
}

Status LsmTree::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  TickRegistrar();
  counters().OnRangeQuery();
  // The memtable is the newest stream of all; gather its window (charged
  // skiplist reads) and two-way merge it against the ordered run stream.
  std::vector<SkipListMap::Record> mem;
  memtable_->VisitRange(lo, hi, [&](const SkipListMap::Record& r) {
    mem.push_back(r);
  });
  size_t mem_pos = 0;
  uint64_t hits = 0;
  auto emit = [&](Key key, Value value, bool tombstone) {
    if (tombstone) return;
    out->push_back(Entry{key, value});
    ++hits;
  };
  // The run stream arrives ascending with the newest version per key
  // (tombstones included, so a delete shadows older puts). Memtable
  // entries interleave by key and win ties.
  auto on_run_record = [&](const LogRecord& r) {
    while (mem_pos < mem.size() && mem[mem_pos].key <= r.key) {
      const SkipListMap::Record& m = mem[mem_pos++];
      bool shadows = m.key == r.key;
      emit(m.key, m.value, m.tombstone);
      if (shadows) return;
    }
    emit(r.key, r.value, r.op == LogOp::kDelete);
  };
  // Positioning (index segment lookup or per-run fence search) stays
  // behind a call; the per-record merge runs here so `on_run_record`
  // inlines instead of paying a std::function dispatch per record.
  std::vector<SortedRun*> runs = RunsNewestFirst();
  std::vector<SortedRun::Cursor> cursors;
  Status s = index_ != nullptr
                 ? index_->PositionCursors(runs, lo, hi, &cursors)
                 : PositionRunsFallback(runs, lo, hi, &cursors);
  if (!s.ok()) return s;
  if (!cursors.empty()) {
    s = MergeCursorSources(&cursors, hi, on_run_record);
    if (!s.ok()) return s;
  }
  // Memtable entries beyond the last run record.
  for (; mem_pos < mem.size(); ++mem_pos) {
    emit(mem[mem_pos].key, mem[mem_pos].value, mem[mem_pos].tombstone);
  }
  counters().OnLogicalRead(hits * kEntrySize);
  return Status::OK();
}

Status LsmTree::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  if (entries.empty()) return Status::OK();
  std::vector<LogRecord> records;
  records.reserve(entries.size());
  for (const Entry& e : entries) {
    records.push_back(LogRecord{e.key, e.value, LogOp::kPut});
    live_keys_.insert(e.key);
  }
  approx_keys_.store(live_keys_.size(), std::memory_order_relaxed);
  // Place the run at the shallowest level whose target accommodates it.
  size_t level = 0;
  while (LevelTarget(level) < records.size()) ++level;
  counters().OnLogicalWrite(static_cast<uint64_t>(entries.size()) *
                            kEntrySize);
  return BuildRun(level, std::move(records));
}

Status LsmTree::Flush() { return FlushMemtable(); }

void LsmTree::ResetStats() {
  AccessMethod::ResetStats();
  mem_counters_.ResetTraffic();
}

LsmMemoryFootprint LsmTree::MemoryFootprint() const {
  LsmMemoryFootprint fp;
  fp.memtable_bytes = mem_counters_.snapshot().total_space();
  for (const auto& level : levels_) {
    for (const auto& run : level) {
      fp.run_page_bytes +=
          static_cast<uint64_t>(run->page_count()) * options_.block_size;
      fp.fence_bytes += run->fence_bytes();
      fp.filter_bytes += run->filter_bytes();
    }
  }
  if (index_ != nullptr) fp.index_bytes = index_->charged_bytes();
  return fp;
}

CounterSnapshot LsmTree::stats() const {
  CounterSnapshot snap = AccessMethod::stats();
  const CounterSnapshot& mem = mem_counters_.snapshot();
  // Merge the memtable's traffic and space into the device-side snapshot.
  snap.bytes_read_base += mem.bytes_read_base;
  snap.bytes_read_aux += mem.bytes_read_aux;
  snap.bytes_written_base += mem.bytes_written_base;
  snap.bytes_written_aux += mem.bytes_written_aux;
  uint64_t total_space = snap.total_space() + mem.total_space();
  // Live entries are the base data; everything else (stale versions,
  // tombstones, filters, fences, block slack, memtable towers) is overhead.
  uint64_t base = static_cast<uint64_t>(live_keys_.size()) * kEntrySize;
  base = std::min(base, total_space);
  snap.space_base = base;
  snap.space_aux = total_space - base;
  return snap;
}

}  // namespace rum
