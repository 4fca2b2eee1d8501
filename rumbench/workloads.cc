#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <string>
#include <utility>

#include "methods/sharded/sharded_method.h"
#include "storage/fault.h"
#include "workload/distribution.h"

namespace rumbench {

using rum::Entry;
using rum::Key;
using rum::Status;
using rum::Value;

namespace {

/// SplitMix64 finalizer: seeds sub-streams and hashes result digests.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Digest of a Get that found nothing.
constexpr uint64_t kAbsent = 0x6A09E667F3BCC909ULL;

/// Sizes at --scale 1. One repetition's timed phase takes 2-4 s on the
/// host README.md describes, so a run fits several repetitions.
struct Shape {
  size_t keys;         ///< Keys loaded during set-up.
  size_t ops;          ///< Ops (requests) in one repetition's timed phase.
  size_t cache_pages;  ///< CachingDevice capacity at construction.
};

Shape ShapeOf(Workload w, double scale) {
  Shape s{};
  switch (w) {
    // 1M keys fill ~4.1K btree pages: the 8192-page cache holds them all.
    case Workload::kReadHot: s = {1000000, 2000000, 8192}; break;
    // ~4.5K data pages against a cache the 4 MiB arbiter budget keeps
    // well below that, so reads miss and dirty pages are written back.
    case Workload::kWriteMiss: s = {1000000, 1000000, 1024}; break;
    // Tiered runs of compressed pages, a few thousand pages in all.
    case Workload::kScanRuns: s = {500000, 100000, 16384}; break;
    // Four leveled shards of ~250K keys each, cached whole.
    case Workload::kServiceOpen: s = {1000000, 2000000, 16384}; break;
  }
  auto scaled = [&](size_t n, size_t floor) {
    return std::max(floor, static_cast<size_t>(static_cast<double>(n) * scale));
  };
  return Shape{scaled(s.keys, 1000), scaled(s.ops, 1000),
               scaled(s.cache_pages, 64)};
}

/// The write-miss memory budget split by the arbiter, at --scale 1.
constexpr uint64_t kArbiterBudget = uint64_t{4} << 20;
/// The open-loop arrival rate, in requests per virtual second: the hot
/// Zipfian shard queues and batches, but admission control never sheds
/// (at 0.9M its p99 queue delay is already 4x that at 0.8M; at 1.0M ~2%
/// of requests are shed).
constexpr double kOfferedOpsPerSec = 0.8e6;

// Salts that split --seed into independent streams.
constexpr uint64_t kOpSalt = 0x0F5EED01;
constexpr uint64_t kLoadSalt = 0x10AD5EED;
constexpr uint64_t kWarmSalt = 0x3A7A5EED;
constexpr uint64_t kArrivalSalt = 0xA221BA15;
constexpr uint64_t kFaultSalt = 0xFA017;

/// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>* v, rum::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBelow(i)]);
  }
}

/// `n` op kinds in the exact shares of `mix`, in seeded random order: every
/// seed runs the same number of ops of each kind, so counts such as flushes
/// do not drift with the seed.
std::vector<OpKind> Kinds(
    size_t n, std::initializer_list<std::pair<OpKind, double>> mix,
    rum::Rng* rng) {
  std::vector<OpKind> kinds;
  kinds.reserve(n);
  for (const auto& [kind, share] : mix) {
    size_t count = static_cast<size_t>(std::llround(share * n));
    kinds.insert(kinds.end(), std::min(count, n - kinds.size()), kind);
  }
  kinds.resize(n, std::prev(mix.end())->first);
  Shuffle(&kinds, rng);
  return kinds;
}

void Require(const Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "rumbench: %s failed: %s\n", what,
               s.ToString().c_str());
  std::exit(1);
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kReadHot, Workload::kWriteMiss,
                     Workload::kScanRuns, Workload::kServiceOpen}) {
    if (WorkloadName(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view WorkloadName(Workload w) {
  switch (w) {
    case Workload::kReadHot: return "read-hot";
    case Workload::kWriteMiss: return "write-miss";
    case Workload::kScanRuns: return "scan-runs";
    case Workload::kServiceOpen: return "service-open";
  }
  return "?";
}

uint64_t GetDigest(bool found, Value value) {
  return found ? Mix(value) : kAbsent;
}

uint64_t MultiGetDigest(const std::vector<std::optional<Value>>& values) {
  uint64_t h = values.size();
  for (const auto& v : values) {
    h = Mix(h ^ GetDigest(v.has_value(), v.value_or(0)));
  }
  return h;
}

uint64_t ScanDigest(const std::vector<Entry>& entries) {
  uint64_t h = Mix(entries.size());
  for (const Entry& e : entries) h = Mix(h ^ e.key) ^ e.value;
  return Mix(h);
}

// --------------------------------------------------------------------- Oracle

Oracle::Oracle(const OpStream& stream)
    : values_(stream.domain, 0), present_(stream.domain, 0) {
  for (const Entry& e : stream.load) {
    values_[e.key] = e.value;
    present_[e.key] = 1;
  }
}

bool Oracle::Get(Key key, Value* value) const {
  if (key >= present_.size() || present_[key] == 0) return false;
  *value = values_[key];
  return true;
}

uint64_t Oracle::Apply(const Op& op, const std::vector<Key>& batch_keys) {
  Value v = 0;
  switch (op.kind) {
    case OpKind::kGet: {
      bool found = Get(op.key, &v);
      return GetDigest(found, v);
    }
    case OpKind::kMultiGet: {
      std::vector<std::optional<Value>> out(kBatch);
      for (size_t i = 0; i < kBatch; ++i) {
        if (Get(batch_keys[op.key + i], &v)) out[i] = v;
      }
      return MultiGetDigest(out);
    }
    case OpKind::kScan: {
      std::vector<Entry> out;
      Key hi = std::min<Key>(op.value, present_.size() - 1);
      for (Key k = op.key; k <= hi; ++k) {
        if (present_[k] != 0) out.push_back(Entry{k, values_[k]});
      }
      return ScanDigest(out);
    }
    case OpKind::kInsert:
    case OpKind::kUpdate:
      values_[op.key] = op.value;
      present_[op.key] = 1;
      return 0;
    case OpKind::kDelete:
      present_[op.key] = 0;
      return 0;
  }
  return 0;
}

// ----------------------------------------------------------------- Op streams

OpStream MakeStream(Workload w, uint64_t seed, double scale) {
  Shape shape = ShapeOf(w, scale);
  const size_t n = shape.keys;
  OpStream st;
  rum::Rng rng(Mix(seed ^ kOpSalt));
  rum::Rng warm(Mix(seed ^ kWarmSalt));
  st.ops.reserve(shape.ops);
  st.warmup.resize(shape.ops / 10);

  switch (w) {
    case Workload::kReadHot: {
      // Dense keys [0, n); every read hits, every update overwrites.
      st.domain = n;
      st.load = rum::MakeSortedEntries(n, 0, 1);
      for (Key& k : st.warmup) k = warm.NextBelow(n);
      for (OpKind kind : Kinds(shape.ops,
                               {{OpKind::kGet, 0.90},
                                {OpKind::kMultiGet, 0.02},
                                {OpKind::kUpdate, 0.08}},
                               &rng)) {
        if (kind == OpKind::kMultiGet) {
          st.ops.push_back(Op{st.batch_keys.size(), 0, kind});
          for (size_t i = 0; i < kBatch; ++i) {
            st.batch_keys.push_back(rng.NextBelow(n));
          }
        } else {
          Key k = rng.NextBelow(n);
          st.ops.push_back(Op{k, kind == OpKind::kGet ? 0 : rng.Next(), kind});
        }
      }
      break;
    }
    case Workload::kWriteMiss: {
      // Even keys loaded; reads span [0, 2n) so half of them miss, inserts
      // add odd keys, updates and deletes land anywhere.
      st.domain = 2 * n;
      st.load = rum::MakeSortedEntries(n, 0, 2);
      for (Key& k : st.warmup) k = warm.NextBelow(2 * n);
      for (OpKind kind : Kinds(shape.ops,
                               {{OpKind::kGet, 0.50},
                                {OpKind::kInsert, 0.35},
                                {OpKind::kUpdate, 0.10},
                                {OpKind::kDelete, 0.05}},
                               &rng)) {
        Key k = kind == OpKind::kInsert ? 2 * rng.NextBelow(n) + 1
                                        : rng.NextBelow(2 * n);
        Value v = kind == OpKind::kInsert || kind == OpKind::kUpdate
                      ? rng.Next()
                      : 0;
        st.ops.push_back(Op{k, v, kind});
      }
      break;
    }
    case Workload::kScanRuns: {
      // Even keys inserted in shuffled order, so every run spans the key
      // domain; a scan of width 256 returns ~128 records.
      st.domain = 2 * n;
      st.bulk_load = false;
      st.load = rum::MakeSortedEntries(n, 0, 2);
      rum::Rng shuffle(Mix(seed ^ kLoadSalt));
      Shuffle(&st.load, &shuffle);
      for (Key& k : st.warmup) k = warm.NextBelow(2 * n);
      for (OpKind kind : Kinds(shape.ops,
                               {{OpKind::kScan, 0.60},
                                {OpKind::kGet, 0.30},
                                {OpKind::kInsert, 0.10}},
                               &rng)) {
        if (kind == OpKind::kInsert) {
          st.ops.push_back(Op{2 * rng.NextBelow(n) + 1, rng.Next(), kind});
        } else {
          Key k = rng.NextBelow(2 * n);
          st.ops.push_back(Op{k, kind == OpKind::kScan ? k + 255 : 0, kind});
        }
      }
      break;
    }
    case Workload::kServiceOpen: {
      // Zipfian(0.99) keys over [0, n): reads share hot keys, which is
      // what read coalescing and MultiGet batching feed on.
      st.domain = n;
      st.load = rum::MakeSortedEntries(n, 0, 1);
      rum::KeyGenerator keys(rum::KeyDistribution::kZipfian, n,
                             Mix(seed ^ kOpSalt), 0.99);
      rum::Rng arrivals(Mix(seed ^ kArrivalSalt));
      for (Key& k : st.warmup) k = warm.NextBelow(n);
      st.arrival_us.reserve(shape.ops);
      double t_us = 0;
      for (OpKind kind : Kinds(shape.ops,
                               {{OpKind::kGet, 0.90}, {OpKind::kUpdate, 0.10}},
                               &rng)) {
        double u = std::min(arrivals.NextDouble(), 0.9999999999);
        t_us += -std::log(1.0 - u) * 1e6 / kOfferedOpsPerSec;
        st.arrival_us.push_back(static_cast<uint64_t>(t_us));
        Key k = keys.Next();
        st.ops.push_back(Op{k, kind == OpKind::kGet ? 0 : rng.Next(), kind});
      }
      break;
    }
  }

  if (w != Workload::kServiceOpen) {
    // The scheduler decides the execution order of the open-loop stream,
    // so its oracle replays completions after the run instead.
    Oracle oracle(st);
    st.expected.reserve(st.ops.size());
    for (const Op& op : st.ops) {
      st.expected.push_back(oracle.Apply(op, st.batch_keys));
    }
  }
  return st;
}

// ---------------------------------------------------------------------- Stack

rum::CounterSnapshot Stack::Merged() const {
  rum::CounterSnapshot s = method->stats();
  s += cache->level_stats();
  s += block_counters.snapshot();
  s += retry_counters.snapshot();
  return s;
}

namespace {

/// On a traced stack, puts a TimedDevice in front of `rung`.
rum::Device* Into(Stack* st, rum::Device* rung,
                  std::unique_ptr<TimedDevice>* slot, BoundaryTimes* times) {
  if (!st->traced) return rung;
  *slot = std::make_unique<TimedDevice>(rung, times);
  return slot->get();
}

/// On a traced stack, puts a TimedMethod in front of `method`.
std::unique_ptr<rum::AccessMethod> Timed(
    const Stack& st, std::unique_ptr<rum::AccessMethod> method,
    BoundaryTimes* times) {
  if (!st.traced) return method;
  return std::make_unique<TimedMethod>(std::move(method), times);
}

}  // namespace

std::unique_ptr<Stack> BuildStack(Workload w, const OpStream& stream,
                                  uint64_t seed, double scale, bool traced) {
  auto st = std::make_unique<Stack>();
  st->traced = traced;
  const Shape shape = ShapeOf(w, scale);
  rum::Options options;
  rum::FaultPlan plan;
  rum::MemoryRegistrar* registrar = nullptr;
  if (w == Workload::kWriteMiss) {
    plan.seed = Mix(seed ^ kFaultSalt);
    plan.WithRate(rum::FaultOp::kRead, 1e-3).WithRate(rum::FaultOp::kPin, 1e-3);
    options.storage.retry.max_attempts = 4;
    rum::MemoryArbiter::Config config;
    config.budget_bytes = std::max<uint64_t>(
        uint64_t{256} << 10,
        static_cast<uint64_t>(static_cast<double>(kArbiterBudget) * scale));
    st->arbiter = std::make_unique<rum::MemoryArbiter>(config);
    options.memory.enabled = true;
    options.memory.arbiter = st->arbiter.get();
    registrar = st->arbiter.get();
  }

  st->block = std::make_unique<rum::BlockDevice>(options.block_size,
                                                 &st->block_counters);
  rum::Device* d = Into(st.get(), st->block.get(), &st->into_block,
                        &st->block_t);
  st->faulty = std::make_unique<rum::FaultyDevice>(d, plan);
  d = Into(st.get(), st->faulty.get(), &st->into_faulty, &st->faulty_t);
  st->retry = std::make_unique<rum::RetryingDevice>(d, options,
                                                    &st->retry_counters);
  d = Into(st.get(), st->retry.get(), &st->into_retry, &st->retry_t);
  st->cache = std::make_unique<rum::CachingDevice>(d, shape.cache_pages,
                                                   registrar);
  d = Into(st.get(), st->cache.get(), &st->into_cache, &st->cache_t);

  switch (w) {
    case Workload::kReadHot: {
      auto btree = std::make_unique<rum::BTree>(options, d);
      st->btree = btree.get();
      st->method = Timed(*st, std::move(btree), &st->method_t);
      break;
    }
    case Workload::kWriteMiss: {
      options.lsm.policy = rum::LsmPolicy::kLeveled;
      auto lsm = std::make_unique<rum::LsmTree>(options, d);
      st->lsms.push_back(lsm.get());
      st->method = Timed(*st, std::move(lsm), &st->method_t);
      break;
    }
    case Workload::kScanRuns: {
      options.lsm.policy = rum::LsmPolicy::kTiered;
      options.lsm.compress_runs = true;
      options.lsm.cross_run_index = true;
      options.lsm.cross_run_segment_entries = 128;
      options.lsm.memtable_entries = 512;
      auto lsm = std::make_unique<rum::LsmTree>(options, d);
      st->lsms.push_back(lsm.get());
      st->method = Timed(*st, std::move(lsm), &st->method_t);
      break;
    }
    case Workload::kServiceOpen: {
      options.lsm.policy = rum::LsmPolicy::kLeveled;
      options.service.slo_us = 5000;
      std::vector<std::unique_ptr<rum::AccessMethod>> shards;
      for (size_t i = 0; i < options.sharded.shards; ++i) {
        auto lsm = std::make_unique<rum::LsmTree>(options, d);
        st->lsms.push_back(lsm.get());
        shards.push_back(Timed(*st, std::move(lsm), &st->shard_t));
      }
      st->method = Timed(*st,
                         std::make_unique<rum::ShardedMethod>(
                             "sharded-lsm-leveled", std::move(shards)),
                         &st->method_t);
      st->scheduler =
          std::make_unique<rum::RequestScheduler>(st->method.get(), options);
      break;
    }
  }

  if (stream.bulk_load) {
    Require(st->method->BulkLoad(stream.load), "BulkLoad");
  } else {
    for (const Entry& e : stream.load) {
      Require(st->method->Insert(e.key, e.value), "load Insert");
    }
  }
  for (Key k : stream.warmup) {
    rum::Result<Value> r = st->method->Get(k);
    if (!r.ok() && !r.status().IsNotFound()) Require(r.status(), "warm-up Get");
  }
  return st;
}

}  // namespace rumbench
