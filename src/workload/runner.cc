#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "workload/distribution.h"

namespace rum {

CostPercentiles CostPercentiles::From(std::vector<uint64_t> samples) {
  CostPercentiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    size_t idx = static_cast<size_t>(q * static_cast<double>(samples.size()));
    if (idx >= samples.size()) idx = samples.size() - 1;
    return samples[idx];
  };
  out.p50 = at(0.50);
  out.p95 = at(0.95);
  out.p99 = at(0.99);
  out.max = samples.back();
  return out;
}

void ErrorTally::Count(const Status& s) {
  switch (s.code()) {
    case Code::kIOError:
      ++io_errors;
      break;
    case Code::kCorruption:
      ++corruption;
      break;
    case Code::kResourceExhausted:
      // Service-layer admission control refused the request before storage
      // was touched (a RequestScheduler shed).
      ++shed;
      break;
    default:
      ++other;
      break;
  }
}

ErrorTally& ErrorTally::operator+=(const ErrorTally& o) {
  io_errors += o.io_errors;
  corruption += o.corruption;
  other += o.other;
  degraded_skips += o.degraded_skips;
  shed += o.shed;
  return *this;
}

std::string ErrorTally::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "io=%llu corruption=%llu other=%llu degraded_skips=%llu "
                "shed=%llu",
                static_cast<unsigned long long>(io_errors),
                static_cast<unsigned long long>(corruption),
                static_cast<unsigned long long>(other),
                static_cast<unsigned long long>(degraded_skips),
                static_cast<unsigned long long>(shed));
  return std::string(buf);
}

void OpLatencies::Merge(const OpLatencies& o) {
  point.Merge(o.point);
  scan.Merge(o.scan);
  insert.Merge(o.insert);
  update.Merge(o.update);
  erase.Merge(o.erase);
}

LatencyHistogram OpLatencies::Total() const {
  LatencyHistogram all;
  all.Merge(point);
  all.Merge(scan);
  all.Merge(insert);
  all.Merge(update);
  all.Merge(erase);
  return all;
}

std::string OpLatencies::ToJson() const {
  std::string out = "{\"point\":" + point.ToJson();
  out += ",\"scan\":" + scan.ToJson();
  out += ",\"insert\":" + insert.ToJson();
  out += ",\"update\":" + update.ToJson();
  out += ",\"delete\":" + erase.ToJson();
  out += "}";
  return out;
}

ErrorTally RumProfile::errors() const {
  ErrorTally merged;
  for (const ErrorTally& t : worker_errors) merged += t;
  return merged;
}

double RumProfile::bytes_read_per_op() const {
  uint64_t ops = delta.point_queries + delta.range_queries + delta.inserts +
                 delta.updates + delta.deletes;
  return ops == 0 ? 0.0
                  : static_cast<double>(delta.total_bytes_read()) /
                        static_cast<double>(ops);
}

double RumProfile::bytes_written_per_op() const {
  uint64_t ops = delta.point_queries + delta.range_queries + delta.inserts +
                 delta.updates + delta.deletes;
  return ops == 0 ? 0.0
                  : static_cast<double>(delta.total_bytes_written()) /
                        static_cast<double>(ops);
}

std::string RumProfile::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%-16s RO=%8.2f UO=%8.2f MO=%8.3f  read/op=%10.1fB "
                "write/op=%10.1fB  (%.3fs)",
                method.c_str(), point.read_overhead, point.update_overhead,
                point.memory_overhead, bytes_read_per_op(),
                bytes_written_per_op(), wall_seconds);
  return std::string(buf);
}

namespace {

/// SplitMix64 finalizer, used to derive independent per-worker seed streams
/// from (spec.seed, worker index) without correlation between workers.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Key ScanWidthFor(const WorkloadSpec& spec) {
  Key width = static_cast<Key>(static_cast<double>(spec.key_range) *
                               spec.scan_selectivity);
  return width == 0 ? 1 : width;
}

/// Executes one operation of the spec's mix against `method`. `dice` picks
/// the operation, `key` its target. Tolerates the same benign statuses the
/// serial runner always has (kOutOfRange for bounded-domain methods,
/// kNotFound for point-query misses).
Status ExecuteOne(AccessMethod* method, const WorkloadSpec& spec, double dice,
                  Key key, Key scan_width, Rng* value_rng,
                  std::vector<Entry>* scan_buffer) {
  if (dice < spec.insert_fraction) {
    Status s = method->Insert(key, value_rng->Next());
    if (!s.ok() && s.code() != Code::kOutOfRange) return s;
  } else if (dice < spec.insert_fraction + spec.update_fraction) {
    Status s = method->Update(key, value_rng->Next());
    if (!s.ok() && s.code() != Code::kOutOfRange) return s;
  } else if (dice < spec.insert_fraction + spec.update_fraction +
                        spec.delete_fraction) {
    Status s = method->Delete(key);
    if (!s.ok() && s.code() != Code::kOutOfRange) return s;
  } else if (dice < spec.insert_fraction + spec.update_fraction +
                        spec.delete_fraction + spec.scan_fraction) {
    Key hi = key > kMaxKey - scan_width ? kMaxKey : key + scan_width;
    scan_buffer->clear();
    Status s = method->Scan(key, hi, scan_buffer);
    if (!s.ok()) return s;
  } else {
    Result<Value> r = method->Get(key);
    if (!r.ok() && r.code() != Code::kNotFound &&
        r.code() != Code::kOutOfRange) {
      return r.status();
    }
  }
  return Status::OK();
}

/// True when `dice` selects a mutation (insert/update/delete) in the mix.
bool IsMutation(const WorkloadSpec& spec, double dice) {
  return dice <
         spec.insert_fraction + spec.update_fraction + spec.delete_fraction;
}

/// The latency histogram for the op class `dice` selects -- the same
/// thresholds ExecuteOne uses to dispatch.
LatencyHistogram* ClassHistogram(OpLatencies* lat, const WorkloadSpec& spec,
                                 double dice) {
  if (dice < spec.insert_fraction) return &lat->insert;
  if (dice < spec.insert_fraction + spec.update_fraction) return &lat->update;
  if (dice < spec.insert_fraction + spec.update_fraction +
                 spec.delete_fraction) {
    return &lat->erase;
  }
  if (dice < spec.insert_fraction + spec.update_fraction +
                 spec.delete_fraction + spec.scan_fraction) {
    return &lat->scan;
  }
  return &lat->point;
}

/// ExecuteOne wrapped in the spec's error policy. Returns non-OK only when
/// the phase must abort; otherwise failures land in `tally` (and, under
/// kDegrade, flip `degraded`, after which mutations are withheld).
Status ExecuteOnePolicied(AccessMethod* method, const WorkloadSpec& spec,
                          double dice, Key key, Key scan_width,
                          Rng* value_rng, std::vector<Entry>* scan_buffer,
                          ErrorTally* tally, bool* degraded) {
  if (spec.error_mode == ErrorMode::kDegrade && *degraded &&
      IsMutation(spec, dice)) {
    ++tally->degraded_skips;
    return Status::OK();
  }
  Status s =
      ExecuteOne(method, spec, dice, key, scan_width, value_rng, scan_buffer);
  if (s.ok() || spec.error_mode == ErrorMode::kAbort) return s;
  tally->Count(s);
  // A service-layer shed (kResourceExhausted) is transient overload, not
  // structural damage: it never flips degraded service.
  if (spec.error_mode == ErrorMode::kDegrade &&
      s.code() != Code::kResourceExhausted) {
    *degraded = true;
  }
  return Status::OK();
}

/// The classic single-threaded phase, with per-op cost sampling.
Result<RumProfile> RunSerial(AccessMethod* method, const WorkloadSpec& spec) {
  KeyGenerator keys(spec.distribution, spec.key_range, spec.seed + 1,
                    spec.zipf_theta);
  Rng op_rng(spec.seed + 2);
  Rng value_rng(spec.seed + 3);

  CounterSnapshot before = method->stats();
  auto start = std::chrono::steady_clock::now();

  Key scan_width = ScanWidthFor(spec);

  std::vector<uint64_t> read_samples;
  std::vector<uint64_t> write_samples;
  read_samples.reserve(spec.operations);
  write_samples.reserve(spec.operations);
  // Sample per-op costs from the thread-local traffic tally: two plain
  // reads per op, independent of the method's shape. The old path called
  // method->stats() per op, which for ShardedMethod locks and merges every
  // shard -- O(shards) mutex acquisitions per operation (trace_test pins
  // the fixed behavior via the sharded_method.stats_merges metric).
  const ThreadIoTally& io = ThisThreadIo();
  uint64_t last_read = io.bytes_read;
  uint64_t last_written = io.bytes_written;

  OpLatencies latency;
  ErrorTally tally;
  bool degraded = false;
  std::vector<Entry> scan_buffer;
  for (uint64_t i = 0; i < spec.operations; ++i) {
    double dice = op_rng.NextDouble();
    Key key = keys.Next();
    auto op_start = std::chrono::steady_clock::now();
    Status s =
        ExecuteOnePolicied(method, spec, dice, key, scan_width, &value_rng,
                           &scan_buffer, &tally, &degraded);
    auto op_end = std::chrono::steady_clock::now();
    if (!s.ok()) return s;
    ClassHistogram(&latency, spec, dice)
        ->Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(op_end -
                                                                 op_start)
                .count()));
    read_samples.push_back(io.bytes_read - last_read);
    write_samples.push_back(io.bytes_written - last_written);
    last_read = io.bytes_read;
    last_written = io.bytes_written;
  }

  auto end = std::chrono::steady_clock::now();
  RumProfile profile;
  profile.method = std::string(method->name());
  profile.spec = spec;
  profile.delta = method->stats() - before;
  profile.point = RumPoint::FromSnapshot(profile.delta);
  profile.wall_seconds =
      std::chrono::duration<double>(end - start).count();
  profile.read_cost = CostPercentiles::From(std::move(read_samples));
  profile.write_cost = CostPercentiles::From(std::move(write_samples));
  profile.latency = latency;
  if (spec.error_mode != ErrorMode::kAbort) {
    profile.worker_errors.push_back(tally);
  }
  return profile;
}

/// One worker's slice of a concurrent phase. The worker owns partitions
/// {p : p % workers == t} and draws keys by rejection sampling until one
/// lands in an owned partition -- so each partition is driven by exactly
/// one thread in a deterministic order, which is what makes the merged
/// counter delta reproducible. (Scans still fan out to every partition;
/// with scan_fraction > 0 contents stay exact but physical read traffic
/// depends on interleaving.)
Status RunWorker(AccessMethod* method, const WorkloadSpec& spec,
                 const KeyPartitioned* parts, uint32_t workers, uint32_t t,
                 ErrorTally* tally, OpLatencies* latency,
                 std::vector<uint64_t>* read_samples,
                 std::vector<uint64_t>* write_samples) {
  uint64_t ops = spec.operations / workers +
                 (t < spec.operations % workers ? 1 : 0);
  uint64_t worker_seed = SplitMix64(spec.seed ^ SplitMix64(t + 1));
  KeyGenerator keys(spec.distribution, spec.key_range, worker_seed + 1,
                    spec.zipf_theta);
  Rng op_rng(worker_seed + 2);
  Rng value_rng(worker_seed + 3);
  Key scan_width = ScanWidthFor(spec);

  auto next_owned_key = [&]() {
    // With P >= workers partitions roughly workers draws land one in an
    // owned partition; the cap only guards against pathological hashes.
    for (int attempt = 0; attempt < 4096; ++attempt) {
      Key key = keys.Next();
      if (parts->PartitionOf(key) % workers == t) return key;
    }
    return keys.Next();
  };

  // This worker's thread-local tally: deltas capture exactly the bytes this
  // thread charged during the op, no cross-thread probes, no locks.
  const ThreadIoTally& io = ThisThreadIo();
  uint64_t last_read = io.bytes_read;
  uint64_t last_written = io.bytes_written;
  read_samples->reserve(ops);
  write_samples->reserve(ops);

  bool degraded = false;
  std::vector<Entry> scan_buffer;
  for (uint64_t i = 0; i < ops; ++i) {
    double dice = op_rng.NextDouble();
    Key key = next_owned_key();
    auto op_start = std::chrono::steady_clock::now();
    Status s = ExecuteOnePolicied(method, spec, dice, key, scan_width,
                                  &value_rng, &scan_buffer, tally, &degraded);
    auto op_end = std::chrono::steady_clock::now();
    if (!s.ok()) return s;
    ClassHistogram(latency, spec, dice)
        ->Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(op_end -
                                                                 op_start)
                .count()));
    read_samples->push_back(io.bytes_read - last_read);
    write_samples->push_back(io.bytes_written - last_written);
    last_read = io.bytes_read;
    last_written = io.bytes_written;
  }
  return Status::OK();
}

/// Concurrent phase: a worker pool over a partition-aware method. Each
/// worker samples per-op costs from its own thread-local tally and records
/// latencies into a private OpLatencies; the join is the happens-before
/// edge under which everything merges exactly.
Result<RumProfile> RunConcurrent(AccessMethod* method,
                                 const WorkloadSpec& spec) {
  const auto* parts = dynamic_cast<const KeyPartitioned*>(method);
  if (parts == nullptr) {
    return Status::InvalidArgument(
        "concurrency > 1 requires a partition-aware method "
        "(e.g. sharded-*); " +
        std::string(method->name()) + " is not");
  }
  uint32_t workers = spec.concurrency;
  if (parts->partitions() < workers) {
    // More workers than partitions would leave some with nothing to own.
    workers = static_cast<uint32_t>(parts->partitions());
  }

  CounterSnapshot before = method->stats();
  auto start = std::chrono::steady_clock::now();

  std::vector<Status> statuses(workers, Status::OK());
  std::vector<ErrorTally> tallies(workers);
  std::vector<OpLatencies> latencies(workers);
  std::vector<std::vector<uint64_t>> read_samples(workers);
  std::vector<std::vector<uint64_t>> write_samples(workers);
  {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (uint32_t t = 0; t < workers; ++t) {
      pool.emplace_back([method, &spec, parts, workers, t, &statuses,
                         &tallies, &latencies, &read_samples,
                         &write_samples] {
        statuses[t] =
            RunWorker(method, spec, parts, workers, t, &tallies[t],
                      &latencies[t], &read_samples[t], &write_samples[t]);
      });
    }
    for (std::thread& worker : pool) worker.join();
  }
  // The joins above are the happens-before edge that makes the merged
  // counter snapshot below exact.
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }

  auto end = std::chrono::steady_clock::now();
  RumProfile profile;
  profile.method = std::string(method->name());
  profile.spec = spec;
  profile.delta = method->stats() - before;
  profile.point = RumPoint::FromSnapshot(profile.delta);
  profile.wall_seconds =
      std::chrono::duration<double>(end - start).count();
  std::vector<uint64_t> all_reads;
  std::vector<uint64_t> all_writes;
  for (uint32_t t = 0; t < workers; ++t) {
    profile.latency.Merge(latencies[t]);
    all_reads.insert(all_reads.end(), read_samples[t].begin(),
                     read_samples[t].end());
    all_writes.insert(all_writes.end(), write_samples[t].begin(),
                      write_samples[t].end());
  }
  profile.read_cost = CostPercentiles::From(std::move(all_reads));
  profile.write_cost = CostPercentiles::From(std::move(all_writes));
  if (spec.error_mode != ErrorMode::kAbort) {
    profile.worker_errors = std::move(tallies);
  }
  return profile;
}

}  // namespace

Result<RumProfile> WorkloadRunner::Run(AccessMethod* method,
                                       const WorkloadSpec& spec) {
  if (spec.concurrency > 1) return RunConcurrent(method, spec);
  return RunSerial(method, spec);
}

Result<RumProfile> WorkloadRunner::Run(AccessMethod* method,
                                       const WorkloadSpec& spec,
                                       MemoryRegistrar* registrar) {
  Result<RumProfile> profile = Run(method, spec);
  if (profile.ok() && registrar != nullptr) {
    profile.value().memory_split = registrar->split();
  }
  return profile;
}

Result<RumProfile> WorkloadRunner::LoadAndRun(AccessMethod* method, size_t n,
                                              const WorkloadSpec& spec) {
  std::vector<Entry> entries = MakeSortedEntries(n);
  Status s = method->BulkLoad(entries);
  if (!s.ok()) return s;
  s = method->Flush();
  if (!s.ok()) return s;
  method->ResetStats();
  return Run(method, spec);
}

}  // namespace rum
