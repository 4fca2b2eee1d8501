#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>


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
  return *this;
}

std::string ErrorTally::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "io=%llu corruption=%llu other=%llu degraded_skips=%llu",
                static_cast<unsigned long long>(io_errors),
                static_cast<unsigned long long>(corruption),
                static_cast<unsigned long long>(other),
                static_cast<unsigned long long>(degraded_skips));
  return std::string(buf);
}

LatencyHistogram& OpLatencies::For(OpKind kind) {
  switch (kind) {
    case OpKind::kScan:
      return scan;
    case OpKind::kInsert:
      return insert;
    case OpKind::kUpdate:
      return update;
    case OpKind::kDelete:
      return erase;
    case OpKind::kGet:
      break;
  }
  return point;
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

/// What one worker of a phase records, in private storage: the join (or,
/// for a serial phase, the return) is the edge under which it all merges.
struct WorkerLog {
  Status status = Status::OK();  ///< Non-OK when the phase must abort.
  ErrorTally errors;
  OpLatencies latency;
  std::vector<uint64_t> read_samples;
  std::vector<uint64_t> write_samples;
};

/// The closed-loop phase loop: runs `ops` operations from `gen` back to
/// back under the spec's error policy, sampling each op's cost from this
/// thread's traffic tally (two plain reads per op, no cross-thread probes
/// and no per-op method->stats() merge over shards).
void RunWorker(AccessMethod* method, const WorkloadSpec& spec, uint64_t ops,
               OpGenerator* gen, WorkerLog* log) {
  const ThreadIoTally& io = ThisThreadIo();
  uint64_t last_read = io.bytes_read;
  uint64_t last_written = io.bytes_written;
  log->read_samples.reserve(ops);
  log->write_samples.reserve(ops);

  DegradeGate gate(spec.error_mode);
  std::vector<Entry> scan_buffer;
  for (uint64_t i = 0; i < ops; ++i) {
    Op op = gen->Next();
    auto op_start = std::chrono::steady_clock::now();
    if (gate.Withholds(op.kind)) {
      ++log->errors.degraded_skips;
    } else {
      scan_buffer.clear();
      Status s = ExecuteOp(method, op, &scan_buffer);
      if (IsFailure(op.kind, s)) {
        if (spec.error_mode == ErrorMode::kAbort) {
          log->status = s;
          return;
        }
        log->errors.Count(s);
        gate.OnFailure();
      }
    }
    auto op_end = std::chrono::steady_clock::now();
    log->latency.For(op.kind).Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(op_end -
                                                             op_start)
            .count()));
    log->read_samples.push_back(io.bytes_read - last_read);
    log->write_samples.push_back(io.bytes_written - last_written);
    last_read = io.bytes_read;
    last_written = io.bytes_written;
  }
}

}  // namespace

Result<RumProfile> WorkloadRunner::Run(AccessMethod* method,
                                       const WorkloadSpec& spec) {
  if (Status s = ValidateSpec(spec, /*open_loop=*/false); !s.ok()) return s;
  // A serial phase is one worker on the calling thread with the spec's own
  // seed and no key filter. In a concurrent one, worker t owns partitions
  // {p : p % workers == t}, so each partition sees one thread's op order.
  const KeyPartitioned* parts = nullptr;
  uint32_t workers = 1;
  if (spec.concurrency > 1) {
    parts = dynamic_cast<const KeyPartitioned*>(method);
    if (parts == nullptr) {
      return Status::InvalidArgument(
          "concurrency > 1 requires a partition-aware method "
          "(e.g. sharded-*); " +
          std::string(method->name()) + " is not");
    }
    // More workers than partitions would leave some with nothing to own.
    workers = static_cast<uint32_t>(
        std::min<size_t>(spec.concurrency, parts->partitions()));
  }
  std::vector<OpGenerator> gens;
  gens.reserve(workers);
  for (uint32_t t = 0; t < workers; ++t) {
    if (parts == nullptr) {
      gens.emplace_back(spec, spec.seed);
    } else {
      gens.emplace_back(spec, SplitMix64(spec.seed ^ SplitMix64(t + 1)),
                        [parts, workers, t](Key key) {
                          return parts->PartitionOf(key) % workers == t;
                        });
    }
  }
  auto ops_of = [&](uint32_t t) {
    return spec.operations / workers +
           (t < spec.operations % workers ? 1 : 0);
  };

  CounterSnapshot before = method->stats();
  auto start = std::chrono::steady_clock::now();
  std::vector<WorkerLog> logs(workers);
  if (parts == nullptr) {
    RunWorker(method, spec, ops_of(0), &gens[0], &logs[0]);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (uint32_t t = 0; t < workers; ++t) {
      pool.emplace_back([&, t] {
        RunWorker(method, spec, ops_of(t), &gens[t], &logs[t]);
      });
    }
    for (std::thread& worker : pool) worker.join();
  }
  for (const WorkerLog& log : logs) {
    if (!log.status.ok()) return log.status;
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
  for (const WorkerLog& log : logs) {
    profile.latency.Merge(log.latency);
    all_reads.insert(all_reads.end(), log.read_samples.begin(),
                     log.read_samples.end());
    all_writes.insert(all_writes.end(), log.write_samples.begin(),
                      log.write_samples.end());
    if (spec.error_mode != ErrorMode::kAbort) {
      profile.worker_errors.push_back(log.errors);
    }
  }
  profile.read_cost = CostPercentiles::From(std::move(all_reads));
  profile.write_cost = CostPercentiles::From(std::move(all_writes));
  return profile;
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
