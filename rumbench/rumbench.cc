// rumbench: end-to-end and per-layer benchmark of rumlab's full stack,
// BlockDevice -> FaultyDevice -> RetryingDevice -> CachingDevice -> method
// (-> ShardedMethod -> RequestScheduler).
//
//   rumbench --workload <read-hot|write-miss|scan-runs|service-open>
//            [--seed N] [--seconds S] [--trace 0|1] [--scale X]
//            [--json PATH] [--commit SHA]
//
// One run generates the workload's op stream from --seed, replays it on an
// oracle to fix every expected result, then repeats {build the stack, load,
// warm up; run the stream; check the results} until --seconds have passed
// (at least three times). Each repetition is single-threaded and
// deterministic, so every exact count must repeat across repetitions; the
// reported timings are medians over them. With --trace 1 repetitions
// alternate between the plain stack and one with TimedDevice/TimedMethod
// on every boundary, which gives the per-layer numbers and checks that the
// decorators change no count. Every metric is printed as
// "workload metric value unit"; --json writes them with the run context.
// Exits 1 when any result or count is wrong. See README.md.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "timed.h"
#include "workloads.h"

#ifndef RUMBENCH_BUILD_TYPE
#define RUMBENCH_BUILD_TYPE "unknown"
#endif

namespace rumbench {
namespace {

using rum::CounterSnapshot;
using rum::Key;
using rum::Value;

struct Args {
  Workload workload = Workload::kReadHot;
  uint64_t seed = 1;
  double seconds = 24;
  bool trace = false;
  double scale = 1.0;
  std::string json_path;
  std::string commit = "unknown";
};

void Usage() {
  std::fprintf(stderr,
               "usage: rumbench --workload <read-hot|write-miss|scan-runs|"
               "service-open> [--seed N] [--seconds S] [--trace 0|1] "
               "[--scale X] [--json PATH] [--commit SHA]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      std::optional<Workload> w = ParseWorkload(value);
      if (!w) return false;
      args->workload = *w;
      have_workload = true;
      continue;
    }
    if (flag == "--json") {
      args->json_path = value;
      continue;
    }
    if (flag == "--commit") {
      args->commit = value;
      continue;
    }
    if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strtoul(value, &end, 10) != 0;
    } else if (flag == "--scale") {
      args->scale = std::strtod(value, &end);
    } else {
      return false;
    }
    if (errno != 0 || end == value || *end != '\0') return false;
  }
  return have_workload && args->seconds >= 0 && args->scale > 0 &&
         args->scale <= 1;
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Exact nearest-rank percentile of raw samples (reorders `v`).
double Percentile(std::vector<uint32_t>* v, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v->begin(), v->begin() + idx, v->end());
  return (*v)[idx];
}

// ------------------------------------------------------------------ Metrics

/// Every metric, its unit, and where it comes from.
enum class Source {
  kTimed,  ///< Wall-clock, from plain repetitions.
  kLayer,  ///< Needs the timing decorators: from traced repetitions.
  kCount,  ///< Read from the layers' own accessors: every repetition.
};

struct MetricDef {
  const char* name;
  const char* unit;
  Source source;
};

constexpr MetricDef kMetrics[] = {
    // End to end.
    {"throughput_ops_s", "ops/s", Source::kTimed},
    {"get_p50_ns", "ns", Source::kTimed},
    {"get_p99_ns", "ns", Source::kTimed},
    {"get_p999_ns", "ns", Source::kTimed},
    {"multiget_p50_ns", "ns", Source::kTimed},
    {"multiget_p99_ns", "ns", Source::kTimed},
    {"multiget_p999_ns", "ns", Source::kTimed},
    {"scan_p50_ns", "ns", Source::kTimed},
    {"scan_p99_ns", "ns", Source::kTimed},
    {"scan_p999_ns", "ns", Source::kTimed},
    {"write_p50_ns", "ns", Source::kTimed},
    {"write_p99_ns", "ns", Source::kTimed},
    {"write_p999_ns", "ns", Source::kTimed},
    {"read_amp", "ratio", Source::kCount},
    {"write_amp", "ratio", Source::kCount},
    {"space_amp", "ratio", Source::kCount},
    {"error_rate", "ratio", Source::kCount},
    {"goodput_virtual_ops_s", "ops/s", Source::kCount},
    {"setup_s", "s", Source::kTimed},
    {"rss_mb", "MB", Source::kTimed},  // First repetition only (RunRep).
    // Per layer.
    {"caching_device.self_ns_per_call", "ns", Source::kLayer},
    {"caching_device.calls_per_op", "count", Source::kLayer},
    {"caching_device.hit_rate", "ratio", Source::kCount},
    {"caching_device.evictions_per_op", "count", Source::kCount},
    {"caching_device.write_backs_per_op", "count", Source::kCount},
    {"retry_device.self_ns_per_call", "ns", Source::kLayer},
    {"retry_device.calls_per_op", "count", Source::kLayer},
    {"retry_device.retries", "count", Source::kCount},
    {"retry_device.exhausted", "count", Source::kCount},
    {"faulty_device.self_ns_per_call", "ns", Source::kLayer},
    {"faulty_device.calls_per_op", "count", Source::kLayer},
    {"faulty_device.faults_injected", "count", Source::kCount},
    {"block_device.self_ns_per_call", "ns", Source::kLayer},
    {"block_device.blocks_read_per_op", "count", Source::kCount},
    {"block_device.blocks_written_per_op", "count", Source::kCount},
    {"btree.self_ns_per_get", "ns", Source::kLayer},
    {"btree.self_ns_per_multiget_key", "ns", Source::kLayer},
    {"btree.self_ns_per_update", "ns", Source::kLayer},
    {"btree.pins_per_get", "count", Source::kLayer},
    {"btree.batched_page_hits_per_multiget", "count", Source::kCount},
    {"lsm.self_ns_per_get", "ns", Source::kLayer},
    {"lsm.self_ns_per_write", "ns", Source::kLayer},
    {"lsm.self_ns_per_scan", "ns", Source::kLayer},
    {"lsm.pins_per_get", "count", Source::kLayer},
    {"lsm.pins_per_scan", "count", Source::kLayer},
    {"lsm.flushes", "count", Source::kCount},
    {"lsm.compactions", "count", Source::kCount},
    {"lsm.compaction_records_per_write", "count", Source::kCount},
    {"lsm.runs_end", "count", Source::kCount},
    {"lsm.bloom_false_positive_rate", "ratio", Source::kCount},
    {"sharded.self_ns_per_call", "ns", Source::kLayer},
    {"sharded.shard_calls_per_call", "count", Source::kLayer},
    {"scheduler.self_ns_per_request", "ns", Source::kLayer},
    {"scheduler.mean_read_batch", "count", Source::kCount},
    {"scheduler.coalesced_share", "ratio", Source::kCount},
    {"scheduler.shed_share", "ratio", Source::kCount},
    {"scheduler.queue_delay_p99_us", "us", Source::kCount},
    {"memory_arbiter.replans", "count", Source::kCount},
    {"memory_arbiter.cache_bytes_end", "bytes", Source::kCount},
    {"memory_arbiter.memtable_bytes_end", "bytes", Source::kCount},
    {"memory_arbiter.filter_bytes_end", "bytes", Source::kCount},
    {"trace.overhead_share", "ratio", Source::kLayer},
};

// --------------------------------------------------------------- Snapshots

/// Counters read from the layers' public accessors at one instant.
struct Snapshot {
  CounterSnapshot merged;
  CounterSnapshot block;
  CounterSnapshot retry;
  uint64_t hits = 0, misses = 0, evictions = 0, write_backs = 0;
  uint64_t faults = 0;
  uint64_t flushes = 0, compactions = 0, compaction_records = 0;
  uint64_t false_positives = 0, negatives = 0, runs = 0;
  uint64_t replans = 0;
  rum::MemorySplit split;
};

Snapshot Take(const Stack& st) {
  Snapshot s;
  s.merged = st.Merged();
  s.block = st.block_counters.snapshot();
  s.retry = st.retry_counters.snapshot();
  s.hits = st.cache->hits();
  s.misses = st.cache->misses();
  s.evictions = st.cache->evictions();
  s.write_backs = st.cache->write_backs();
  s.faults = st.faulty->faults_injected();
  for (const rum::LsmTree* lsm : st.lsms) {
    s.flushes += lsm->flushes();
    s.compactions += lsm->compactions();
    s.compaction_records += lsm->compaction_input_records();
    s.false_positives += lsm->filter_stats().false_positives.load();
    s.negatives += lsm->filter_stats().negatives.load();
    s.runs += lsm->total_runs();
  }
  if (st.arbiter != nullptr) {
    s.replans = st.arbiter->replans();
    s.split = st.arbiter->split();
  }
  return s;
}

// --------------------------------------------------------------- One rep

/// What one repetition produced.
struct Rep {
  bool traced = false;
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< Errors, sheds and deadline misses.
  uint64_t mismatches = 0;  ///< Results that disagree with the oracle.
  std::map<std::string, double> metrics;
  std::map<std::string, uint64_t> exact;  ///< Must repeat exactly.
  std::map<std::string, uint64_t> samples;
};

/// The harness's per-repetition buffers. They are sized and touched before
/// the RSS baseline, so rss_mb counts only what the stack grows by.
struct Buffers {
  explicit Buffers(const OpStream& stream) {
    size_t counts[6] = {};
    for (const Op& op : stream.ops) ++counts[static_cast<size_t>(op.kind)];
    multigets = counts[static_cast<size_t>(OpKind::kMultiGet)];
    writes = counts[static_cast<size_t>(OpKind::kInsert)] +
             counts[static_cast<size_t>(OpKind::kUpdate)] +
             counts[static_cast<size_t>(OpKind::kDelete)];
    get.assign(counts[static_cast<size_t>(OpKind::kGet)], 0);
    multiget.assign(multigets, 0);
    scan.assign(counts[static_cast<size_t>(OpKind::kScan)], 0);
    write.assign(writes, 0);
    results.assign(stream.ops.size(), 0);
    if (!stream.arrival_us.empty()) {
      submit_ns.assign(stream.ops.size(), 0);
      order.assign(stream.ops.size(), 0);
    }
  }

  uint64_t multigets = 0;
  uint64_t writes = 0;
  /// Raw latencies (ns) by user-visible op class.
  std::vector<uint32_t> get, multiget, scan, write;
  /// Result digest of every op (reads only; 0 for writes).
  std::vector<uint64_t> results;
  /// Open loop: when each request was submitted, and the indexes of the
  /// completed requests in completion order.
  std::vector<uint64_t> submit_ns;
  std::vector<uint32_t> order;
  size_t completed = 0;
};

uint32_t Clamp32(uint64_t ns) {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

/// Harness-side timing of the scheduler (traced open-loop reps only).
struct SchedulerTimes {
  uint64_t ns = 0, calls = 0;        ///< Submit and RunUntilIdle.
  uint64_t cb_ns = 0, cb_calls = 0;  ///< The harness's completion callback.
};

/// Runs the closed-loop stream, timing each op from outside the call.
void RunClosedLoop(Stack* st, const OpStream& stream, Buffers* buf,
                   Rep* rep) {
  rum::AccessMethod* m = st->method.get();
  std::vector<std::optional<Value>> values;
  std::vector<rum::Entry> entries;
  size_t gi = 0, mi = 0, si = 0, wi = 0;
  const std::vector<Op>& ops = stream.ops;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    uint64_t start = NowNs();
    switch (op.kind) {
      case OpKind::kGet: {
        rum::Result<Value> r = m->Get(op.key);
        buf->get[gi++] = Clamp32(NowNs() - start);
        if (r.ok()) {
          buf->results[i] = GetDigest(true, r.value());
        } else {
          buf->results[i] = GetDigest(false, 0);
          if (!r.status().IsNotFound()) ++rep->failed;
        }
        break;
      }
      case OpKind::kMultiGet: {
        std::span<const Key> keys(stream.batch_keys.data() + op.key, kBatch);
        rum::Status s = m->MultiGet(keys, &values);
        buf->multiget[mi++] = Clamp32(NowNs() - start);
        if (!s.ok()) ++rep->failed;
        buf->results[i] = MultiGetDigest(values);
        break;
      }
      case OpKind::kScan: {
        entries.clear();
        rum::Status s = m->Scan(op.key, op.value, &entries);
        buf->scan[si++] = Clamp32(NowNs() - start);
        if (!s.ok()) ++rep->failed;
        buf->results[i] = ScanDigest(entries);
        break;
      }
      case OpKind::kInsert:
      case OpKind::kUpdate:
      case OpKind::kDelete: {
        rum::Status s = op.kind == OpKind::kInsert ? m->Insert(op.key, op.value)
                        : op.kind == OpKind::kUpdate
                            ? m->Update(op.key, op.value)
                            : m->Delete(op.key);
        buf->write[wi++] = Clamp32(NowNs() - start);
        if (!s.ok()) ++rep->failed;
        break;
      }
    }
  }
}

/// Submits the open-loop stream to the scheduler. A request's latency is
/// wall time from its Submit to its completion callback.
void RunOpenLoop(Stack* st, const OpStream& stream, Buffers* buf,
                 SchedulerTimes* sched, Rep* rep) {
  size_t gi = 0, wi = 0;
  const bool traced = st->traced;
  st->scheduler->set_completion([&](const rum::Request& req,
                                    const rum::RequestResult& r) {
    uint64_t now = NowNs();
    if (r.outcome != rum::RequestOutcome::kCompleted || r.failed) {
      ++rep->failed;
    } else {
      uint32_t ns = Clamp32(now - buf->submit_ns[req.seq]);
      if (req.op == rum::RequestOp::kGet) {
        buf->get[gi++] = ns;
        buf->results[req.seq] = GetDigest(r.found, r.value);
      } else {
        buf->write[wi++] = ns;
      }
      buf->order[buf->completed++] = static_cast<uint32_t>(req.seq);
    }
    if (traced) {
      sched->cb_ns += NowNs() - now;
      ++sched->cb_calls;
    }
  });
  for (size_t i = 0; i < stream.ops.size(); ++i) {
    const Op& op = stream.ops[i];
    rum::Request req;
    req.op = op.kind == OpKind::kGet ? rum::RequestOp::kGet
                                     : rum::RequestOp::kUpdate;
    req.key = op.key;
    req.value = op.value;
    req.arrival_us = stream.arrival_us[i];
    uint64_t start = NowNs();
    buf->submit_ns[i] = start;
    st->scheduler->Submit(std::move(req));
    if (traced) {
      sched->ns += NowNs() - start;
      ++sched->calls;
    }
  }
  uint64_t start = NowNs();
  st->scheduler->RunUntilIdle();
  sched->ns += NowNs() - start;
  ++sched->calls;
  buf->get.resize(gi);
  buf->write.resize(wi);
}

/// Counts the results that disagree with the oracle. Closed-loop streams
/// carry their expected digests; open-loop completions are replayed on a
/// fresh oracle in completion order, the order the scheduler executed them.
uint64_t Mismatches(const OpStream& stream, const Buffers& buf) {
  uint64_t wrong = 0;
  if (stream.arrival_us.empty()) {
    for (size_t i = 0; i < stream.ops.size(); ++i) {
      wrong += buf.results[i] != stream.expected[i];
    }
    return wrong;
  }
  Oracle oracle(stream);
  for (size_t k = 0; k < buf.completed; ++k) {
    const Op& op = stream.ops[buf.order[k]];
    if (op.kind == OpKind::kGet) {
      Value v = 0;
      bool found = oracle.Get(op.key, &v);
      wrong += buf.results[buf.order[k]] != GetDigest(found, v);
    } else {
      oracle.Apply(op, stream.batch_keys);
    }
  }
  return wrong;
}

/// Adds the percentiles of `v` (if any) as `<name>_p50_ns` etc.
void AddLatency(Rep* rep, const char* name, std::vector<uint32_t>* v) {
  rep->samples[std::string(name)] = v->size();
  if (v->empty()) return;
  rep->metrics[std::string(name) + "_p50_ns"] = Percentile(v, 0.50);
  rep->metrics[std::string(name) + "_p99_ns"] = Percentile(v, 0.99);
  rep->metrics[std::string(name) + "_p999_ns"] = Percentile(v, 0.999);
}

void AddExact(Rep* rep, const Snapshot& before, const Snapshot& after,
              const Stack& st) {
  CounterSnapshot d = after.merged - before.merged;
  auto& e = rep->exact;
  e["rum.bytes_read_base"] = d.bytes_read_base;
  e["rum.bytes_read_aux"] = d.bytes_read_aux;
  e["rum.bytes_written_base"] = d.bytes_written_base;
  e["rum.bytes_written_aux"] = d.bytes_written_aux;
  e["rum.blocks_read"] = d.blocks_read;
  e["rum.blocks_written"] = d.blocks_written;
  e["rum.space_base"] = after.merged.space_base;
  e["rum.space_aux"] = after.merged.space_aux;
  e["rum.logical_bytes_read"] = d.logical_bytes_read;
  e["rum.logical_bytes_written"] = d.logical_bytes_written;
  e["rum.point_queries"] = d.point_queries;
  e["rum.range_queries"] = d.range_queries;
  e["rum.inserts"] = d.inserts;
  e["rum.updates"] = d.updates;
  e["rum.deletes"] = d.deletes;
  e["rum.batched_page_hits"] = d.batched_page_hits;
  e["rum.io_errors"] = d.io_errors;
  e["rum.retries"] = d.retries;
  e["cache.hits"] = after.hits - before.hits;
  e["cache.misses"] = after.misses - before.misses;
  e["cache.evictions"] = after.evictions - before.evictions;
  e["cache.write_backs"] = after.write_backs - before.write_backs;
  e["faulty.faults_injected"] = after.faults - before.faults;
  e["lsm.flushes"] = after.flushes - before.flushes;
  e["lsm.compactions"] = after.compactions - before.compactions;
  e["lsm.compaction_records"] =
      after.compaction_records - before.compaction_records;
  e["lsm.bloom_false_positives"] =
      after.false_positives - before.false_positives;
  e["lsm.bloom_negatives"] = after.negatives - before.negatives;
  e["lsm.runs_end"] = after.runs;
  e["arbiter.replans"] = after.replans - before.replans;
  e["arbiter.cache_bytes_end"] = after.split.cache_bytes;
  e["arbiter.memtable_bytes_end"] = after.split.memtable_bytes;
  e["arbiter.filter_bytes_end"] = after.split.filter_bytes;
  if (st.scheduler != nullptr) {
    const rum::ServiceStats& s = st.scheduler->stats();
    e["scheduler.submitted"] = s.submitted;
    e["scheduler.completed"] = s.completed;
    e["scheduler.failed"] = s.failed;
    e["scheduler.deadline_missed"] = s.deadline_missed;
    e["scheduler.shed"] = s.shed;
    e["scheduler.batches"] = s.batches;
    e["scheduler.coalesced_reads"] = s.coalesced_reads;
    e["scheduler.batched_reads"] = s.batched_reads;
    e["scheduler.completed_within_slo"] = s.completed_within_slo;
    e["scheduler.end_us"] = s.end_us;
    e["scheduler.queue_delay_p99_us"] = s.queue_delay_us.Percentile(0.99);
    e["scheduler.total_p99_us"] = s.total_us.Percentile(0.99);
    e["scheduler.ledger_holds"] = s.LedgerHolds() ? 1 : 0;
  }
}

/// Derives the count metrics of one rep from the exact values.
void AddCounts(Rep* rep, const Snapshot& before, const Snapshot& after,
               const Stack& st, uint64_t writes, uint64_t multigets) {
  const auto& e = rep->exact;
  auto& m = rep->metrics;
  const double ops = static_cast<double>(rep->attempted);
  CounterSnapshot d = after.merged - before.merged;
  m["read_amp"] = d.read_amplification();
  m["write_amp"] = d.write_amplification();
  m["space_amp"] = after.merged.space_amplification();
  m["error_rate"] = Ratio(rep->failed + rep->mismatches, ops);

  double hits = e.at("cache.hits"), misses = e.at("cache.misses");
  m["caching_device.hit_rate"] = Ratio(hits, hits + misses);
  m["caching_device.evictions_per_op"] = Ratio(e.at("cache.evictions"), ops);
  m["caching_device.write_backs_per_op"] =
      Ratio(e.at("cache.write_backs"), ops);
  CounterSnapshot retry = after.retry - before.retry;
  m["retry_device.retries"] = retry.retries;
  m["retry_device.exhausted"] = retry.io_errors - retry.retries;
  m["faulty_device.faults_injected"] = e.at("faulty.faults_injected");
  CounterSnapshot block = after.block - before.block;
  m["block_device.blocks_read_per_op"] = Ratio(block.blocks_read, ops);
  m["block_device.blocks_written_per_op"] = Ratio(block.blocks_written, ops);
  m["btree.batched_page_hits_per_multiget"] =
      st.btree != nullptr ? Ratio(d.batched_page_hits, multigets) : 0;
  m["lsm.flushes"] = e.at("lsm.flushes");
  m["lsm.compactions"] = e.at("lsm.compactions");
  m["lsm.compaction_records_per_write"] =
      Ratio(e.at("lsm.compaction_records"), writes);
  m["lsm.runs_end"] = e.at("lsm.runs_end");
  double fp = e.at("lsm.bloom_false_positives");
  m["lsm.bloom_false_positive_rate"] =
      Ratio(fp, fp + e.at("lsm.bloom_negatives"));
  m["memory_arbiter.replans"] = e.at("arbiter.replans");
  m["memory_arbiter.cache_bytes_end"] = e.at("arbiter.cache_bytes_end");
  m["memory_arbiter.memtable_bytes_end"] = e.at("arbiter.memtable_bytes_end");
  m["memory_arbiter.filter_bytes_end"] = e.at("arbiter.filter_bytes_end");
  double goodput = 0, mean_batch = 0, coalesced = 0, shed = 0, delay = 0;
  if (st.scheduler != nullptr) {
    const rum::ServiceStats& s = st.scheduler->stats();
    goodput = s.goodput_ops_per_sec();
    mean_batch = s.batch_size.mean();
    coalesced = Ratio(s.coalesced_reads, s.submitted);
    shed = Ratio(s.shed, s.submitted);
    delay = s.queue_delay_us.Percentile(0.99);
  }
  m["goodput_virtual_ops_s"] = goodput;
  m["scheduler.mean_read_batch"] = mean_batch;
  m["scheduler.coalesced_share"] = coalesced;
  m["scheduler.shed_share"] = shed;
  m["scheduler.queue_delay_p99_us"] = delay;
}

/// Per-layer self times and call counts of a traced rep. Each layer's self
/// time is its boundary's time minus the boundary below it (SelfNs).
void AddLayers(Rep* rep, const Stack& st, const SchedulerTimes& sched,
               const TimerCost& cost) {
  auto& m = rep->metrics;
  const double ops = static_cast<double>(rep->attempted);
  auto device = [&](const std::string& layer, const BoundaryTimes& own,
                    const BoundaryTimes& child) {
    double calls = own.total_calls();
    double self = SelfNs(own.total_ns(), calls, child.total_ns(),
                         child.total_calls(), cost);
    m[layer + ".self_ns_per_call"] = Ratio(self, calls);
    m[layer + ".calls_per_op"] = Ratio(calls, ops);
  };
  device("caching_device", st.cache_t, st.retry_t);
  device("retry_device", st.retry_t, st.faulty_t);
  device("faulty_device", st.faulty_t, st.block_t);
  // The bottom rung has no boundary below it; its traffic per op is the
  // blocks_*_per_op counts.
  m["block_device.self_ns_per_call"] =
      Ratio(SelfNs(st.block_t.total_ns(), st.block_t.total_calls(), 0, 0, cost),
            st.block_t.total_calls());

  // The method layer: the boundary into the btree or the LSM shards.
  const bool sharded = st.scheduler != nullptr;
  const BoundaryTimes& into = sharded ? st.shard_t : st.method_t;
  const BoundaryTimes& below = st.cache_t;
  auto self = [&](std::initializer_list<OpClass> classes) {
    double own_ns = 0, own_calls = 0, child_ns = 0, child_calls = 0;
    for (OpClass c : classes) {
      own_ns += into.ns_of(c);
      own_calls += into.calls_of(c);
      child_ns += below.ns_of(c);
      child_calls += below.calls_of(c);
    }
    return SelfNs(own_ns, own_calls, child_ns, child_calls, cost);
  };
  auto calls = [&](OpClass c) { return static_cast<double>(into.calls_of(c)); };
  auto pins = [&](OpClass c) {
    return static_cast<double>(below.read_pins[static_cast<size_t>(c)]);
  };
  const double mget_keys = into.keys[static_cast<size_t>(OpClass::kMultiGet)];
  const bool btree = st.btree != nullptr;
  m["btree.self_ns_per_get"] =
      btree ? Ratio(self({OpClass::kGet}), calls(OpClass::kGet)) : 0;
  m["btree.self_ns_per_multiget_key"] =
      btree ? Ratio(self({OpClass::kMultiGet}), mget_keys) : 0;
  m["btree.self_ns_per_update"] =
      btree ? Ratio(self({OpClass::kUpdate}), calls(OpClass::kUpdate)) : 0;
  m["btree.pins_per_get"] =
      btree ? Ratio(pins(OpClass::kGet), calls(OpClass::kGet)) : 0;
  // LSM point reads arrive as Gets or, behind the scheduler, as MultiGets;
  // "per get" is per point-read key either way.
  const bool lsm = !st.lsms.empty();
  const double point_keys = calls(OpClass::kGet) + mget_keys;
  const double writes = calls(OpClass::kInsert) + calls(OpClass::kUpdate) +
                        calls(OpClass::kDelete);
  m["lsm.self_ns_per_get"] =
      lsm ? Ratio(self({OpClass::kGet, OpClass::kMultiGet}), point_keys) : 0;
  m["lsm.self_ns_per_write"] =
      lsm ? Ratio(self({OpClass::kInsert, OpClass::kUpdate, OpClass::kDelete}),
                  writes)
          : 0;
  m["lsm.self_ns_per_scan"] =
      lsm ? Ratio(self({OpClass::kScan}), calls(OpClass::kScan)) : 0;
  m["lsm.pins_per_get"] =
      lsm ? Ratio(pins(OpClass::kGet) + pins(OpClass::kMultiGet), point_keys)
          : 0;
  m["lsm.pins_per_scan"] =
      lsm ? Ratio(pins(OpClass::kScan), calls(OpClass::kScan)) : 0;

  double sharded_self = 0, shard_calls = 0, sched_self = 0;
  if (sharded) {
    const BoundaryTimes& top = st.method_t;
    sharded_self = Ratio(SelfNs(top.total_ns(), top.total_calls(),
                                st.shard_t.total_ns(),
                                st.shard_t.total_calls(), cost),
                         top.total_calls());
    shard_calls = Ratio(st.shard_t.total_calls(), top.total_calls());
    sched_self = Ratio(
        SelfNs(sched.ns, sched.calls, top.total_ns() + sched.cb_ns,
               top.total_calls() + sched.cb_calls, cost),
        ops);
  }
  m["sharded.self_ns_per_call"] = sharded_self;
  m["sharded.shard_calls_per_call"] = shard_calls;
  m["scheduler.self_ns_per_request"] = sched_self;
}

/// VmRSS after freed heap pages go back to the kernel, so that a growth
/// measures live memory rather than what the allocator kept from earlier
/// frees.
double TrimmedRssMb() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  return RssMb();
}

/// One repetition: set-up, the timed phase, then the checks. Only the
/// first repetition measures rss_mb: later ones reuse pages earlier ones
/// freed, so their growth depends on allocator history.
Rep RunRep(const Args& args, const OpStream& stream, bool traced,
           bool measure_rss, const TimerCost& cost) {
  Rep rep;
  rep.traced = traced;
  rep.attempted = stream.ops.size();
  Buffers buf(stream);

  double rss0 = measure_rss ? TrimmedRssMb() : 0;
  uint64_t t0 = NowNs();
  std::unique_ptr<Stack> st =
      BuildStack(args.workload, stream, args.seed, args.scale, traced);
  rep.metrics["setup_s"] = static_cast<double>(NowNs() - t0) / 1e9;

  Snapshot before = Take(*st);
  for (BoundaryTimes* b : {&st->block_t, &st->faulty_t, &st->retry_t,
                           &st->cache_t, &st->method_t, &st->shard_t}) {
    b->Reset();
  }
  SchedulerTimes sched;
  uint64_t start = NowNs();
  if (st->scheduler != nullptr) {
    RunOpenLoop(st.get(), stream, &buf, &sched, &rep);
  } else {
    RunClosedLoop(st.get(), stream, &buf, &rep);
  }
  rep.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  Snapshot after = Take(*st);
  if (measure_rss) rep.metrics["rss_mb"] = TrimmedRssMb() - rss0;
  rep.metrics["throughput_ops_s"] = rep.attempted / rep.wall_s;

  rep.mismatches = Mismatches(stream, buf);
  AddLatency(&rep, "get", &buf.get);
  AddLatency(&rep, "multiget", &buf.multiget);
  AddLatency(&rep, "scan", &buf.scan);
  AddLatency(&rep, "write", &buf.write);
  AddExact(&rep, before, after, *st);
  uint64_t digest = 0;
  for (uint64_t r : buf.results) digest = digest * 0x100000001B3ULL ^ r;
  rep.exact["results.digest"] = digest;
  rep.exact["results.failed"] = rep.failed;
  rep.exact["results.mismatches"] = rep.mismatches;
  AddCounts(&rep, before, after, *st, buf.writes, buf.multigets);
  if (traced) AddLayers(&rep, *st, sched, cost);
  return rep;
}

/// Runs repetitions until --seconds would be exceeded (at least min_reps).
/// A traced run alternates plain and traced repetitions, so both see the
/// same host conditions.
std::vector<Rep> RunReps(const Args& args, const OpStream& stream,
                         const TimerCost& cost) {
  const size_t min_reps = args.trace ? 4 : 3;
  std::vector<Rep> reps;
  const uint64_t run_start = NowNs();
  double longest_s = 0;
  while (reps.size() < min_reps ||
         static_cast<double>(NowNs() - run_start) / 1e9 + longest_s <=
             args.seconds) {
    const uint64_t start = NowNs();
    const bool traced = args.trace && reps.size() % 2 == 1;
    reps.push_back(RunRep(args, stream, traced, reps.empty(), cost));
    longest_s =
        std::max(longest_s, static_cast<double>(NowNs() - start) / 1e9);
  }
  return reps;
}

/// The run's verdict: every result matches the oracle, no op failed, and
/// every exact count is identical in every repetition -- plain vs plain
/// (determinism) and plain vs traced (transparency).
bool Correct(const std::vector<Rep>& reps, const std::string& workload) {
  bool correct = true;
  const Rep& first = reps.front();
  for (const Rep& rep : reps) {
    for (const auto& [key, value] : rep.exact) {
      uint64_t expected = first.exact.at(key);
      if (value == expected) continue;
      correct = false;
      std::fprintf(stderr,
                   "rumbench: %s: %s differs between repetitions "
                   "(%s %llu vs plain %llu)\n",
                   workload.c_str(), key.c_str(),
                   rep.traced ? "traced" : "plain",
                   static_cast<unsigned long long>(value),
                   static_cast<unsigned long long>(expected));
    }
    if (rep.failed != 0 || rep.mismatches != 0) {
      correct = false;
      std::fprintf(stderr,
                   "rumbench: %s: %llu failed ops, %llu wrong results\n",
                   workload.c_str(),
                   static_cast<unsigned long long>(rep.failed),
                   static_cast<unsigned long long>(rep.mismatches));
    }
  }
  return correct;
}

/// Each metric's median over the repetitions it comes from.
std::map<std::string, double> Aggregate(const std::vector<Rep>& reps,
                                        bool trace) {
  std::map<std::string, double> metrics;
  for (const MetricDef& def : kMetrics) {
    std::vector<double> values;
    for (const Rep& rep : reps) {
      bool wanted = def.source == Source::kCount ||
                    (def.source == Source::kTimed && !rep.traced) ||
                    (def.source == Source::kLayer && rep.traced);
      auto it = rep.metrics.find(def.name);
      if (wanted && it != rep.metrics.end()) values.push_back(it->second);
    }
    if (!values.empty()) metrics[def.name] = Median(values);
  }
  if (trace) {
    std::vector<double> plain, traced;
    for (const Rep& rep : reps) {
      (rep.traced ? traced : plain).push_back(rep.wall_s / rep.attempted);
    }
    metrics["trace.overhead_share"] = Median(traced) / Median(plain) - 1;
  }
  return metrics;
}

// ------------------------------------------------------------------ Output

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  out += '"';
  return out;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Builds one JSON object, member by member.
class JsonObject {
 public:
  JsonObject& Raw(std::string_view key, std::string_view json) {
    if (text_.size() > 1) text_ += ',';
    text_ += Quote(key);
    text_ += ':';
    text_ += json;
    return *this;
  }
  JsonObject& Number(std::string_view key, double v) {
    return Raw(key, FormatNumber(v));
  }
  JsonObject& Int(std::string_view key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& String(std::string_view key, std::string_view s) {
    return Raw(key, Quote(s));
  }
  std::string Close() const { return text_ + "}"; }

 private:
  std::string text_ = "{";
};

std::string ResultJson(const Args& args, const std::string& workload,
                       const TimerCost& cost, const std::vector<Rep>& reps,
                       const std::map<std::string, double>& metrics,
                       bool correct) {
  JsonObject context;
  context.String("commit", args.commit)
      .String("compiler", std::string("gcc ") + __VERSION__)
      .String("build_type", RUMBENCH_BUILD_TYPE)
      .Int("nproc", std::thread::hardware_concurrency())
      .Int("seed", args.seed)
      .Number("scale", args.scale)
      .Number("seconds", args.seconds)
      .Number("timer_inner_ns", cost.inner_ns)
      .Number("timer_nested_ns", cost.nested_ns);
  JsonObject values;
  for (const MetricDef& def : kMetrics) {
    auto it = metrics.find(def.name);
    if (it == metrics.end()) continue;
    values.Raw(def.name, JsonObject()
                             .Number("value", it->second)
                             .String("unit", def.unit)
                             .Close());
  }
  JsonObject samples, exact;
  for (const auto& [name, n] : reps.front().samples) samples.Int(name, n);
  for (const auto& [name, v] : reps.front().exact) exact.Int(name, v);
  std::string per_rep = "[";
  uint64_t attempted = 0, failed = 0;
  for (const Rep& rep : reps) {
    attempted += rep.attempted;
    failed += rep.failed + rep.mismatches;
    JsonObject r;
    r.Raw("traced", rep.traced ? "true" : "false").Number("wall_s", rep.wall_s);
    for (const auto& [name, v] : rep.metrics) r.Number(name, v);
    if (per_rep.size() > 1) per_rep += ',';
    per_rep += r.Close();
  }
  per_rep += ']';
  return JsonObject()
      .Raw("context", context.Close())
      .String("workload", workload)
      .Int("trace", args.trace ? 1 : 0)
      .Int("reps", reps.size())
      .Raw("correct", correct ? "true" : "false")
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("metrics", values.Close())
      .Raw("samples", samples.Close())
      .Raw("exact", exact.Close())
      .Raw("per_rep", per_rep)
      .Close();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const std::string workload(WorkloadName(args.workload));
  const TimerCost cost = CalibrateTimers();
  const OpStream stream = MakeStream(args.workload, args.seed, args.scale);
  const std::vector<Rep> reps = RunReps(args, stream, cost);
  const bool correct = Correct(reps, workload);
  const std::map<std::string, double> metrics = Aggregate(reps, args.trace);

  for (const MetricDef& def : kMetrics) {
    auto it = metrics.find(def.name);
    if (it == metrics.end()) continue;
    std::printf("%s %s %.10g %s\n", workload.c_str(), def.name, it->second,
                def.unit);
  }
  for (const auto& [name, n] : reps.front().samples) {
    std::printf("%s %s_samples %llu count\n", workload.c_str(), name.c_str(),
                static_cast<unsigned long long>(n));
  }
  std::printf("%s reps %zu count\n", workload.c_str(), reps.size());

  if (!args.json_path.empty()) {
    std::string json =
        ResultJson(args, workload, cost, reps, metrics, correct) + "\n";
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    bool written = f != nullptr && std::fputs(json.c_str(), f) >= 0;
    if (f != nullptr && std::fclose(f) != 0) written = false;
    if (!written) {
      std::fprintf(stderr, "rumbench: cannot write %s\n",
                   args.json_path.c_str());
      return 1;
    }
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rumbench

int main(int argc, char** argv) { return rumbench::Main(argc, argv); }
