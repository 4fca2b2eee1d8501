// Concurrency sweep: threads x shards for sharded access methods, driven by
// the parallel WorkloadRunner. Reports wall-clock throughput plus the merged
// RUM amplifications, showing (a) the scaling curve of per-shard locking,
// (b) that the merged accounting stays on the same amplification floors as
// the serial runner, and (c) the cost of over-sharding a serial workload.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/memory_arbiter.h"
#include "bench/bench_util.h"
#include "core/access_method.h"
#include "core/memory_budget.h"
#include "core/metrics.h"
#include "methods/factory.h"
#include "methods/lsm/lsm_tree.h"
#include "service/open_loop.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "workload/runner.h"

namespace rum {
namespace {

using bench::Banner;
using bench::Fmt;
using bench::FmtU;
using bench::Table;

size_t g_preload = 50000;
uint64_t g_ops = 200000;
constexpr Key kRange = 1u << 18;

// One row of BENCH_concurrency.json: configuration, throughput, the merged
// RUM amplifications, and the merged per-op-class latency histograms
// (worker-local recording, merged after the join) for that run.
struct JsonRow {
  std::string method;
  uint32_t threads;
  size_t shards;
  double wall_ms;
  double mops_per_sec;
  double read_overhead;
  double update_overhead;
  double memory_overhead;
  uint64_t ops;
  std::string latency_json;
};

std::vector<JsonRow>& JsonRows() {
  static std::vector<JsonRow> rows;
  return rows;
}

// One row of the "saturation" JSON section: open-loop offered load through
// the request scheduler, with and without admission control (EXPERIMENTS.md
// A9). Latencies and goodput are virtual-time quantities, so these rows are
// exactly reproducible.
struct SatRow {
  std::string method;
  double load_factor;
  bool admission;
  double offered_ops_per_sec;
  double goodput_ops_per_sec;
  uint64_t p99_total_us;
  uint64_t completed;
  uint64_t shed;
  uint64_t deadline_missed;
  uint64_t max_queue_depth;
};

std::vector<SatRow>& SatRows() {
  static std::vector<SatRow> rows;
  return rows;
}

// One row of the "batching" JSON section: read-heavy open-loop overload
// through the scheduler, swept over the group-commit window size
// (EXPERIMENTS.md A11). Every drained read window dispatches as one
// MultiGet, so the window size is the scheduler-side batching knob: wider
// windows amortize dispatch overhead into higher effective capacity, and
// the batch-size histogram shows how big the MultiGets actually get under
// a saturated queue. Ledger conservation is asserted per row.
struct BatchRow {
  std::string method;
  size_t batch_max_ops;
  double offered_ops_per_sec;
  double goodput_ops_per_sec;
  uint64_t batches;
  uint64_t batched_reads;
  uint64_t coalesced_reads;
  uint64_t batch_p50;
  uint64_t batch_p99;
  uint64_t p99_total_us;
  bool ledger_ok;
};

std::vector<BatchRow>& BatchRows() {
  static std::vector<BatchRow> rows;
  return rows;
}

// One row of the "memory_pressure" JSON section: a static or arbitrated
// split of one global byte budget driven through the phase-shifting
// hot-read / write-burst workload (EXPERIMENTS.md A10). The score is bytes
// that reached the base device -- the traffic memory failed to absorb.
struct MemRow {
  std::string config;
  bool arbitrated;
  uint64_t budget_bytes;
  uint64_t base_traffic_bytes;
  uint64_t cache_bytes;
  uint64_t memtable_bytes;
  uint64_t filter_bytes;
  uint64_t replans;
};

std::vector<MemRow>& MemRows() {
  static std::vector<MemRow> rows;
  return rows;
}

void WriteJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  const std::vector<JsonRow>& rows = JsonRows();
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"method\": \"%s\", \"threads\": %u, \"shards\": %zu, "
        "\"wall_ms\": %.3f, \"mops_per_sec\": %.4f, \"RO\": %.4f, "
        "\"UO\": %.4f, \"MO\": %.4f, \"ops\": %llu, \"latency_ns\": %s}%s\n",
        r.method.c_str(), r.threads, r.shards, r.wall_ms, r.mops_per_sec,
        r.read_overhead, r.update_overhead, r.memory_overhead,
        static_cast<unsigned long long>(r.ops), r.latency_json.c_str(),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"memory_pressure\": [\n");
  const std::vector<MemRow>& mem = MemRows();
  for (size_t i = 0; i < mem.size(); ++i) {
    const MemRow& r = mem[i];
    std::fprintf(
        f,
        "    {\"config\": \"%s\", \"arbitrated\": %s, "
        "\"budget_bytes\": %llu, \"base_traffic_bytes\": %llu, "
        "\"cache_bytes\": %llu, \"memtable_bytes\": %llu, "
        "\"filter_bytes\": %llu, \"replans\": %llu}%s\n",
        r.config.c_str(), r.arbitrated ? "true" : "false",
        static_cast<unsigned long long>(r.budget_bytes),
        static_cast<unsigned long long>(r.base_traffic_bytes),
        static_cast<unsigned long long>(r.cache_bytes),
        static_cast<unsigned long long>(r.memtable_bytes),
        static_cast<unsigned long long>(r.filter_bytes),
        static_cast<unsigned long long>(r.replans),
        i + 1 < mem.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"saturation\": [\n");
  const std::vector<SatRow>& sat = SatRows();
  for (size_t i = 0; i < sat.size(); ++i) {
    const SatRow& r = sat[i];
    std::fprintf(
        f,
        "    {\"method\": \"%s\", \"load_factor\": %.2f, \"admission\": %s, "
        "\"offered_ops_per_sec\": %.0f, \"goodput_ops_per_sec\": %.0f, "
        "\"p99_total_us\": %llu, \"completed\": %llu, \"shed\": %llu, "
        "\"deadline_missed\": %llu, \"max_queue_depth\": %llu}%s\n",
        r.method.c_str(), r.load_factor, r.admission ? "true" : "false",
        r.offered_ops_per_sec, r.goodput_ops_per_sec,
        static_cast<unsigned long long>(r.p99_total_us),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.deadline_missed),
        static_cast<unsigned long long>(r.max_queue_depth),
        i + 1 < sat.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"batching\": [\n");
  const std::vector<BatchRow>& bat = BatchRows();
  for (size_t i = 0; i < bat.size(); ++i) {
    const BatchRow& r = bat[i];
    std::fprintf(
        f,
        "    {\"method\": \"%s\", \"batch_max_ops\": %zu, "
        "\"offered_ops_per_sec\": %.0f, \"goodput_ops_per_sec\": %.0f, "
        "\"batches\": %llu, \"batched_reads\": %llu, "
        "\"coalesced_reads\": %llu, \"batch_p50\": %llu, "
        "\"batch_p99\": %llu, \"p99_total_us\": %llu, "
        "\"ledger_ok\": %s}%s\n",
        r.method.c_str(), r.batch_max_ops, r.offered_ops_per_sec,
        r.goodput_ops_per_sec, static_cast<unsigned long long>(r.batches),
        static_cast<unsigned long long>(r.batched_reads),
        static_cast<unsigned long long>(r.coalesced_reads),
        static_cast<unsigned long long>(r.batch_p50),
        static_cast<unsigned long long>(r.batch_p99),
        static_cast<unsigned long long>(r.p99_total_us),
        r.ledger_ok ? "true" : "false", i + 1 < bat.size() ? "," : "");
  }
  // The registry runs enabled for the whole sweep, so this carries the
  // cross-run owned counters (e.g. sharded_method.stats_merges -- a handful
  // per run now that the runner samples costs without merging shard stats).
  std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n",
               MetricsRegistry::Global().ToJson().c_str());
  std::fclose(f);
  std::printf("\nwrote %zu rows to %s\n", rows.size(), path);
}

Options BenchOptions(size_t shards) {
  Options options;
  options.block_size = 4096;
  options.sharded.shards = shards;
  return options;
}

WorkloadSpec MixedSpec(uint32_t threads) {
  WorkloadSpec spec;
  spec.operations = g_ops;
  spec.key_range = kRange;
  spec.insert_fraction = 0.25;
  spec.update_fraction = 0.15;
  spec.delete_fraction = 0.10;
  spec.scan_fraction = 0;  // Keep runs comparable: scans fan out to all
                           // shards and serialize the sweep's upper rows.
  spec.seed = 42;
  spec.concurrency = threads;
  return spec;
}

void SweepMethod(const std::string& inner) {
  Banner(("threads x shards sweep: sharded-" + inner).c_str());
  Table table({"threads", "shards", "wall ms", "Mops/s", "speedup", "RO",
               "UO", "MO", "ops", "get p99 us"});
  double baseline_ms = 0;
  for (size_t shards : {1, 2, 4, 8}) {
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      auto method =
          MakeAccessMethod("sharded-" + inner, BenchOptions(shards));
      if (method == nullptr) {
        std::printf("  (unknown method sharded-%s)\n", inner.c_str());
        return;
      }
      WorkloadSpec spec = MixedSpec(threads);
      auto start = std::chrono::steady_clock::now();
      Result<RumProfile> profile =
          WorkloadRunner::LoadAndRun(method.get(), g_preload, spec);
      auto stop = std::chrono::steady_clock::now();
      if (!profile.ok()) {
        std::printf("  run failed: %s\n", profile.status().ToString().c_str());
        return;
      }
      double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (baseline_ms == 0) baseline_ms = ms;
      const CounterSnapshot& d = profile.value().delta;
      const OpLatencies& latency = profile.value().latency;
      JsonRows().push_back(JsonRow{
          "sharded-" + inner, threads, shards, ms,
          static_cast<double>(g_ops) / (ms * 1000.0),
          d.read_amplification(), d.write_amplification(),
          d.space_amplification(),
          d.inserts + d.updates + d.deletes + d.point_queries +
              d.range_queries,
          latency.ToJson()});
      table.AddRow({FmtU(threads), FmtU(shards), Fmt("%.1f", ms),
                    Fmt("%.2f", static_cast<double>(g_ops) / (ms * 1000.0)),
                    Fmt("%.2fx", baseline_ms / ms),
                    Fmt("%.2f", d.read_amplification()),
                    Fmt("%.2f", d.write_amplification()),
                    Fmt("%.2f", d.space_amplification()),
                    FmtU(d.inserts + d.updates + d.deletes + d.point_queries +
                         d.range_queries),
                    Fmt("%.1f", static_cast<double>(
                                    latency.point.Percentile(0.99)) /
                                    1000.0)});
    }
  }
  table.Print();
  std::printf(
      "\nNote: workers cap at the shard count (threads > shards rows repeat\n"
      "the capped configuration), and the runner keys each worker to its own\n"
      "partitions, so 'speedup' reflects per-shard locking, not oversubscription.\n");
}

// Scan-heavy "analytics" rows: half the operations are range scans
// (WorkloadSpec::ScanHeavy), the workload the cross-run sorted view
// targets. Scans fan out to every shard, so this sweep is deliberately
// small -- it shows scan throughput under per-shard locking and the cost
// of sharding a scan-bound workload, not a scaling curve.
void SweepAnalytics(const std::string& inner) {
  Banner(("analytics (scan-heavy) sweep: sharded-" + inner).c_str());
  Table table({"threads", "shards", "wall ms", "Mops/s", "RO", "UO", "MO",
               "ops", "scan p99 us"});
  // Scans touch ~260 records each at the default selectivity; fewer ops
  // keep the row's wall clock in line with the mixed sweeps.
  const uint64_t ops = g_ops / 10;
  for (size_t shards : {1, 4}) {
    for (uint32_t threads : {1u, 4u}) {
      auto method =
          MakeAccessMethod("sharded-" + inner, BenchOptions(shards));
      if (method == nullptr) {
        std::printf("  (unknown method sharded-%s)\n", inner.c_str());
        return;
      }
      WorkloadSpec spec = WorkloadSpec::ScanHeavy(ops, kRange);
      spec.seed = 42;
      spec.concurrency = threads;
      auto start = std::chrono::steady_clock::now();
      Result<RumProfile> profile =
          WorkloadRunner::LoadAndRun(method.get(), g_preload, spec);
      auto stop = std::chrono::steady_clock::now();
      if (!profile.ok()) {
        std::printf("  run failed: %s\n", profile.status().ToString().c_str());
        return;
      }
      double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      const CounterSnapshot& d = profile.value().delta;
      const OpLatencies& latency = profile.value().latency;
      JsonRows().push_back(JsonRow{
          "analytics/sharded-" + inner, threads, shards, ms,
          static_cast<double>(ops) / (ms * 1000.0),
          d.read_amplification(), d.write_amplification(),
          d.space_amplification(),
          d.inserts + d.updates + d.deletes + d.point_queries +
              d.range_queries,
          latency.ToJson()});
      table.AddRow(
          {FmtU(threads), FmtU(shards), Fmt("%.1f", ms),
           Fmt("%.2f", static_cast<double>(ops) / (ms * 1000.0)),
           Fmt("%.2f", d.read_amplification()),
           Fmt("%.2f", d.write_amplification()),
           Fmt("%.2f", d.space_amplification()),
           FmtU(d.inserts + d.updates + d.deletes + d.point_queries +
                d.range_queries),
           Fmt("%.1f",
               static_cast<double>(latency.scan.Percentile(0.99)) /
                   1000.0)});
    }
  }
  table.Print();
}

// ------------------------------------------------- Saturation sweep (A9)

Options SatOptions() {
  Options options;
  options.block_size = 4096;
  options.service.dispatch_overhead_us = 8;
  options.service.op_cost_us = 2;
  options.service.scan_cost_us = 16;
  options.service.slo_us = 20000;
  return options;
}

WorkloadSpec SatSpec(uint64_t ops, double offered) {
  WorkloadSpec spec;
  spec.operations = ops;
  spec.key_range = 1u << 12;
  spec.distribution = KeyDistribution::kZipfian;
  spec.insert_fraction = 0.1;
  spec.seed = 42;
  spec.error_mode = ErrorMode::kSkipAndCount;
  spec.arrival = ArrivalProcess::kPoisson;
  spec.offered_ops_per_sec = offered;
  return spec;
}

std::unique_ptr<AccessMethod> SatMethod(const std::string& inner) {
  // Built bare: RunOpenLoop constructs the scheduler under measurement.
  Options options;
  options.block_size = 4096;
  auto method = MakeAccessMethod(inner, options);
  if (method != nullptr) {
    for (Key k = 0; k < (1u << 12); ++k) {
      Status s = method->Insert(k, k * 2654435761u);
      if (!s.ok()) {
        std::printf("  prefill failed: %s\n", s.ToString().c_str());
        return nullptr;
      }
    }
  }
  return method;
}

// Offered load {0.5, 1, 2, 4}x measured capacity, admission on and off.
// The interesting quadrant is >= 2x with admission off: the queue grows
// without bound (bufferbloat) and goodput collapses even though every
// request eventually completes. Admission trades those completions for
// sheds and keeps the served tail inside the SLO.
void SweepSaturation(const std::string& inner) {
  Banner(("saturation sweep (A9): open-loop " + inner +
          " behind the request scheduler")
             .c_str());
  // Fixed op count even under --smoke: the sweep runs on the virtual
  // clock, so 40k requests cost milliseconds of wall time, and the >= 2x
  // rows need a long enough backlog for the bufferbloat tail to show.
  const uint64_t ops = 40000;

  // Measured capacity: overdrive an unbounded no-admission queue; the
  // server never idles, so completions per virtual second = service rate.
  double capacity = 0;
  {
    auto method = SatMethod(inner);
    if (method == nullptr) return;
    Options options = SatOptions();
    options.service.admission = false;
    options.service.queue_capacity = 1u << 20;
    options.service.slo_us = 0;
    Result<ServiceReport> r =
        RunOpenLoop(method.get(), SatSpec(ops, 50e6), options);
    if (!r.ok()) {
      std::printf("  capacity run failed: %s\n",
                  r.status().ToString().c_str());
      return;
    }
    const ServiceStats& s = r.value().stats;
    capacity = static_cast<double>(s.completed) * 1e6 /
               static_cast<double>(s.end_us);
  }
  std::printf("  measured capacity: %.0f ops/s (virtual)\n\n", capacity);

  Table table({"load", "admission", "offered/s", "goodput/s", "p99 us",
               "completed", "shed", "ddl miss", "max depth"});
  for (double factor : {0.5, 1.0, 2.0, 4.0}) {
    for (bool admission : {true, false}) {
      auto method = SatMethod(inner);
      if (method == nullptr) return;
      Options options = SatOptions();
      options.service.admission = admission;
      options.service.queue_capacity = admission ? 1024 : (1u << 20);
      options.service.deadline_us = 100000;
      Result<ServiceReport> r = RunOpenLoop(
          method.get(), SatSpec(ops, factor * capacity), options);
      if (!r.ok()) {
        std::printf("  run failed: %s\n", r.status().ToString().c_str());
        return;
      }
      const ServiceStats& s = r.value().stats;
      SatRows().push_back(SatRow{
          inner, factor, admission, factor * capacity,
          s.goodput_ops_per_sec(), s.total_us.Percentile(0.99), s.completed,
          s.shed, s.deadline_missed, s.max_queue_depth});
      table.AddRow({Fmt("%.1fx", factor), admission ? "on" : "off",
                    Fmt("%.0f", factor * capacity),
                    Fmt("%.0f", s.goodput_ops_per_sec()),
                    FmtU(s.total_us.Percentile(0.99)), FmtU(s.completed),
                    FmtU(s.shed), FmtU(s.deadline_missed),
                    FmtU(s.max_queue_depth)});
    }
  }
  table.Print();
  std::printf(
      "\nReading the table: below capacity the two admission rows match\n"
      "(nothing sheds). At and above capacity, 'off' rows let queue delay\n"
      "grow with the backlog -- p99 blows through the SLO and goodput\n"
      "(completions inside the SLO per virtual second) collapses -- while\n"
      "'on' rows shed the excess at the front door and keep the served\n"
      "tail flat.\n");
}

// ----------------------------------------- Batched-read saturation (A11)

// Fixed 2x overload, window size swept: every drained read window is one
// MultiGet, so batch_max_ops caps the per-dispatch batch. The dispatch
// overhead amortizes across the window (cost = overhead + ops * per_op),
// so wider windows raise effective capacity and goodput climbs back toward
// the offered load; the batch-size percentiles show saturation keeping the
// windows full. Request conservation must hold in every configuration.
void SweepBatching(const std::string& inner) {
  Banner(("batched-read saturation (A11): open-loop 2x overload on " + inner +
          ", group-commit window swept")
             .c_str());
  const uint64_t ops = 40000;

  // Capacity measured at window 1 (pure per-request dispatch), so every
  // row faces the same offered load and the win is attributable to the
  // window alone.
  double capacity = 0;
  {
    auto method = SatMethod(inner);
    if (method == nullptr) return;
    Options options = SatOptions();
    options.service.admission = false;
    options.service.queue_capacity = 1u << 20;
    options.service.slo_us = 0;
    options.service.batch_max_ops = 1;
    Result<ServiceReport> r =
        RunOpenLoop(method.get(), SatSpec(ops, 50e6), options);
    if (!r.ok()) {
      std::printf("  capacity run failed: %s\n",
                  r.status().ToString().c_str());
      return;
    }
    const ServiceStats& s = r.value().stats;
    capacity = static_cast<double>(s.completed) * 1e6 /
               static_cast<double>(s.end_us);
  }
  const double offered = 2.0 * capacity;
  std::printf("  window-1 capacity: %.0f ops/s (virtual); offered: %.0f\n\n",
              capacity, offered);

  Table table({"window", "goodput/s", "batched reads", "batch p50",
               "batch p99", "coalesced", "p99 us", "ledger"});
  for (size_t window : {1u, 4u, 16u, 64u}) {
    auto method = SatMethod(inner);
    if (method == nullptr) return;
    Options options = SatOptions();
    options.service.admission = true;
    options.service.queue_capacity = 1024;
    options.service.deadline_us = 100000;
    options.service.batch_max_ops = window;
    Result<ServiceReport> r =
        RunOpenLoop(method.get(), SatSpec(ops, offered), options);
    if (!r.ok()) {
      std::printf("  run failed: %s\n", r.status().ToString().c_str());
      return;
    }
    const ServiceStats& s = r.value().stats;
    const bool ledger_ok = s.LedgerHolds();
    BatchRows().push_back(BatchRow{
        inner, window, offered, s.goodput_ops_per_sec(), s.batches,
        s.batched_reads, s.coalesced_reads, s.batch_size.Percentile(0.5),
        s.batch_size.Percentile(0.99), s.total_us.Percentile(0.99),
        ledger_ok});
    table.AddRow({FmtU(window), Fmt("%.0f", s.goodput_ops_per_sec()),
                  FmtU(s.batched_reads), FmtU(s.batch_size.Percentile(0.5)),
                  FmtU(s.batch_size.Percentile(0.99)),
                  FmtU(s.coalesced_reads),
                  FmtU(s.total_us.Percentile(0.99)),
                  ledger_ok ? "ok" : "VIOLATED"});
    if (!ledger_ok) {
      std::printf("  LEDGER VIOLATION at window %zu\n", window);
    }
  }
  table.Print();
  std::printf(
      "\nReading the table: the same 2x overload hits every row; wider\n"
      "windows amortize the per-dispatch overhead into capacity, so\n"
      "goodput climbs and the queue drains in larger MultiGets (batch\n"
      "p50/p99 track the window). Conservation of requests holds\n"
      "regardless of how the windows slice the backlog.\n");
}

// ---------------------------------------------- Memory-pressure sweep (A10)

// The memory_arbiter_test acceptance case at bench scale: one global byte
// budget, three static splits vs the adaptive arbiter, scored on bytes of
// base-device traffic under a phase-shifting hot-read / write-burst
// workload. Serial and fully seeded: the rows are exactly reproducible.
void SweepMemoryPressure() {
  Banner(
      "memory-pressure sweep (A10): static splits vs the adaptive arbiter");
  constexpr size_t kBlock = 512;
  constexpr Key kLoad = 4000;
  constexpr Key kHot = 1500;
  constexpr int kReadsPerPhase = 8000;
  constexpr Key kWritesPerPhase = 4000;
  // Every configuration spends the same total: cache pages + memtable
  // entries (32 bytes each) + bloom seed (1 byte/entry at 8 bits/key).
  const uint64_t budget = 48 * kBlock + 768 * 32 + 8 * 768 / 8;

  struct Config {
    const char* name;
    size_t cache_pages;
    size_t memtable_entries;
    bool arbitrated;
  };
  const Config configs[] = {
      {"static/read-tilted", 80, 271, false},
      {"static/balanced", 48, 768, false},
      {"static/write-tilted", 16, 1264, false},
      {"arbitrated", 48, 768, true},
  };

  Table table({"config", "base traffic KiB", "cache B", "memtable B",
               "filter B", "replans"});
  for (const Config& c : configs) {
    MemoryArbiter arbiter({.budget_bytes = budget, .epoch_ops = 512});
    Options options;
    options.block_size = kBlock;
    options.lsm.memtable_entries = c.memtable_entries;
    options.lsm.size_ratio = 3;
    options.lsm.bloom_bits_per_key = 8;
    options.memory.enabled = c.arbitrated;
    options.memory.arbiter = c.arbitrated ? &arbiter : nullptr;

    RumCounters base_counters;
    BlockDevice base(kBlock, &base_counters);
    CachingDevice cache(&base, c.cache_pages,
                        c.arbitrated ? &arbiter : nullptr);
    LsmTree tree(options, &cache);

    Key next_key = kLoad;
    for (Key k = 0; k < kLoad; ++k) {
      (void)tree.Insert(k, k * 2654435761u);
    }
    for (int cycle = 0; cycle < 2; ++cycle) {
      for (int i = 0; i < kReadsPerPhase; ++i) {
        (void)tree.Get(static_cast<Key>(i) % kHot);
      }
      for (Key w = 0; w < kWritesPerPhase; ++w) {
        Key k = next_key++;
        (void)tree.Insert(k, k * 2654435761u);
      }
    }

    CounterSnapshot s = base_counters.snapshot();
    uint64_t traffic = s.bytes_read_base + s.bytes_read_aux +
                       s.bytes_written_base + s.bytes_written_aux;
    MemorySplit split = c.arbitrated ? arbiter.split() : MemorySplit{};
    MemRows().push_back(MemRow{c.name, c.arbitrated, budget, traffic,
                               split.cache_bytes, split.memtable_bytes,
                               split.filter_bytes, split.replans});
    table.AddRow({c.name, Fmt("%.1f", static_cast<double>(traffic) / 1024.0),
                  FmtU(split.cache_bytes), FmtU(split.memtable_bytes),
                  FmtU(split.filter_bytes), FmtU(split.replans)});
  }
  table.Print();
  std::printf(
      "\nReading the table: every row spends the same %llu-byte budget. The\n"
      "static splits each win one phase and lose the other; the arbitrated\n"
      "row re-splits at epoch boundaries (cache bytes up in read phases,\n"
      "memtable bytes up in write bursts) and posts the lowest base-device\n"
      "traffic overall.\n",
      static_cast<unsigned long long>(budget));
}

}  // namespace
}  // namespace rum

int main(int argc, char** argv) {
  // --smoke: a fast configuration for CI that still produces the full JSON
  // schema (fewer ops, same sweep shape). It writes its own file, so it
  // never replaces a committed full sweep.
  const char* out_path = "BENCH_concurrency.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      rum::g_preload = 2000;
      rum::g_ops = 5000;
      out_path = "BENCH_concurrency_smoke.json";
    }
  }
  // Metrics on for the whole sweep: callback gauges come and go with each
  // per-row stack; the owned counters accumulate and land in the JSON's
  // "metrics" section.
  rum::MetricsRegistry::Global().set_enabled(true);
  rum::bench::Banner(
      "Concurrency sweep: parallel runner over sharded methods "
      "(mixed read/write, zero-scan workload)");
  rum::SweepMethod("btree");
  rum::SweepMethod("hash");
  rum::SweepMethod("lsm-leveled");
  rum::SweepAnalytics("lsm-tiered");
  rum::SweepSaturation("skiplist");
  rum::SweepBatching("lsm-tiered");
  rum::SweepMemoryPressure();
  std::printf(
      "\nExpected shape: throughput climbs with threads until threads ==\n"
      "shards, then flattens; amplifications stay within noise of the\n"
      "1-thread row because the merged counters are exact regardless of\n"
      "interleaving.\n");
  rum::WriteJson(out_path);
  return 0;
}
