// rum_explorer: run a configurable workload against every access method
// and print the resulting RUM profiles side by side -- an interactive
// version of the paper's Figure 1.
//
// Usage: rum_explorer [mix] [n] [ops]
//   mix  one of: read-only, write-only, read-mostly, mixed, scan-heavy
//        (default: mixed)
//   n    entries to bulk-load (default 20000)
//   ops  operations to run (default 10000)
//
// Or:    rum_explorer trace [method] [n] [ops]
//   Runs one method (default "btree") on a BlockDevice -> FaultyDevice ->
//   CachingDevice chaos stack with tracing and the metrics registry on,
//   then prints the drained event stream's tail, per-kind event counts
//   cross-checked against the device counters, per-op-class latency
//   percentiles, and the metrics registry JSON.
//
// Or:    rum_explorer serve [method] [n] [ops] [offered_ops_per_sec]
//                           [poisson|bursty]
//   Replays an open-loop arrival process through the request scheduler
//   (src/service/): requests arrive on the virtual clock at the offered
//   rate regardless of completions, the admission controller sheds what
//   the method cannot absorb, and the run ends with the service report
//   JSON -- ledger, sheds, deadline misses, queue-delay and end-to-end
//   latency summaries, goodput, and the RUM delta.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

#include "core/metrics.h"
#include "core/trace.h"
#include "methods/factory.h"
#include "service/open_loop.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "storage/faulty_device.h"
#include "workload/runner.h"

namespace {

rum::WorkloadSpec SpecFor(const char* mix, uint64_t ops, rum::Key range) {
  using rum::WorkloadSpec;
  if (std::strcmp(mix, "read-only") == 0) {
    return WorkloadSpec::ReadOnly(ops, range);
  }
  if (std::strcmp(mix, "write-only") == 0) {
    return WorkloadSpec::WriteOnly(ops, range);
  }
  if (std::strcmp(mix, "read-mostly") == 0) {
    return WorkloadSpec::ReadMostly(ops, range);
  }
  if (std::strcmp(mix, "scan-heavy") == 0) {
    return WorkloadSpec::ScanHeavy(ops, range);
  }
  return WorkloadSpec::Mixed(ops, range);
}

void PrintHistogramRow(const char* label, const rum::LatencyHistogram& h) {
  if (h.count() == 0) return;
  std::printf("  %-8s %8llu ops   p50=%8lluns p95=%8lluns p99=%8lluns "
              "max=%8lluns\n",
              label, static_cast<unsigned long long>(h.count()),
              static_cast<unsigned long long>(h.Percentile(0.50)),
              static_cast<unsigned long long>(h.Percentile(0.95)),
              static_cast<unsigned long long>(h.Percentile(0.99)),
              static_cast<unsigned long long>(h.max()));
}

int RunTrace(int argc, char** argv) {
  using namespace rum;
  const char* name = argc > 2 ? argv[2] : "btree";
  size_t n = argc > 3 ? static_cast<size_t>(std::atoll(argv[3])) : 20000;
  uint64_t ops =
      argc > 4 ? static_cast<uint64_t>(std::atoll(argv[4])) : 10000;

  Options options;
  options.block_size = 4096;
  options.bitmap.key_domain = n;
  options.extremes.magic_array_domain = 4 * n;
  // Tracing and metrics must be on before the stack is built so the
  // devices' MetricsGroups register their gauges.
  Trace::Enable(size_t{1} << 14);
  MetricsRegistry::Global().set_enabled(true);

  RumCounters device_counters;
  BlockDevice base(options.block_size, &device_counters);
  FaultyDevice faulty(&base);
  CachingDevice cache(&faulty, /*capacity_pages=*/64);

  std::unique_ptr<AccessMethod> method =
      MakeAccessMethod(name, options, &cache);
  if (method == nullptr) {
    std::fprintf(stderr, "unknown method: %s\n", name);
    return 1;
  }

  WorkloadSpec spec = WorkloadSpec::Mixed(ops, n);
  spec.error_mode = ErrorMode::kSkipAndCount;

  // Load clean, then arm a modest all-class chaos plan for the phase.
  std::vector<Entry> entries = MakeSortedEntries(n);
  Status s = method->BulkLoad(entries);
  if (s.ok()) s = method->Flush();
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  method->ResetStats();
  faulty.SetPlan(FaultPlan::Transient(/*seed=*/0xC4A05ULL, /*rate=*/0.01));

  Result<RumProfile> profile = WorkloadRunner::Run(method.get(), spec);
  if (!profile.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 profile.status().ToString().c_str());
    return 1;
  }
  const RumProfile& p = profile.value();

  std::vector<TraceEvent> events = Trace::Drain();
  std::map<TraceKind, uint64_t> by_kind;
  for (const TraceEvent& e : events) ++by_kind[e.kind];

  std::printf("method: %s  ops: %llu  errors: %s\n", p.method.c_str(),
              static_cast<unsigned long long>(ops),
              p.errors().ToString().c_str());
  std::printf("\nevent counts (vs device counters):\n");
  for (const auto& [kind, count] : by_kind) {
    std::printf("  %-22s %8llu\n", std::string(TraceKindName(kind)).c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("  dropped (ring wrap)    %8llu\n",
              static_cast<unsigned long long>(Trace::dropped_events()));
  std::printf("  cache: hits=%llu misses=%llu evictions=%llu "
              "write_backs=%llu wb_failures=%llu\n",
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()),
              static_cast<unsigned long long>(cache.evictions()),
              static_cast<unsigned long long>(cache.write_backs()),
              static_cast<unsigned long long>(cache.write_back_failures()));
  std::printf("  faulty: injected=%llu torn=%llu\n",
              static_cast<unsigned long long>(faulty.faults_injected()),
              static_cast<unsigned long long>(faulty.torn_writes()));

  std::printf("\nlast events:\n");
  size_t tail = events.size() > 20 ? events.size() - 20 : 0;
  for (size_t i = tail; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::printf("  #%-8llu %-22s op=%-8s page=%-8u detail=%llu\n",
                static_cast<unsigned long long>(e.seq),
                std::string(TraceKindName(e.kind)).c_str(),
                std::string(TraceOpName(e.op)).c_str(),
                static_cast<unsigned>(e.page),
                static_cast<unsigned long long>(e.detail));
  }

  std::printf("\nper-op-class latency:\n");
  PrintHistogramRow("get", p.latency.point);
  PrintHistogramRow("scan", p.latency.scan);
  PrintHistogramRow("insert", p.latency.insert);
  PrintHistogramRow("update", p.latency.update);
  PrintHistogramRow("delete", p.latency.erase);

  std::printf("\nmetrics registry:\n%s\n",
              MetricsRegistry::Global().ToJson().c_str());
  return 0;
}

int RunServe(int argc, char** argv) {
  using namespace rum;
  const char* name = argc > 2 ? argv[2] : "btree";
  size_t n = argc > 3 ? static_cast<size_t>(std::atoll(argv[3])) : 20000;
  uint64_t ops =
      argc > 4 ? static_cast<uint64_t>(std::atoll(argv[4])) : 20000;
  double offered = argc > 5 ? std::atof(argv[5]) : 200000.0;
  bool bursty = argc > 6 && std::strcmp(argv[6], "bursty") == 0;

  Options options;
  options.block_size = 4096;
  options.bitmap.key_domain = n;
  options.extremes.magic_array_domain = 4 * n;

  // The method is built bare; RunOpenLoop owns the scheduler under test.
  std::unique_ptr<AccessMethod> method = MakeAccessMethod(name, options);
  if (method == nullptr) {
    std::fprintf(stderr, "unknown method: %s\n", name);
    return 1;
  }
  std::vector<Entry> entries = MakeSortedEntries(n);
  Status s = method->BulkLoad(entries);
  if (s.ok()) s = method->Flush();
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  method->ResetStats();

  Options serve_options = options;
  serve_options.service.slo_us = 20000;

  WorkloadSpec spec = WorkloadSpec::Mixed(ops, n);
  spec.error_mode = ErrorMode::kSkipAndCount;
  spec.arrival = bursty ? ArrivalProcess::kBursty : ArrivalProcess::kPoisson;
  spec.offered_ops_per_sec = offered;

  Result<ServiceReport> report = RunOpenLoop(method.get(), spec, serve_options);
  if (!report.ok()) {
    std::fprintf(stderr, "serve failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("workload: %s\n", spec.ToString().c_str());
  std::printf("method: %s  offered: %.0f ops/s (%s)  slo: %lluus\n", name,
              offered, bursty ? "bursty" : "poisson",
              static_cast<unsigned long long>(serve_options.service.slo_us));
  std::printf("%s\n", report.value().ToJson().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rum;
  if (argc > 1 && std::strcmp(argv[1], "trace") == 0) {
    return RunTrace(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return RunServe(argc, argv);
  }
  const char* mix = argc > 1 ? argv[1] : "mixed";
  size_t n = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 20000;
  uint64_t ops = argc > 3 ? static_cast<uint64_t>(std::atoll(argv[3]))
                          : 10000;

  Options options;
  options.block_size = 4096;
  options.bitmap.key_domain = n;
  options.extremes.magic_array_domain = 4 * n;

  WorkloadSpec spec = SpecFor(mix, ops, n);
  std::printf("workload: %s\n", spec.ToString().c_str());
  std::printf("%-16s %8s %8s %8s   %10s %10s %7s  %9s %9s\n", "method",
              "RO", "UO", "MO", "read/op", "write/op", "wall",
              "rd p50/p99", "");

  for (std::string_view name : AllAccessMethodNames()) {
    // The pure-scan structures take a reduced load to stay interactive.
    size_t load = n;
    WorkloadSpec run_spec = spec;
    if (name == "pure-log" || name == "dense-array" ||
        name == "unsorted-column") {
      load = std::min<size_t>(n, 4000);
      run_spec.operations = std::min<uint64_t>(ops, 3000);
      run_spec.key_range = load;
    }
    std::unique_ptr<AccessMethod> method = MakeAccessMethod(name, options);
    Result<RumProfile> profile =
        WorkloadRunner::LoadAndRun(method.get(), load, run_spec);
    if (!profile.ok()) {
      std::printf("%-16s failed: %s\n", std::string(name).c_str(),
                  profile.status().ToString().c_str());
      continue;
    }
    const RumProfile& p = profile.value();
    std::printf(
        "%-16s %8.1f %8.2f %8.3f   %9.0fB %9.0fB %6.3fs  %6lluB/%-7lluB "
        "%s\n",
        p.method.c_str(), p.point.read_overhead, p.point.update_overhead,
        p.point.memory_overhead, p.bytes_read_per_op(),
        p.bytes_written_per_op(), p.wall_seconds,
        static_cast<unsigned long long>(p.read_cost.p50),
        static_cast<unsigned long long>(p.read_cost.p99),
        std::string(RumRegionName(p.point.Classify())).c_str());
  }
  std::printf(
      "\nReading the table: RO/UO/MO are the paper's read, update, and\n"
      "memory overheads (1.0 = theoretical optimum). No row wins all\n"
      "three -- that is the RUM Conjecture.\n");
  return 0;
}
