// Wall-clock microbenchmarks (google-benchmark) for every access method:
// point gets and inserts on a pre-loaded structure. The amplification
// benches are the reproduction targets; these numbers show the simulator's
// own throughput and the relative CPU cost of the structures.
//
// Set RUMLAB_BENCH_METRICS=1 to enable the metrics registry for the run and
// mirror its JSON export to BENCH_wallclock_metrics.json. It is off by
// default so the committed BENCH_wallclock.json baseline (and ci.sh's
// regression guard against it) measures the observability-disabled path.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/metrics.h"
#include "methods/factory.h"
#include "workload/distribution.h"

namespace rum {
namespace {

constexpr size_t kLoad = 20000;
// Load for the deep point-read shapes: a three-level B-tree whose leaf
// layer (~64 MB) far exceeds per-core cache, so every leaf bisect pays
// real memory latency -- the misses a batched descent can overlap.
constexpr size_t kDeepLoad = 4000000;
constexpr Key kRange = 1u << 16;

Options BenchOptions() {
  Options options;
  options.block_size = 4096;
  options.bitmap.key_domain = kRange;
  options.extremes.magic_array_domain = kRange;
  return options;
}

std::unique_ptr<AccessMethod> LoadedMethod(const std::string& name,
                                           size_t load) {
  std::unique_ptr<AccessMethod> method =
      MakeAccessMethod(name, BenchOptions());
  std::vector<Entry> entries = MakeSortedEntries(load, 0, 2);
  (void)method->BulkLoad(entries);
  (void)method->Flush();
  return method;
}

// The read-only point-lookup rows (Get/MultiGet families) share one
// loaded instance per shape: the per-item deltas across batch sizes then
// measure the execution model alone, not the allocator/page-layout luck
// of independently rebuilt multi-megabyte trees (which swings the deep
// shapes by ~10% run to run). Mutating benchmarks keep building fresh
// instances. Keys are the builder tag; benchmarks run serially.
AccessMethod* SharedReadMethod(const std::string& tag,
                               const std::function<
                                   std::unique_ptr<AccessMethod>()>& build) {
  static std::map<std::string, std::unique_ptr<AccessMethod>>* cache =
      new std::map<std::string, std::unique_ptr<AccessMethod>>();
  auto it = cache->find(tag);
  if (it == cache->end()) it = cache->emplace(tag, build()).first;
  return it->second.get();
}

// Attaches the RUM amplifications of the timed window to the benchmark's
// JSON record, so BENCH_wallclock.json carries (method, ops/sec, RO/UO/MO)
// in one machine-readable place.
void AttachRumCounters(benchmark::State& state, const CounterSnapshot& before,
                       const CounterSnapshot& after) {
  CounterSnapshot delta = after - before;
  state.counters["RO"] = delta.read_amplification();
  state.counters["UO"] = delta.write_amplification();
  state.counters["MO"] = after.space_amplification();
}

// When the registry is enabled (RUMLAB_BENCH_METRICS=1), accumulate timed
// iterations per benchmark family so the metrics sidecar carries run totals.
void CountIterations(const char* counter, const benchmark::State& state) {
  if (!MetricsRegistry::Global().enabled()) return;
  MetricsRegistry::Global().FindOrCreateCounter(counter)->Increment(
      static_cast<uint64_t>(state.iterations()));
}

void BM_Get(benchmark::State& state, const std::string& name, size_t load) {
  AccessMethod* method = SharedReadMethod(
      name + "/" + std::to_string(load),
      [&] { return LoadedMethod(name, load); });
  Rng rng(1);
  CounterSnapshot before = method->stats();
  for (auto _ : state) {
    Key k = rng.NextBelow(load) * 2;
    benchmark::DoNotOptimize(method->Get(k));
  }
  state.SetItemsProcessed(state.iterations());
  AttachRumCounters(state, before, method->stats());
  CountIterations("bench_wallclock.get_iterations", state);
}

void BM_Insert(benchmark::State& state, const std::string& name,
               size_t load) {
  std::unique_ptr<AccessMethod> method = LoadedMethod(name, load);
  Rng rng(2);
  CounterSnapshot before = method->stats();
  for (auto _ : state) {
    Key k = rng.NextBelow(load) * 2 + 1;
    benchmark::DoNotOptimize(method->Insert(k, 1));
  }
  state.SetItemsProcessed(state.iterations());
  AttachRumCounters(state, before, method->stats());
  CountIterations("bench_wallclock.insert_iterations", state);
}

// Batched point lookups: one MultiGet call per iteration over `batch`
// random keys (same key mix as BM_Get), with items = keys so the per-item
// time is directly comparable to the Get/ rows. The MultiGet64/* rows ride
// in ci.sh's release-stage geomean guard next to Get/*.
void BM_MultiGet(benchmark::State& state, const std::string& name,
                 size_t load, size_t batch) {
  AccessMethod* method = SharedReadMethod(
      name + "/" + std::to_string(load),
      [&] { return LoadedMethod(name, load); });
  // BM_Get's seed: at batch 1 this row replays Get's exact key sequence,
  // so the MultiGet1/Get delta is pure execution-model overhead.
  Rng rng(1);
  std::vector<Key> keys(batch);
  std::vector<std::optional<Value>> out;
  CounterSnapshot before = method->stats();
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) keys[i] = rng.NextBelow(load) * 2;
    benchmark::DoNotOptimize(method->MultiGet(keys, &out));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  AttachRumCounters(state, before, method->stats());
  CountIterations("bench_wallclock.multiget_iterations", state);
}

// `width` is the requested record count; loaded keys sit at stride 2, so
// the key window is width * 2.
void BM_Scan(benchmark::State& state, const std::string& name, size_t load,
             size_t width) {
  std::unique_ptr<AccessMethod> method = LoadedMethod(name, load);
  Rng rng(3);
  std::vector<Entry> out;
  CounterSnapshot before = method->stats();
  for (auto _ : state) {
    Key lo = rng.NextBelow(load) * 2;
    out.clear();
    benchmark::DoNotOptimize(method->Scan(lo, lo + width * 2, &out));
  }
  state.SetItemsProcessed(state.iterations());
  AttachRumCounters(state, before, method->stats());
  CountIterations("bench_wallclock.scan_iterations", state);
}

// Scan-heavy LSM shape: insert-loaded in shuffled order (BulkLoad would
// collapse to one run), so every resident run spans the key domain and a
// range scan pays every run -- the workload the cross-run index targets.
// The sorted-column row is the acceptance yardstick: the one-seek scan
// must hold within a small factor of the ideal sorted layout.
std::unique_ptr<AccessMethod> ScanHotMethod(const std::string& name,
                                            bool cross_run_index) {
  Options options = BenchOptions();
  options.lsm.memtable_entries = 512;
  options.lsm.cross_run_index = cross_run_index;
  // Scan-tuned granularity: at 4 KiB blocks fence groups are ~2 pages, so
  // the default 1024-entry segments leave as much in-segment advance as
  // the fence slack they replace. Finer segments buy the RO win with a
  // little extra auxiliary space (the trade the cost model prices).
  options.lsm.cross_run_segment_entries = 128;
  std::unique_ptr<AccessMethod> method = MakeAccessMethod(name, options);
  std::vector<Key> keys(kLoad);
  for (size_t i = 0; i < kLoad; ++i) keys[i] = static_cast<Key>(i) * 2;
  Rng rng(7);
  for (size_t i = kLoad; i-- > 1;) {
    std::swap(keys[i], keys[rng.NextBelow(i + 1)]);
  }
  for (Key k : keys) (void)method->Insert(k, k);
  (void)method->Flush();
  return method;
}

// Compressed ~9-run tiered shape (insert-loaded so every run spans the
// domain): the paper's Section-5 compression trade makes every point read
// pay a whole-page varint decode, so a batch that decodes each touched
// page once -- instead of once per key -- amortizes the dominant cost.
constexpr size_t kPackedLoad = 5000;
std::unique_ptr<AccessMethod> PackedTieredMethod() {
  Options options = BenchOptions();
  options.lsm.memtable_entries = 512;
  options.lsm.compress_runs = true;
  std::unique_ptr<AccessMethod> method =
      MakeAccessMethod("lsm-tiered", options);
  std::vector<Key> keys(kPackedLoad);
  for (size_t i = 0; i < kPackedLoad; ++i) keys[i] = static_cast<Key>(i) * 2;
  Rng rng(7);
  for (size_t i = kPackedLoad; i-- > 1;) {
    std::swap(keys[i], keys[rng.NextBelow(i + 1)]);
  }
  for (Key k : keys) (void)method->Insert(k, k);
  (void)method->Flush();
  return method;
}

void BM_GetPacked(benchmark::State& state) {
  AccessMethod* method =
      SharedReadMethod("packed", [] { return PackedTieredMethod(); });
  Rng rng(4);
  CounterSnapshot before = method->stats();
  for (auto _ : state) {
    Key k = rng.NextBelow(kPackedLoad) * 2;
    benchmark::DoNotOptimize(method->Get(k));
  }
  state.SetItemsProcessed(state.iterations());
  AttachRumCounters(state, before, method->stats());
  CountIterations("bench_wallclock.get_iterations", state);
}

void BM_MultiGetPacked(benchmark::State& state, size_t batch) {
  AccessMethod* method =
      SharedReadMethod("packed", [] { return PackedTieredMethod(); });
  Rng rng(4);
  std::vector<Key> keys(batch);
  std::vector<std::optional<Value>> out;
  CounterSnapshot before = method->stats();
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      keys[i] = rng.NextBelow(kPackedLoad) * 2;
    }
    benchmark::DoNotOptimize(method->MultiGet(keys, &out));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  AttachRumCounters(state, before, method->stats());
  CountIterations("bench_wallclock.multiget_iterations", state);
}

// Point reads over the many-run shape: each Get walks every resident run's
// bloom/bounds, so this is where batching has the most sharing to harvest.
void BM_GetHot(benchmark::State& state, const std::string& name) {
  AccessMethod* method = SharedReadMethod(
      "hot/" + name, [&] { return ScanHotMethod(name, true); });
  Rng rng(4);
  CounterSnapshot before = method->stats();
  for (auto _ : state) {
    Key k = rng.NextBelow(kLoad) * 2;
    benchmark::DoNotOptimize(method->Get(k));
  }
  state.SetItemsProcessed(state.iterations());
  AttachRumCounters(state, before, method->stats());
  CountIterations("bench_wallclock.get_iterations", state);
}

void BM_MultiGetHot(benchmark::State& state, const std::string& name,
                    size_t batch) {
  AccessMethod* method = SharedReadMethod(
      "hot/" + name, [&] { return ScanHotMethod(name, true); });
  Rng rng(4);
  std::vector<Key> keys(batch);
  std::vector<std::optional<Value>> out;
  CounterSnapshot before = method->stats();
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) keys[i] = rng.NextBelow(kLoad) * 2;
    benchmark::DoNotOptimize(method->MultiGet(keys, &out));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  AttachRumCounters(state, before, method->stats());
  CountIterations("bench_wallclock.multiget_iterations", state);
}

void BM_ScanHot(benchmark::State& state, const std::string& name,
                bool cross_run_index, size_t width) {
  std::unique_ptr<AccessMethod> method = ScanHotMethod(name, cross_run_index);
  Rng rng(3);
  std::vector<Entry> out;
  CounterSnapshot before = method->stats();
  for (auto _ : state) {
    Key lo = rng.NextBelow(kLoad) * 2;
    out.clear();
    benchmark::DoNotOptimize(method->Scan(lo, lo + width * 2, &out));
  }
  state.SetItemsProcessed(state.iterations());
  AttachRumCounters(state, before, method->stats());
  CountIterations("bench_wallclock.scan_iterations", state);
}

struct Registration {
  Registration() {
    // The linear-scan structures get a reduced load so a single iteration
    // stays in the microsecond range.
    const std::pair<const char*, size_t> configs[] = {
        {"btree", kLoad},          {"hash", kLoad},
        {"zonemap", kLoad},        {"lsm-leveled", kLoad},
        {"lsm-tiered", kLoad},     {"lsm-lazy", kLoad},
        {"lsm-hybrid", kLoad},     {"sorted-column", kLoad},
        {"skiplist", kLoad},       {"trie", kLoad},
        {"bitmap-delta", kLoad},   {"cracking", kLoad},
        {"stepped-merge", kLoad},  {"bloom-zones", kLoad},
        {"magic-array", kLoad},    {"unsorted-column", 2000},
        {"pure-log", 2000},        {"dense-array", 2000},
    };
    for (const auto& [name, load] : configs) {
      std::string n = name;
      benchmark::RegisterBenchmark(("Get/" + n).c_str(),
                                   [n, load = load](benchmark::State& s) {
                                     BM_Get(s, n, load);
                                   });
      benchmark::RegisterBenchmark(("Insert/" + n).c_str(),
                                   [n, load = load](benchmark::State& s) {
                                     BM_Insert(s, n, load);
                                   });
      const std::pair<const char*, size_t> widths[] = {
          {"Scan16/", 16}, {"Scan128/", 128}, {"Scan4K/", 4096}};
      for (const auto& [prefix, width] : widths) {
        benchmark::RegisterBenchmark(
            (prefix + n).c_str(),
            [n, load = load, width = width](benchmark::State& s) {
              BM_Scan(s, n, load, width);
            });
      }
    }
    // Scan-heavy multi-run rows: the cross-run index's target workload,
    // with its off-switch twin and the sorted ideal for scale.
    const std::tuple<const char*, const char*, bool> hot_configs[] = {
        {"ScanHot128/lsm-tiered", "lsm-tiered", true},
        {"ScanHot128/lsm-tiered-noindex", "lsm-tiered", false},
        {"ScanHot128/lsm-leveled", "lsm-leveled", true},
        {"ScanHot128/sorted-column", "sorted-column", true},
    };
    for (const auto& [label, method, index] : hot_configs) {
      std::string l = label, m = method;
      benchmark::RegisterBenchmark(
          l.c_str(), [m, index = index](benchmark::State& s) {
            BM_ScanHot(s, m, index, 128);
          });
    }
    // Batched point-lookup families: one MultiGet call per iteration,
    // per-item time comparable to the Get/ rows above.
    const char* mg_methods[] = {"btree",      "hash",          "lsm-leveled",
                                "lsm-tiered", "sorted-column", "skiplist"};
    const std::pair<const char*, size_t> batch_sizes[] = {{"MultiGet1/", 1},
                                                          {"MultiGet16/", 16},
                                                          {"MultiGet64/", 64},
                                                          {"MultiGet4K/",
                                                           4096}};
    for (const char* name : mg_methods) {
      std::string n = name;
      for (const auto& [prefix, batch] : batch_sizes) {
        benchmark::RegisterBenchmark(
            (prefix + n).c_str(), [n, batch = batch](benchmark::State& s) {
              BM_MultiGet(s, n, kLoad, batch);
            });
      }
    }
    // The many-run tiered shape (insert-loaded, every run resident): point
    // reads pay every run's filter, so the batch's shared probes and page
    // walks are the headline win -- the A11 acceptance compares these rows.
    benchmark::RegisterBenchmark("Get/lsm-tiered-hot",
                                 [](benchmark::State& s) {
                                   BM_GetHot(s, "lsm-tiered");
                                 });
    for (const auto& [prefix, batch] : batch_sizes) {
      benchmark::RegisterBenchmark(
          (std::string(prefix) + "lsm-tiered-hot").c_str(),
          [batch = batch](benchmark::State& s) {
            BM_MultiGetHot(s, "lsm-tiered", batch);
          });
    }
    // Batching acceptance rows (A11). The compressed ~9-run tiered shape
    // pays a whole-page decode per point read, which the batch amortizes
    // across every key landing on the page; the 200K-key B-tree is three
    // levels deep, so a sorted batch shares the whole upper-level descent
    // and pipelines its leaf probes.
    benchmark::RegisterBenchmark("Get/lsm-tiered-packed",
                                 [](benchmark::State& s) { BM_GetPacked(s); });
    benchmark::RegisterBenchmark("Get/btree-deep",
                                 [](benchmark::State& s) {
                                   BM_Get(s, "btree", kDeepLoad);
                                 });
    for (const auto& [prefix, batch] : batch_sizes) {
      benchmark::RegisterBenchmark(
          (std::string(prefix) + "lsm-tiered-packed").c_str(),
          [batch = batch](benchmark::State& s) {
            BM_MultiGetPacked(s, batch);
          });
      benchmark::RegisterBenchmark(
          (std::string(prefix) + "btree-deep").c_str(),
          [batch = batch](benchmark::State& s) {
            BM_MultiGet(s, "btree", kDeepLoad, batch);
          });
    }
  }
};
Registration registration;

}  // namespace
}  // namespace rum

// Custom main: an unfiltered run without its own --benchmark_out mirrors its
// results to BENCH_wallclock.json (google-benchmark's JSON schema, with the
// RO/UO/MO counters attached per benchmark) for machine consumption
// alongside the console table. A --benchmark_filter run never writes that
// default path, and neither does a --benchmark_list_tests run (which would
// truncate it): a partial run must not replace the full baseline. The JSON
// context names the compiler and rumlab's own build type; pass
// --benchmark_context=rumlab_commit=<sha> to name the commit too.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  bool partial = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg.rfind("--benchmark_out", 0) == 0) has_out = true;
    if (arg.rfind("--benchmark_filter", 0) == 0) partial = true;
    if (arg.rfind("--benchmark_list_tests", 0) == 0 &&
        arg != "--benchmark_list_tests=false" &&
        arg != "--benchmark_list_tests=0") {
      partial = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_wallclock.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out && !partial) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  benchmark::AddCustomContext("rumlab_compiler", RUMLAB_COMPILER);
  benchmark::AddCustomContext("rumlab_build_type", RUMLAB_BUILD_TYPE);
  const bool metrics = std::getenv("RUMLAB_BENCH_METRICS") != nullptr;
  if (metrics) rum::MetricsRegistry::Global().set_enabled(true);
  benchmark::RunSpecifiedBenchmarks();
  if (metrics) {
    const char* path = "BENCH_wallclock_metrics.json";
    std::FILE* f = std::fopen(path, "w");
    if (f != nullptr) {
      std::string json = rum::MetricsRegistry::Global().ToJson();
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
      std::printf("wrote metrics registry export to %s\n", path);
    }
  }
  benchmark::Shutdown();
  return 0;
}
