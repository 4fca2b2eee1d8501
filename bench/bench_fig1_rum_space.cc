// Experiment E3 -- the paper's Figure 1: popular data structures placed in
// the RUM design space.
//
// Every access method runs the same mixed, skewed workload; its measured
// (RO, UO, MO) is reported, and for the triangle rendering each axis is
// log-normalized across the population (the paper's figure is qualitative:
// what matters is who sits closer to which corner). Raw amplifications are
// printed alongside.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "methods/factory.h"
#include "workload/runner.h"

namespace rum {
namespace {

using bench::Banner;
using bench::Fmt;
using bench::Table;

struct Placement {
  std::string name;
  RumPoint point;
  double x = 0, y = 0;  // Population-normalized triangle coordinates.
};

// Converts each overhead into a population-relative efficiency in [0,1]
// (log scale; the best method on an axis scores 1) and projects the
// normalized efficiencies barycentrically onto the triangle.
void NormalizePlacements(std::vector<Placement>* placements) {
  auto axis = [&](auto getter) {
    double lo = 1e300, hi = -1e300;
    for (const Placement& p : *placements) {
      double v = std::log(std::max(1.0, getter(p.point)));
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    std::vector<double> eff;
    for (const Placement& p : *placements) {
      double v = std::log(std::max(1.0, getter(p.point)));
      eff.push_back(hi == lo ? 1.0 : 1.0 - (v - lo) / (hi - lo));
    }
    return eff;
  };
  std::vector<double> er = axis([](const RumPoint& p) { return p.read_overhead; });
  std::vector<double> eu = axis([](const RumPoint& p) { return p.update_overhead; });
  std::vector<double> em = axis([](const RumPoint& p) { return p.memory_overhead; });
  for (size_t i = 0; i < placements->size(); ++i) {
    double r = er[i] + 0.05, u = eu[i] + 0.05, m = em[i] + 0.05;
    double sum = r + u + m;
    // Corners: read (0.5, 1), write (0, 0), space (1, 0).
    (*placements)[i].x = (r * 0.5 + m * 1.0) / sum;
    (*placements)[i].y = r / sum;
  }
}

void PrintTriangle(const std::vector<Placement>& placements) {
  const int kW = 65;
  const int kH = 21;
  std::vector<std::string> canvas(kH, std::string(kW, ' '));
  auto plot = [&](double x, double y, char mark) {
    int col = static_cast<int>(x * (kW - 1) + 0.5);
    int row = static_cast<int>((1.0 - y) * (kH - 1) + 0.5);
    row = std::clamp(row, 0, kH - 1);
    col = std::clamp(col, 0, kW - 1);
    canvas[row][col] = mark;
  };
  for (int i = 0; i <= 40; ++i) {
    double t = i / 40.0;
    plot(0.5 * t, 1.0 * t, '.');
    plot(1.0 - 0.5 * t, 1.0 * t, '.');
    plot(t, 0.0, '.');
  }
  char mark = 'A';
  std::printf("  key:\n");
  for (const Placement& p : placements) {
    plot(p.x, p.y, mark);
    std::printf("   %c = %s\n", mark, p.name.c_str());
    ++mark;
  }
  std::printf("\n        READ optimized (top)\n");
  for (const std::string& line : canvas) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("  WRITE optimized              SPACE optimized\n");
}

void RunPopulation(const char* title, const WorkloadSpec& base_spec) {
  using namespace rum;
  bench::Banner(title);
  Options options;
  options.block_size = 4096;
  options.lsm.memtable_entries = 4096;
  options.zonemap.zone_entries = 4096;
  options.bitmap.key_domain = 1u << 16;
  // A key domain much larger than N, so the direct-address structure's
  // unbounded MO is visible (Prop 1).
  options.extremes.magic_array_domain = 1u << 20;

  bench::Table table({"method", "RO", "UO", "MO", "x", "y", "abs region"});
  std::vector<Placement> placements;
  for (std::string_view name : AllAccessMethodNames()) {
    std::unique_ptr<AccessMethod> method = MakeAccessMethod(name, options);
    // The scan-everything structures (and the cascade-per-insert sorted
    // columns) use a reduced load so the bench stays fast; their relative
    // placement is unaffected.
    WorkloadSpec spec = base_spec;
    size_t load = 30000;
    if (name == "pure-log" || name == "dense-array" ||
        name == "unsorted-column" || name == "bloom-zones") {
      load = 4000;
      spec.operations = std::min<uint64_t>(spec.operations, 3000);
    }
    if (name == "sorted-column" || name == "sparse-index") {
      load = 10000;
      spec.operations = std::min<uint64_t>(spec.operations, 6000);
    }
    spec.key_range = load;
    Result<RumProfile> profile =
        WorkloadRunner::LoadAndRun(method.get(), load, spec);
    if (!profile.ok()) {
      std::printf("%s failed: %s\n", std::string(name).c_str(),
                  profile.status().ToString().c_str());
      continue;
    }
    placements.push_back(Placement{std::string(name), profile.value().point});
  }
  NormalizePlacements(&placements);
  for (const Placement& p : placements) {
    table.AddRow({p.name, bench::Fmt("%.2f", p.point.read_overhead),
                  bench::Fmt("%.2f", p.point.update_overhead),
                  bench::Fmt("%.3f", p.point.memory_overhead),
                  bench::Fmt("%.3f", p.x), bench::Fmt("%.3f", p.y),
                  std::string(RumRegionName(p.point.Classify()))});
  }
  table.Print();
  std::printf("\n");
  PrintTriangle(placements);
}

}  // namespace
}  // namespace rum

int main() {
  using namespace rum;
  bench::Banner(
      "E3: Figure 1 of the paper -- access methods in the RUM space");

  // Uniform keys (so no method hides behind its write buffer) and a read
  // mix of point and range queries, the blend Figure 1 implies.
  WorkloadSpec balanced;
  balanced.operations = 20000;
  balanced.insert_fraction = 0.20;
  balanced.update_fraction = 0.10;
  balanced.delete_fraction = 0.05;
  balanced.scan_fraction = 0.15;
  balanced.scan_selectivity = 0.002;
  RunPopulation("Population under a balanced mixed workload", balanced);

  // The paper stresses that a structure's RUM behaviour depends on the
  // workload: re-measure the same population under heavy ingest.
  WorkloadSpec write_heavy;
  write_heavy.operations = 20000;
  write_heavy.insert_fraction = 0.70;
  write_heavy.update_fraction = 0.15;
  write_heavy.delete_fraction = 0.05;
  write_heavy.scan_fraction = 0.02;
  write_heavy.scan_selectivity = 0.002;
  RunPopulation("Same population under a write-heavy workload", write_heavy);

  std::printf(
      "\nExpected shape (paper Fig. 1): trees/hash/skiplist/trie toward the\n"
      "read corner; LSM/stepped-merge/pbt/pure-log toward the write corner;\n"
      "zonemap/sparse-index/imprints/bitmap/bloom-zones/dense-array toward\n"
      "the space corner; cracking and hot-cold in the adaptive middle. The\n"
      "write-heavy pass shifts every differential structure further toward\n"
      "the write corner -- position in the space is workload-relative.\n");
  return 0;
}
