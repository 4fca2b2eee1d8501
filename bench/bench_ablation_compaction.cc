// Ablation A2 -- Section 5's "dynamic RUM balance ... by changing the
// number of merge trees dynamically, the depth of the merge hierarchy and
// the frequency of merging".
//
// All four compaction policies (leveled, tiered, lazy-leveled, hybrid)
// across size ratios: write amplification and read amplification cross
// over -- the same structure sliding along the R/U tradeoff curve, with
// lazy leveling and the hybrid occupying the middle. The stepped-merge
// preset (tiered, an append-buffer memtable, no filters) is included as the
// PBT/MaSM-style baseline.
#include <memory>

#include "bench/bench_util.h"
#include "methods/lsm/lsm_tree.h"
#include "workload/distribution.h"

namespace rum {
namespace {

using bench::Banner;
using bench::Fmt;
using bench::FmtU;
using bench::Table;

constexpr size_t kInserts = 60000;
constexpr Key kRange = 1u << 18;
constexpr int kQueries = 3000;

void Measure(LsmTree* method, double* uo, double* read_blocks,
             size_t* runs) {
  Rng rng(6);
  for (size_t i = 0; i < kInserts; ++i) {
    (void)method->Insert(rng.NextBelow(kRange), i);
  }
  *uo = method->stats().write_amplification();
  *runs = method->total_runs();
  method->ResetStats();
  for (int i = 0; i < kQueries; ++i) {
    (void)method->Get(rng.NextBelow(kRange));
  }
  *read_blocks =
      static_cast<double>(method->stats().blocks_read) / kQueries;
}

void Sweep() {
  Banner("Merge policy x size ratio: write amp vs read cost");
  Table table({"policy", "T", "UO (write amp)", "read blk/q", "runs"});
  for (size_t ratio : {2u, 3u, 4u, 6u, 8u, 10u}) {
    for (LsmPolicy policy :
         {LsmPolicy::kLeveled, LsmPolicy::kTiered,
          LsmPolicy::kLazyLeveled, LsmPolicy::kHybrid}) {
      Options options;
      options.block_size = 4096;
      options.lsm.memtable_entries = 2048;
      options.lsm.size_ratio = ratio;
      options.lsm.policy = policy;
      options.lsm.bloom_bits_per_key = 0;  // Isolate the merge effect.
      LsmTree tree(options);
      double uo, read_blocks;
      size_t runs;
      Measure(&tree, &uo, &read_blocks, &runs);
      const char* label = policy == LsmPolicy::kLeveled  ? "leveled"
                          : policy == LsmPolicy::kTiered ? "tiered"
                          : policy == LsmPolicy::kLazyLeveled
                              ? "lazy-leveled"
                              : "hybrid";
      table.AddRow({label, FmtU(ratio), Fmt("%.2f", uo),
                    Fmt("%.2f", read_blocks), FmtU(runs)});
    }
    // Stepped-merge, merging T runs per level, as the differential
    // baseline.
    Options options;
    options.block_size = 4096;
    options.lsm.memtable_entries = 2048;
    options.lsm.size_ratio = ratio;
    LsmTree stepped(SteppedMergeOptions(options));
    double uo, read_blocks;
    size_t runs;
    Measure(&stepped, &uo, &read_blocks, &runs);
    table.AddRow({"stepped-merge", FmtU(ratio), Fmt("%.2f", uo),
                  Fmt("%.2f", read_blocks), FmtU(runs)});
  }
  table.Print();
}

void CompressionTrade() {
  // The paper's §5 coda: "compression is seldom used only for transferring
  // data ... modern data systems operate mostly on compressed data". Delta
  // compression shrinks every run: lower MO, fewer blocks per read AND per
  // merge -- paid in encode/decode computation, outside the RUM triangle.
  Banner("Run compression: size, read cost, and write cost together");
  Table table({"runs", "space KB", "MO", "read blk/q", "UO (write amp)"});
  for (bool compress : {false, true}) {
    Options options;
    options.block_size = 4096;
    options.lsm.memtable_entries = 2048;
    options.lsm.bloom_bits_per_key = 0;
    options.lsm.compress_runs = compress;
    LsmTree tree(options);
    double uo, read_blocks;
    size_t runs;
    Measure(&tree, &uo, &read_blocks, &runs);
    table.AddRow({compress ? "compressed" : "raw",
                  Fmt("%.0f", tree.stats().total_space() / 1024.0),
                  Fmt("%.3f", tree.stats().space_amplification()),
                  Fmt("%.2f", read_blocks), Fmt("%.2f", uo)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: compression improves M (runs ~40%% smaller on\n"
      "dense keys) and U (merges move fewer bytes) at once, and would\n"
      "improve range reads too (fewer blocks per scanned range; point\n"
      "reads still touch one page per run). Its price -- encode/decode\n"
      "CPU -- lies outside the three overheads, which is why the paper\n"
      "calls compression orthogonal to the RUM Conjecture.\n");
}

}  // namespace
}  // namespace rum

int main() {
  rum::bench::Banner(
      "A2: merge depth and frequency -- leveled vs tiered vs stepped-merge");
  rum::Sweep();
  rum::CompressionTrade();
  std::printf(
      "\nExpected shape: leveled write amp grows with T while its read\n"
      "cost stays ~1 block; tiered/stepped write amp stays low (~1-2) while\n"
      "read cost grows with the run count. The two families cross over --\n"
      "no point dominates, as the RUM Conjecture demands.\n");
  return 0;
}
