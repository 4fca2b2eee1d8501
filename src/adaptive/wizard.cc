#include "adaptive/wizard.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "methods/factory.h"
#include "storage/page_format.h"

namespace rum {

namespace {
double Log(double base, double x) {
  if (x <= 1) return 1;
  return std::log(x) / std::log(base);
}
}  // namespace

Recommendation RumWizard::Predict(std::string_view method,
                                  const WorkloadSpec& workload,
                                  size_t resident_entries,
                                  double space_weight) const {
  Recommendation rec;
  rec.method = std::string(method);

  double N = std::max<double>(1, static_cast<double>(resident_entries));
  double B = static_cast<double>(PageFormat::CapacityFor(options_.block_size));
  double blocks = std::max(1.0, N / B);
  double m = std::max(1.0, static_cast<double>(workload.key_range) *
                               workload.scan_selectivity);
  double T = static_cast<double>(options_.lsm.size_ratio);
  double levels = std::max(
      1.0, Log(T, N / static_cast<double>(options_.lsm.memtable_entries)));
  double zones =
      std::max(1.0, N / static_cast<double>(options_.zonemap.zone_entries));
  double zone_blocks =
      std::max(1.0, static_cast<double>(options_.zonemap.zone_entries) / B);
  double cardinality = static_cast<double>(options_.bitmap.cardinality);
  // Per-run positioning cost of an LSM range scan, in block I/Os. With the
  // cross-run index a cursor opens directly at its stored (page, slot)
  // offset -- one block per run; without it each run pays a fence search
  // landing at a fence-group start, (g-1)/2 slack blocks before the range
  // on average (g = pages per fence group).
  double fence_group = std::max(
      1.0, std::ceil(static_cast<double>(options_.lsm.fence_entries) / B));
  double lsm_seek =
      options_.lsm.cross_run_index ? 1.0 : 1.0 + (fence_group - 1.0) / 2.0;

  // Defaults; each branch fills read/scan/write cost in block I/Os and
  // space in blocks.
  if (method == "btree") {
    double h = std::max(1.0, Log(B, N));
    rec.read_cost = h;
    rec.scan_cost = h + m / B;
    rec.write_cost = h + 1;
    rec.space_blocks = blocks * 1.45;  // Inner nodes + ~70% leaf occupancy.
    rec.rationale = "log_B(N) probes; fastest ranges; index space";
  } else if (method == "hash") {
    rec.read_cost = 2;
    rec.scan_cost = blocks;
    rec.write_cost = 2;
    rec.space_blocks = blocks * (1.0 + 0.5);  // Heap + directory.
    rec.rationale = "O(1) point ops; ranges degrade to full scans";
  } else if (method == "zonemap") {
    double meta = zones * 32 / static_cast<double>(options_.block_size);
    rec.read_cost = meta + zone_blocks;
    rec.scan_cost = meta + zone_blocks + m / B;
    rec.write_cost = meta + zone_blocks;
    rec.space_blocks = blocks + std::max(0.1, meta);
    rec.rationale = "tiny sparse index; every op pays a zone scan";
  } else if (method == "lsm-leveled") {
    double fp = options_.lsm.bloom_bits_per_key > 0 ? 0.01 : 1.0;
    rec.read_cost = 1 + fp * levels;
    rec.scan_cost = lsm_seek * levels + m / B;
    rec.write_cost = (T * levels) / B;
    rec.space_blocks = blocks * 1.30;
    rec.rationale = "filtered runs: cheap reads, merge-amplified writes";
  } else if (method == "lsm-tiered") {
    double fp = options_.lsm.bloom_bits_per_key > 0 ? 0.01 : 1.0;
    double runs = T * levels;
    rec.read_cost = 1 + fp * runs + 0.2 * runs;
    rec.scan_cost = lsm_seek * runs + m / B;
    rec.write_cost = levels / B;
    rec.space_blocks = blocks * 1.60;
    rec.rationale = "lazy merging: cheapest writes, more runs to read";
  } else if (method == "lsm-lazy") {
    double fp = options_.lsm.bloom_bits_per_key > 0 ? 0.01 : 1.0;
    // Dostoevsky: up to T runs per upper level, a single run at the bottom.
    double upper = T * std::max(0.0, levels - 1);
    rec.read_cost = 1 + fp * (upper + 1) + 0.1 * upper;
    rec.scan_cost = lsm_seek * (upper + 1) + m / B;
    rec.write_cost = (std::max(0.0, levels - 1) + (T + 1) / 2) / B;
    rec.space_blocks = blocks * 1.40;
    rec.rationale = "tiered upper levels, one-run bottom: balanced RUM";
  } else if (method == "lsm-hybrid") {
    double fp = options_.lsm.bloom_bits_per_key > 0 ? 0.01 : 1.0;
    double k = std::min(
        static_cast<double>(options_.lsm.hybrid_tiered_levels), levels);
    double runs = T * k + (levels - k);
    rec.read_cost = 1 + fp * runs + 0.1 * runs;
    rec.scan_cost = lsm_seek * runs + m / B;
    rec.write_cost = (k + (levels - k) * (T + 1) / 2) / B;
    rec.space_blocks = blocks * 1.45;
    rec.rationale = "tiered shallow levels, leveled deep: tunable midpoint";
  } else if (method == "stepped-merge") {
    double runs = static_cast<double>(options_.lsm.size_ratio) * levels;
    rec.read_cost = runs;
    rec.scan_cost = runs + m / B;
    rec.write_cost = levels / B;
    rec.space_blocks = blocks * 1.40;
    rec.rationale = "unfiltered runs: cheap writes, every run probed";
  } else if (method == "sorted-column") {
    rec.read_cost = Log(2, blocks);
    rec.scan_cost = Log(2, blocks) + m / B;
    rec.write_cost = blocks / 2;
    rec.space_blocks = blocks;
    rec.rationale = "no index: binary search, linear in-place updates";
  } else if (method == "unsorted-column") {
    rec.read_cost = blocks / 2;
    rec.scan_cost = blocks;
    // Upsert semantics scan for a previous version before appending.
    rec.write_cost = blocks / 2 + 1.0 / B;
    rec.space_blocks = blocks;
    rec.rationale = "no structure: O(1) appends, scans for everything";
  } else if (method == "bitmap" || method == "bitmap-delta") {
    double rows_per_bin = N / cardinality;
    rec.read_cost = 0.2 + rows_per_bin / B;
    rec.scan_cost = 0.2 * cardinality + m / B;
    // Upsert semantics probe the bin before writing.
    rec.write_cost = rec.read_cost +
                     (method == "bitmap" ? cardinality / 31 / B + 0.5
                                         : 1.0 / B);
    rec.space_blocks = blocks * 1.05;
    rec.rationale = "compressed bins; updates hurt unless delta-buffered";
  } else if (method == "bloom-zones") {
    double z = std::max(1.0, N / static_cast<double>(
                                   options_.approx.zone_entries));
    double zb =
        std::max(1.0, static_cast<double>(options_.approx.zone_entries) / B);
    rec.read_cost = zb * (1 + 0.01 * z);
    rec.scan_cost = blocks;
    // Upsert semantics pay the existence probe on every insert.
    rec.write_cost = rec.read_cost + 1.0 / B;
    rec.space_blocks = blocks * 1.02;
    rec.rationale = "filters instead of an index: near-index point reads";
  } else if (method == "skiplist") {
    // Memory-resident probes touch tens of bytes per hop, not blocks.
    double hop = 40.0 / static_cast<double>(options_.block_size);
    rec.read_cost = hop * Log(2, N);
    rec.scan_cost = hop * Log(2, N) + m / B;
    rec.write_cost = hop * Log(2, N);
    rec.space_blocks = blocks * 2.0;
    rec.rationale = "memory-resident; pointer towers double the footprint";
  } else if (method == "trie") {
    double hop = 40.0 / static_cast<double>(options_.block_size);
    rec.read_cost = hop * 8;
    rec.scan_cost = hop * 8 + m / B;
    rec.write_cost = hop * 8;
    rec.space_blocks = blocks * 6.0;
    rec.rationale = "constant-depth probes; node arrays devour space";
  } else if (method == "cracking") {
    rec.read_cost = Log(2, blocks) + 2;
    rec.scan_cost = Log(2, blocks) + m / B + 2;
    rec.write_cost = 1.0 / B + 0.5;
    rec.space_blocks = blocks * 1.10;
    rec.rationale = "adapts toward sorted; update merges reset progress";
  } else if (method == "magic-array" || method == "pure-log" ||
             method == "dense-array") {
    // The theoretical extremes are illustrations, not recommendations.
    rec.read_cost = method == "magic-array" ? 1.0 / B : blocks;
    rec.scan_cost = blocks;
    rec.write_cost = method == "pure-log" ? 1.0 / B : 1;
    rec.space_blocks = method == "dense-array"
                           ? blocks
                           : blocks * 64;
    rec.rationale = "theoretical extreme (Propositions 1-3)";
  } else {
    rec.predicted_cost = std::numeric_limits<double>::infinity();
    rec.rationale = "unknown method";
    return rec;
  }

  double get_f = 1.0 - workload.insert_fraction - workload.update_fraction -
                 workload.delete_fraction - workload.scan_fraction;
  double write_f = workload.insert_fraction + workload.update_fraction +
                   workload.delete_fraction;
  rec.predicted_cost = get_f * rec.read_cost +
                       workload.scan_fraction * rec.scan_cost +
                       write_f * rec.write_cost +
                       space_weight * rec.space_blocks / blocks;
  return rec;
}

std::vector<Recommendation> RumWizard::Rank(const WorkloadSpec& workload,
                                            size_t resident_entries,
                                            double space_weight) const {
  std::vector<Recommendation> recs;
  for (std::string_view name : AllAccessMethodNames()) {
    if (name == "magic-array" || name == "pure-log" ||
        name == "dense-array") {
      continue;  // Theoretical extremes are not practical candidates.
    }
    if (name.substr(0, 8) == "sharded-") {
      continue;  // Concurrency wrappers have the inner method's RUM shape.
    }
    recs.push_back(Predict(name, workload, resident_entries, space_weight));
  }
  std::sort(recs.begin(), recs.end(),
            [](const Recommendation& a, const Recommendation& b) {
              return a.predicted_cost < b.predicted_cost;
            });
  return recs;
}

Recommendation RumWizard::Recommend(const WorkloadSpec& workload,
                                    size_t resident_entries,
                                    double space_weight) const {
  return Rank(workload, resident_entries, space_weight).front();
}

}  // namespace rum
