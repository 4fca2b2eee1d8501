#include "adaptive/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/types.h"
#include "methods/lsm/compaction_policy.h"
#include "methods/lsm/sorted_run.h"

namespace rum {

namespace {

/// The compaction policies' context over record counts: a run is its
/// record count (levels_[i] newest last), and building one charges whole
/// blocks. For distinct keys a merge's output is the sum of its inputs, so
/// replaying a policy here yields the tree's exact layout.
class RecordCountContext final : public CompactionContext {
 public:
  RecordCountContext(const Options::Lsm& lsm, size_t records_per_page)
      : lsm_(lsm), records_per_page_(records_per_page) {}

  const Options::Lsm& lsm_options() const override { return lsm_; }
  size_t level_count() const override { return levels_.size(); }
  size_t runs_at(size_t level) const override {
    return level < levels_.size() ? levels_[level].size() : 0;
  }
  uint64_t newest_run_records(size_t level) const override {
    return levels_[level].back();
  }

  Status AddFlushRun() override {
    Build(0, lsm_.memtable_entries);
    return Status::OK();
  }
  Status MergeLevel(size_t level, size_t dest, bool with_memtable,
                    bool absorb_next) override {
    if (levels_.size() <= dest) levels_.resize(dest + 1);
    uint64_t merged = with_memtable ? lsm_.memtable_entries : 0;
    for (uint64_t n : levels_[level]) merged += n;
    levels_[level].clear();
    if (absorb_next && runs_at(level + 1) > 0) {
      merged += levels_[level + 1].back();
      levels_[level + 1].pop_back();
    }
    Build(dest, merged);
    return Status::OK();
  }
  void MoveRunDown(size_t level) override {
    if (levels_.size() <= level + 1) levels_.resize(level + 2);
    levels_[level + 1].push_back(levels_[level].back());
    levels_[level].pop_back();
  }

  const std::vector<std::vector<uint64_t>>& levels() const { return levels_; }
  uint64_t built_records() const { return built_records_; }
  uint64_t built_blocks() const { return built_blocks_; }

 private:
  void Build(size_t level, uint64_t n) {
    if (levels_.size() <= level) levels_.resize(level + 1);
    if (n == 0) return;
    built_records_ += n;
    built_blocks_ += (n + records_per_page_ - 1) / records_per_page_;
    levels_[level].push_back(n);
  }

  const Options::Lsm& lsm_;
  size_t records_per_page_;
  std::vector<std::vector<uint64_t>> levels_;
  uint64_t built_records_ = 0;  ///< Records written across all run builds.
  uint64_t built_blocks_ = 0;   ///< Whole blocks those builds charged.
};

size_t CeilDiv(uint64_t a, uint64_t b) {
  return static_cast<size_t>((a + b - 1) / b);
}

size_t Log2Probes(size_t n) {
  // Probe count of the fence binary search over n fences.
  size_t probes = 0;
  while (n > 0) {
    ++probes;
    n >>= 1;
  }
  return probes;
}

}  // namespace

RumPoint LsmCostPrediction::AsRumPoint() const {
  RumPoint point;
  point.read_overhead = std::max(1.0, read_amp);
  point.update_overhead = std::max(1.0, update_amp);
  point.memory_overhead = std::max(1.0, memory_amp);
  return point;
}

std::string LsmCostPrediction::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "L=%.0f runs=%.0f RO=%.1f rangeRO=%.2f UO=%.2f MO=%.3f",
                levels, runs, read_amp, range_read_amp, update_amp,
                memory_amp);
  return buf;
}

LsmCostPrediction PredictLsmCost(LsmPolicy policy, uint64_t entries,
                                 const Options& options) {
  const Options::Lsm& lsm = options.lsm;
  LsmCostPrediction out;
  out.policy = policy;
  if (entries == 0) return out;

  const size_t records_per_page =
      (options.block_size - sizeof(uint64_t)) / LogRecord::kWireSize;

  // ---- Structure layer: replay the policy's flush cascade in record counts.
  RecordCountContext layout(lsm, records_per_page);
  std::unique_ptr<CompactionPolicy> cascade = CompactionPolicy::Make(policy);
  for (uint64_t f = 0; f < entries / lsm.memtable_entries; ++f) {
    (void)cascade->HandleFlush(&layout);  // Record counts cannot fail.
  }

  uint64_t resident = 0;
  size_t populated_levels = 0;
  std::vector<uint64_t> run_sizes;  // Probe order: level-major, newest first.
  for (const auto& level : layout.levels()) {
    if (!level.empty()) ++populated_levels;
    for (size_t i = level.size(); i-- > 0;) run_sizes.push_back(level[i]);
    for (uint64_t n : level) resident += n;
  }
  out.levels = static_cast<double>(populated_levels);
  out.runs = static_cast<double>(run_sizes.size());
  if (resident == 0) return out;

  // ---- Accounting layer: map structure to the simulator's charge rates.
  const double block = static_cast<double>(options.block_size);
  const size_t bits_per_key = lsm.bloom_bits_per_key;
  const size_t bloom_probes =
      bits_per_key == 0
          ? 0
          : std::max<size_t>(
                1, static_cast<size_t>(bits_per_key * 0.6931471805599453 +
                                       0.5));
  const size_t pages_per_fence = std::max<size_t>(
      1, CeilDiv(lsm.fence_entries, records_per_page));

  // Update amplification. Every insert pays the memtable (entry bytes plus
  // two 8-byte pointer splices per expected tower level 1/(1-p)), then its
  // share of the run builds: whole blocks plus one Bloom byte per probe.
  const double expect_height =
      1.0 / (1.0 - std::min(0.99, options.skiplist.promote_probability));
  const double memtable_bytes = kEntrySize + 16.0 * expect_height;
  double written = static_cast<double>(entries) * memtable_bytes +
                   static_cast<double>(layout.built_blocks()) * block +
                   static_cast<double>(layout.built_records()) *
                       static_cast<double>(bloom_probes);
  out.update_amp = written / (static_cast<double>(entries) * kEntrySize);

  // Read amplification for a uniform point hit: each resident run before
  // the containing one is filtered out (or false-positives into a fence
  // group scan); the containing run pays filter + fence search + half a
  // fence group of whole-block reads.
  double prefix_negative = 8.0;  // Empty-memtable probe: one pointer read.
  double expected_read = 0;
  for (uint64_t n : run_sizes) {
    size_t pages = CeilDiv(n, records_per_page);
    size_t group = std::min(pages_per_fence, pages);
    size_t fences = CeilDiv(pages, pages_per_fence);
    double fence_bytes = 8.0 * static_cast<double>(Log2Probes(fences));
    double scan_bytes = (static_cast<double>(group) + 1.0) / 2.0 * block;
    double positive =
        static_cast<double>(bloom_probes) + fence_bytes + scan_bytes;
    double negative;
    if (bits_per_key == 0) {
      negative = fence_bytes + scan_bytes;  // No filter: full miss scan.
    } else {
      double bits = static_cast<double>(
          std::max<uint64_t>(64, n * bits_per_key));
      double fill = 1.0 - std::exp(-static_cast<double>(bloom_probes) *
                                   static_cast<double>(n) / bits);
      double fp = std::pow(fill, static_cast<double>(bloom_probes));
      // Expected probe bytes until the first unset bit, capped at k.
      double probe_bytes = fill >= 1.0
                               ? static_cast<double>(bloom_probes)
                               : (1.0 - fp) / (1.0 - fill);
      negative = probe_bytes + fp * (fence_bytes + scan_bytes);
    }
    double weight = static_cast<double>(n) / static_cast<double>(resident);
    expected_read += weight * (prefix_negative + positive);
    prefix_negative += negative;
  }
  out.read_amp = expected_read / kEntrySize;

  // Range read amplification: a kRangeScanRecords-wide window at a uniform
  // start key, every run overlapping (shuffled-insert worst case), empty
  // memtable. Each overlapping run contributes its expected share of the
  // window (w_r = W * n / resident records) and the cost of getting a
  // cursor to the window start.
  {
    const double window = static_cast<double>(
        std::min<uint64_t>(LsmCostPrediction::kRangeScanRecords, resident));
    const double rpp = static_cast<double>(records_per_page);
    double scan_read = 8.0;  // Empty-memtable window visit: one pointer.
    if (lsm.cross_run_index) {
      // One charged segment binary search, one offset-table consult, then
      // per run: the stored offset's page plus the in-segment advance
      // (half a segment's worth of the run's records) plus the window.
      uint64_t segments = std::max<uint64_t>(
          1, resident / std::max<size_t>(1, lsm.cross_run_segment_entries));
      scan_read += 8.0 * static_cast<double>(Log2Probes(segments));
      scan_read += 16.0 * out.runs;  // Offset entries consulted.
      for (uint64_t n : run_sizes) {
        double share = static_cast<double>(n) / static_cast<double>(resident);
        double w_r = window * share;
        double advance =
            static_cast<double>(lsm.cross_run_segment_entries) * share / 2.0;
        scan_read += (1.0 + (advance + w_r) / rpp) * block;
      }
    } else {
      // Per run: fence binary search, then the walk starts at the fence
      // group's first page -- (g-1)/2 slack pages before lo on average.
      for (uint64_t n : run_sizes) {
        size_t pages = CeilDiv(n, records_per_page);
        size_t group = std::min(pages_per_fence, pages);
        size_t fences = CeilDiv(pages, pages_per_fence);
        double w_r =
            window * static_cast<double>(n) / static_cast<double>(resident);
        scan_read += 8.0 * static_cast<double>(Log2Probes(fences));
        scan_read += ((static_cast<double>(group) - 1.0) / 2.0 + 1.0 +
                      w_r / rpp) *
                     block;
      }
    }
    out.range_read_amp = scan_read / (window * kEntrySize);
  }

  // Memory amplification: whole pages (wire inflation + block slack) plus
  // Bloom bytes and in-memory fences, over live entry bytes.
  double space = 0;
  for (uint64_t n : run_sizes) {
    size_t pages = CeilDiv(n, records_per_page);
    size_t fences = CeilDiv(pages, pages_per_fence);
    space += static_cast<double>(pages) * block;
    if (bits_per_key > 0) {
      space += static_cast<double>(
                   std::max<uint64_t>(64, n * bits_per_key) + 7) /
               8.0;
    }
    space += static_cast<double>(fences) * 8.0;
  }
  out.memory_amp =
      space / (static_cast<double>(entries) * kEntrySize);
  return out;
}

LsmPolicy PickLsmPolicy(uint64_t entries, const Options& options,
                        double read_weight, double write_weight,
                        double space_weight, double scan_weight) {
  constexpr LsmPolicy kAll[] = {LsmPolicy::kLeveled, LsmPolicy::kTiered,
                                LsmPolicy::kLazyLeveled, LsmPolicy::kHybrid};
  LsmCostPrediction preds[4];
  double best_ro = 0, best_uo = 0, best_mo = 0, best_so = 0;
  for (size_t i = 0; i < 4; ++i) {
    preds[i] = PredictLsmCost(kAll[i], entries, options);
    if (i == 0 || preds[i].read_amp < best_ro) best_ro = preds[i].read_amp;
    if (i == 0 || preds[i].update_amp < best_uo) best_uo = preds[i].update_amp;
    if (i == 0 || preds[i].memory_amp < best_mo) best_mo = preds[i].memory_amp;
    if (i == 0 || preds[i].range_read_amp < best_so) {
      best_so = preds[i].range_read_amp;
    }
  }
  LsmPolicy best = LsmPolicy::kLeveled;
  double best_score = 0;
  for (size_t i = 0; i < 4; ++i) {
    // Normalize each axis by the best policy's value so a weight of 1 means
    // "one relative unit of pain" on every axis.
    double score = read_weight * preds[i].read_amp / std::max(1e-9, best_ro) +
                   write_weight * preds[i].update_amp / std::max(1e-9, best_uo) +
                   space_weight * preds[i].memory_amp / std::max(1e-9, best_mo) +
                   scan_weight * preds[i].range_read_amp /
                       std::max(1e-9, best_so);
    if (i == 0 || score < best_score) {
      best_score = score;
      best = kAll[i];
    }
  }
  return best;
}

}  // namespace rum
