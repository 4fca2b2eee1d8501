#include "adaptive/tuner.h"

#include <algorithm>

#include "adaptive/cost_model.h"
#include "methods/lsm/compaction_policy.h"

namespace rum {

TuningAction OnlineTuner::Observe(std::string_view method_name,
                                  const Options& current,
                                  const RumPoint& measured,
                                  const RumPoint& target) const {
  TuningAction action;
  action.options = current;

  double read_excess = measured.read_overhead /
                       std::max(1.0, target.read_overhead);
  double write_excess = measured.update_overhead /
                        std::max(1.0, target.update_overhead);
  double space_excess = measured.memory_overhead /
                        std::max(1.0, target.memory_overhead);
  double threshold = 1.0 + tolerance_;

  bool reads_hurt = read_excess > threshold;
  bool writes_hurt = write_excess > threshold;
  bool space_hurts = space_excess > threshold;

  // The most-excessive overhead drives the adjustment: the RUM Conjecture
  // says we cannot fix all three, so we move along the tradeoff curve.
  double worst = std::max({read_excess, write_excess, space_excess});
  if (worst <= threshold) {
    action.reason = "within tolerance of target";
    return action;
  }

  if (method_name == "lsm-leveled" || method_name == "lsm-tiered" ||
      method_name == "lsm-lazy" || method_name == "lsm-hybrid") {
    if (reads_hurt && writes_hurt) {
      // Mixed pain: no single directional rule wins, so rank all four
      // policies under the analytical model, weighted by how far each axis
      // is over target. This is where lazy leveling and the hybrid earn
      // their keep. Sized for a mid-life tree (a few populated levels).
      uint64_t nominal = current.lsm.memtable_entries;
      for (int i = 0; i < 3; ++i) nominal *= current.lsm.size_ratio;
      LsmPolicy pick = PickLsmPolicy(
          nominal, current, std::max(0.0, read_excess - 1.0),
          std::max(0.0, write_excess - 1.0),
          std::max(0.0, space_excess - 1.0));
      if (pick != current.lsm.policy) {
        action.options.lsm.policy = pick;
        action.reason = std::string("read+write pain: cost model picks ") +
                        std::string(CompactionPolicy::Make(pick)->name()) +
                        " merging";
        action.changed = true;
        return action;
      }
      // Already on the model's choice; fall through to the knob rules.
    }
    if (reads_hurt && worst == read_excess) {
      if (current.lsm.policy != LsmPolicy::kLeveled) {
        action.options.lsm.policy = LsmPolicy::kLeveled;
        action.reason = "reads over target: switch to leveled merging";
      } else if (current.lsm.bloom_bits_per_key < 16 && !space_hurts) {
        action.options.lsm.bloom_bits_per_key =
            current.lsm.bloom_bits_per_key + 2;
        action.reason = "reads over target: spend space on filter bits";
      } else if (current.lsm.size_ratio > 2) {
        action.options.lsm.size_ratio = current.lsm.size_ratio - 1;
        action.reason = "reads over target: shrink size ratio";
      } else {
        action.reason = "reads over target: no knob left";
        return action;
      }
      action.changed = true;
    } else if (writes_hurt && worst == write_excess) {
      if (current.lsm.policy != LsmPolicy::kTiered) {
        action.options.lsm.policy = LsmPolicy::kTiered;
        action.reason = "writes over target: switch to tiered merging";
      } else {
        action.options.lsm.size_ratio = current.lsm.size_ratio + 2;
        action.reason = "writes over target: grow size ratio";
      }
      action.changed = true;
    } else {
      if (current.lsm.bloom_bits_per_key > 2) {
        action.options.lsm.bloom_bits_per_key =
            current.lsm.bloom_bits_per_key - 2;
        action.reason = "space over target: shed filter bits";
        action.changed = true;
      } else {
        action.reason = "space over target: no knob left";
      }
    }
    return action;
  }

  if (method_name == "btree") {
    size_t node = current.btree.node_size != 0 ? current.btree.node_size
                                               : current.block_size;
    if (reads_hurt && worst == read_excess && node < (1u << 16)) {
      action.options.btree.node_size = node * 2;
      action.reason = "reads over target: larger nodes, shallower tree";
      action.changed = true;
    } else if (writes_hurt && worst == write_excess && node > 512) {
      action.options.btree.node_size = node / 2;
      action.reason = "writes over target: smaller nodes, cheaper rewrites";
      action.changed = true;
    } else if (space_hurts && current.btree.bulk_fill < 1.0) {
      action.options.btree.bulk_fill = 1.0;
      action.reason = "space over target: pack leaves full";
      action.changed = true;
    } else {
      action.reason = "no applicable b-tree knob";
    }
    return action;
  }

  if (method_name == "zonemap") {
    if (reads_hurt && worst == read_excess &&
        current.zonemap.zone_entries > 256) {
      action.options.zonemap.zone_entries =
          current.zonemap.zone_entries / 2;
      action.reason = "reads over target: smaller zones";
      action.changed = true;
    } else if (space_hurts && worst == space_excess) {
      action.options.zonemap.zone_entries =
          current.zonemap.zone_entries * 2;
      action.reason = "space over target: larger zones, fewer descriptors";
      action.changed = true;
    } else {
      action.reason = "no applicable zonemap knob";
    }
    return action;
  }

  if (method_name == "bitmap" || method_name == "bitmap-delta") {
    if (writes_hurt && worst == write_excess) {
      action.options.bitmap.update_friendly = true;
      action.options.bitmap.delta_merge_threshold =
          current.bitmap.delta_merge_threshold * 2;
      action.reason = "writes over target: buffer more deltas";
      action.changed = true;
    } else if (reads_hurt && worst == read_excess &&
               current.bitmap.delta_merge_threshold > 64) {
      action.options.bitmap.delta_merge_threshold =
          current.bitmap.delta_merge_threshold / 2;
      action.reason = "reads over target: merge deltas sooner";
      action.changed = true;
    } else {
      action.reason = "no applicable bitmap knob";
    }
    return action;
  }

  action.reason = "method has no tunable knobs registered";
  return action;
}

}  // namespace rum
