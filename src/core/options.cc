#include "core/options.h"

namespace rum {

namespace {
// Smallest page any codec in rumlab can use: an 8-byte header plus a
// handful of entries.
constexpr size_t kMinPageBytes = 64;
}  // namespace

Status ValidateOptions(const Options& options) {
  if (options.block_size < kMinPageBytes) {
    return Status::InvalidArgument("block_size below minimum page size");
  }
  if (options.storage.retry.max_attempts < 1 ||
      options.storage.retry.max_attempts > 64) {
    return Status::InvalidArgument(
        "storage.retry.max_attempts must be in [1, 64]");
  }
  if (options.service.queue_capacity < 1) {
    return Status::InvalidArgument("service.queue_capacity must be >= 1");
  }
  if (options.service.batch_max_ops < 1) {
    return Status::InvalidArgument("service.batch_max_ops must be >= 1");
  }
  if (options.service.op_cost_us < 1) {
    return Status::InvalidArgument(
        "service.op_cost_us must be >= 1 (zero-cost service makes "
        "capacity infinite and queueing meaningless)");
  }
  if (options.service.admission &&
      (options.service.codel_target_us < 1 ||
       options.service.codel_interval_us < options.service.codel_target_us)) {
    return Status::InvalidArgument(
        "service.codel_target_us must be >= 1 and <= codel_interval_us");
  }
  if (options.btree.node_size != 0 &&
      options.btree.node_size < kMinPageBytes) {
    return Status::InvalidArgument("btree.node_size below minimum");
  }
  if (options.btree.bulk_fill <= 0.0 || options.btree.bulk_fill > 1.0) {
    return Status::InvalidArgument("btree.bulk_fill must be in (0, 1]");
  }
  if (options.btree.split_fraction <= 0.0 ||
      options.btree.split_fraction >= 1.0) {
    return Status::InvalidArgument("btree.split_fraction must be in (0, 1)");
  }
  if (options.hash.directory_fanout <= 0.0) {
    return Status::InvalidArgument("hash.directory_fanout must be positive");
  }
  if (options.zonemap.zone_entries < 2) {
    return Status::InvalidArgument("zonemap.zone_entries must be >= 2");
  }
  if (options.lsm.memtable_entries < 1) {
    return Status::InvalidArgument("lsm.memtable_entries must be >= 1");
  }
  if (options.lsm.size_ratio < 2) {
    return Status::InvalidArgument("lsm.size_ratio must be >= 2");
  }
  if (options.lsm.policy == LsmPolicy::kHybrid &&
      options.lsm.hybrid_tiered_levels < 1) {
    return Status::InvalidArgument(
        "lsm.hybrid_tiered_levels must be >= 1 under the hybrid policy "
        "(0 tiered levels is the leveled policy)");
  }
  if (options.lsm.cross_run_index &&
      options.lsm.cross_run_segment_entries < 16) {
    return Status::InvalidArgument(
        "lsm.cross_run_segment_entries must be >= 16 (fewer entries per "
        "segment than a page holds buys no read savings, only anchor "
        "space)");
  }
  if (options.bitmap.cardinality < 1) {
    return Status::InvalidArgument("bitmap.cardinality must be >= 1");
  }
  if (options.bitmap.key_domain < 1) {
    return Status::InvalidArgument("bitmap.key_domain must be >= 1");
  }
  if (options.approx.zone_entries < 1) {
    return Status::InvalidArgument("approx.zone_entries must be >= 1");
  }
  if (options.approx.rebuild_deleted_fraction <= 0.0 ||
      options.approx.rebuild_deleted_fraction > 1.0) {
    return Status::InvalidArgument(
        "approx.rebuild_deleted_fraction must be in (0, 1]");
  }
  if (options.cracking.min_piece_entries < 1) {
    return Status::InvalidArgument("cracking.min_piece_entries must be >= 1");
  }
  if (options.trie.span_bits < 1 || options.trie.span_bits > 16 ||
      64 % options.trie.span_bits != 0) {
    return Status::InvalidArgument(
        "trie.span_bits must divide 64 and be in [1, 16]");
  }
  if (options.skiplist.promote_probability <= 0.0 ||
      options.skiplist.promote_probability >= 1.0) {
    return Status::InvalidArgument(
        "skiplist.promote_probability must be in (0, 1)");
  }
  if (options.skiplist.max_height < 1 || options.skiplist.max_height > 64) {
    return Status::InvalidArgument("skiplist.max_height must be in [1, 64]");
  }
  if (options.extremes.magic_array_domain < 1) {
    return Status::InvalidArgument("magic_array_domain must be >= 1");
  }
  if (options.sharded.shards < 1 || options.sharded.shards > 256) {
    return Status::InvalidArgument("sharded.shards must be in [1, 256]");
  }
  if (options.absorber.delta_entries < 1) {
    return Status::InvalidArgument("absorber.delta_entries must be >= 1");
  }
  if (options.absorber.qf_remainder_bits < 1 ||
      options.absorber.qf_remainder_bits > 32) {
    return Status::InvalidArgument(
        "absorber.qf_remainder_bits must be in [1, 32]");
  }
  if (options.memory.enabled) {
    if (options.memory.arbiter == nullptr) {
      return Status::InvalidArgument(
          "memory.enabled requires memory.arbiter (the registrar the "
          "components' pools attach to)");
    }
  }
  if (options.morphing.read_priority < 0 ||
      options.morphing.write_priority < 0 ||
      options.morphing.space_priority < 0) {
    return Status::InvalidArgument("morphing priorities must be >= 0");
  }
  return Status::OK();
}

}  // namespace rum
