#ifndef RUMLAB_METHODS_FACTORY_H_
#define RUMLAB_METHODS_FACTORY_H_

#include <memory>
#include <string_view>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"

namespace rum {

class Device;

/// Creates an access method by name; AllAccessMethodNames() lists the
/// names. Returns null for an unknown name or invalid `options`.
/// ("bitmap"/"bitmap-delta" and the LSM names override the corresponding
/// Options fields; every LSM variant honors `options.lsm.cross_run_index` /
/// `cross_run_segment_entries` for the one-seek range-scan view.)
///
/// Device-backed methods store their pages on `device` (borrowed, must
/// outlive the method). This is how fault-injection and cache stacks reach
/// every method: build the stack (BlockDevice -> FaultyDevice ->
/// CachingDevice), then hand it here. With no device, each method stores
/// its pages on a private BlockDevice that charges its own counters, so
/// stats() include the block traffic. Two kinds of name ignore `device`:
/// the in-memory methods (skiplist, trie, cracking and the three
/// extremes), which have no pages; and "pbt", whose partition trees stay
/// on private devices because a merge retires whole trees and a BTree
/// cannot yet free its pages back to a shared device.
///
/// Any name may be prefixed with "sharded-" (e.g. "sharded-btree") to wrap
/// `options.sharded.shards` instances of the inner method in a ShardedMethod
/// (hash partitioning, per-shard locking, merged stats); nesting is
/// rejected. All shards share the one device, relying on the stack's
/// internal serialization.
std::unique_ptr<AccessMethod> MakeAccessMethod(std::string_view name,
                                               const Options& options,
                                               Device* device = nullptr);

/// Every name MakeAccessMethod accepts, in display order.
std::vector<std::string_view> AllAccessMethodNames();

}  // namespace rum

#endif  // RUMLAB_METHODS_FACTORY_H_
