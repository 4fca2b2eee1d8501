#ifndef RUMLAB_CORE_OPTIONS_H_
#define RUMLAB_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "core/memory_budget.h"
#include "core/status.h"
#include "core/types.h"

namespace rum {

/// Compaction policy for the LSM-tree (Section 5's "dynamic merge depth"
/// knob). Each value names a `CompactionPolicy` strategy implementation
/// (methods/lsm/compaction_policy.h):
///  - kLeveled: one run per level; every flush merges eagerly (lowest read
///    amplification, highest write amplification);
///  - kTiered: up to `size_ratio` runs per level, merged only when the
///    level fills (lowest write amplification, highest read amplification);
///  - kLazyLeveled: tiered in every level except the last populated one,
///    which stays a single run -- point reads nearly as cheap as leveled
///    while upper-level writes stay tiered-cheap;
///  - kHybrid: per-level composition -- the shallowest
///    `lsm.hybrid_tiered_levels` levels merge tiered, deeper levels merge
///    leveled, placing an intermediate point on the read/write curve.
enum class LsmPolicy {
  kLeveled,
  kTiered,
  kLazyLeveled,
  kHybrid,
};

/// The LSM-tree's in-memory write buffer, a RUM knob of its own:
///  - kSkipList: sorted (methods/skiplist). Point reads descend its towers,
///    bought with pointer MO and a descent per write;
///  - kAppendBuffer: unsorted (methods/lsm/append_buffer.h). A write is one
///    append with no tower, and every point read reads the whole buffer.
///    It is the stepped-merge tree's buffer.
enum class LsmMemtable {
  kSkipList,
  kAppendBuffer,
};

/// Tuning knobs shared by every access method plus per-method sections.
///
/// Every knob here is one of the paper's RUM dials: block size and node size
/// trade read granularity against space; fill factors trade space against
/// update cost; size ratios and run counts trade write amplification against
/// read amplification; bits-per-key trades space against read amplification.
struct Options {
  /// Simulated device block size in bytes (the paper's "minimum access
  /// granularity"). Must be a multiple of kEntrySize.
  size_t block_size = 4096;

  // --------------------------------------------------------------- Storage
  struct Storage {
    /// Retry policy a RetryingDevice applies to fallible device operations
    /// that fail with kIOError (transient faults in the simulated fault
    /// model; kCorruption is never retried -- a checksum mismatch does not
    /// heal). Retries and the errors that triggered them are charged to the
    /// `retries`/`io_errors` counter pair; failed attempts move no bytes and
    /// are never charged as traffic. An operation whose whole attempt budget
    /// (> 1 attempts) burns down without the kIOError clearing returns
    /// kUnavailable (with the total simulated backoff attached) instead of
    /// the last kIOError: "still retrying" and "dead" are distinguishable
    /// codes, which is what the request scheduler's deadline/degrade logic
    /// keys on. A single-attempt (fail-fast) policy keeps returning kIOError.
    struct Retry {
      /// Total attempts per operation (1 = fail fast, no retry).
      size_t max_attempts = 1;
      /// Simulated backoff before retry k (1-based): backoff_base_us << (k-1).
      /// Deterministic -- no clock is consulted; the accumulated simulated
      /// wait is reported by the RetryingDevice, not slept.
      uint64_t backoff_base_us = 100;
    } retry;
  } storage;

  // ---------------------------------------------------------------- B+-Tree
  struct BTree {
    /// Leaf/inner node size in bytes; 0 means "one device block".
    size_t node_size = 0;
    /// Target fill fraction for bulk loads, in (0, 1].
    double bulk_fill = 1.0;
    /// Nodes split when full; after a split each half holds this fraction.
    double split_fraction = 0.5;
  } btree;

  // ------------------------------------------------------------ Hash index
  struct Hash {
    /// Bucket directory slots per entry at bulk load. Larger wastes space;
    /// at or below 1/0.7 the first post-load insert triggers a rehash.
    double directory_fanout = 1.6;
  } hash;

  // -------------------------------------------------------------- ZoneMaps
  struct ZoneMap {
    /// Entries per zone (the paper's partition size P, in tuples).
    size_t zone_entries = 4096;
  } zonemap;

  // ------------------------------------------------------------------- LSM
  struct Lsm {
    /// Entries buffered in the in-memory memtable before a flush.
    size_t memtable_entries = 4096;
    /// The memtable's kind (see LsmMemtable above).
    LsmMemtable memtable = LsmMemtable::kSkipList;
    /// Size ratio T between adjacent levels.
    size_t size_ratio = 4;
    /// Merge policy (see LsmPolicy above).
    LsmPolicy policy = LsmPolicy::kLeveled;
    /// kHybrid only: levels below this index merge tiered (up to
    /// `size_ratio` runs); levels at or beyond it keep one run each.
    /// 0 degenerates to leveled everywhere.
    size_t hybrid_tiered_levels = 2;
    /// Bloom-filter bits per key on every run; 0 disables filters.
    size_t bloom_bits_per_key = 10;
    /// Fence pointer granularity: one fence per this many entries.
    size_t fence_entries = 256;
    /// Delta-compress run pages (varint key deltas): the paper's Section-5
    /// "compression and computation" trade -- smaller runs (lower MO,
    /// fewer blocks per read) for encode/decode CPU.
    bool compress_runs = false;
    /// Maintain a REMIX-style cross-run sorted view (see
    /// methods/lsm/cross_run_index.h): segments of the key space store
    /// per-run cursor offsets so a range scan does one segment lookup and
    /// opens pre-positioned cursors instead of fence-searching every run.
    /// Bought MO (charged as auxiliary space) for range RO. Scans lay the
    /// segments out and store each run's offset the first time they seek
    /// it, so scan-free workloads pay nothing; an offset lives as long as
    /// its run. Off, Scan degrades to a k-way merge with per-run fence
    /// searches; results are byte-identical either way (differential_test
    /// enforces it).
    bool cross_run_index = true;
    /// Target records per cross-run-index segment: smaller segments mean
    /// more anchors (more auxiliary space: one offset per run per segment)
    /// and a shorter in-segment advance per scan.
    size_t cross_run_segment_entries = 1024;
  } lsm;

  // ------------------------------------------------- Sorted-column fences
  struct Column {
    /// Maintain an in-memory sparse index (first key per page) over the
    /// sorted column, replacing device binary search with memory probes --
    /// Figure 1's "Sparse Index".
    bool sparse_index = false;
  } column;

  // --------------------------------------------- Partitioned B-tree (PBT)
  struct Pbt {
    /// Entries per partition before a new one opens.
    size_t partition_entries = 4096;
    /// Partitions tolerated before they merge into one.
    size_t max_partitions = 4;
  } pbt;

  // ---------------------------------------------------------- Bitmap index
  struct Bitmap {
    /// Distinct indexed values (bitmap cardinality); keys are bucketed into
    /// this many value bins.
    size_t cardinality = 64;
    /// Key domain partitioned equally into the bins (keys beyond the domain
    /// land in the last bin).
    Key key_domain = 1u << 20;
    /// Absorb updates into uncompressed delta bitvectors and merge lazily
    /// (the paper's Section-5 "update-friendly bitmap indexes").
    bool update_friendly = true;
    /// Merge a delta bitvector into the compressed bitmap once it holds
    /// this many set bits.
    size_t delta_merge_threshold = 1024;
  } bitmap;

  // --------------------------------------------- Approximate index (Bloom)
  struct Approx {
    /// Entries per Bloom-filtered zone.
    size_t zone_entries = 4096;
    /// Bloom bits per key in each zone filter.
    size_t bits_per_key = 10;
    /// Rebuild (garbage-collect) once this fraction of rows is deleted.
    double rebuild_deleted_fraction = 0.25;
  } approx;

  // -------------------------------------------------------------- Cracking
  struct Cracking {
    /// Stop cracking a piece once it is at most this many entries.
    size_t min_piece_entries = 128;
    /// Pending inserts/deletes tolerated before they merge into the column
    /// (a merge rebuilds and re-cracks from scratch).
    size_t delta_merge_threshold = 4096;
  } cracking;

  // ----------------------------------------------------------------- Trie
  struct Trie {
    /// Bits consumed per trie level (fan-out = 2^span).
    size_t span_bits = 8;
  } trie;

  // ------------------------------------------------------------- Skiplist
  struct SkipList {
    /// Probability of promoting a node one level up.
    double promote_probability = 0.25;
    /// Hard cap on tower height.
    size_t max_height = 16;
  } skiplist;

  // ------------------------------------------------------------- Extremes
  struct Extremes {
    /// MagicArray capacity = max representable key + 1. Queries/inserts
    /// beyond this fail with kOutOfRange.
    Key magic_array_domain = 1u << 20;
  } extremes;

  // ------------------------------------------ Update absorber (QF-guarded)
  struct Absorber {
    /// Buffered operations before they drain into the base structure.
    size_t delta_entries = 4096;
    /// Quotient-filter remainder bits (false positives ~ load / 2^r).
    size_t qf_remainder_bits = 12;
  } absorber;

  // ---------------------------------------------------- Hot/cold steering
  struct HotCold {
    /// Maximum entries in the in-memory hot table.
    size_t hot_capacity = 4096;
    /// Sketch estimate at which a key is promoted to the hot table.
    uint64_t promote_estimate = 3;
  } hot_cold;

  // ------------------------------------------------------------- Sharding
  struct Sharded {
    /// Inner AccessMethod instances a ShardedMethod hash-partitions keys
    /// across. More shards lower lock contention under concurrent load at
    /// the cost of per-shard fixed overheads (one structure's metadata per
    /// shard raises MO slightly).
    size_t shards = 4;
  } sharded;

  // ------------------------------------------------------ Service front-end
  /// The request-scheduler service layer (src/service/): a front-end between
  /// workload drivers and access methods that absorbs overload instead of
  /// letting a fault storm or an arrival spike stretch every caller's
  /// latency without bound. Time inside the scheduler is *virtual*
  /// (microsecond ticks advanced by a deterministic cost model), so queueing
  /// dynamics, deadline misses, and admission decisions replay exactly under
  /// a fixed seed -- on any host, under any sanitizer. These knobs configure
  /// the RequestScheduler a caller constructs (directly or via RunOpenLoop);
  /// MakeAccessMethod never wraps a method in one.
  struct Service {
    /// Bounded per-shard request queue; an arrival finding it full is shed
    /// immediately (kResourceExhausted, storage untouched).
    size_t queue_capacity = 1024;

    /// Group-commit window: up to this many adjacent same-kind requests
    /// (a run of mutations, or a run of reads) dispatch as one batch,
    /// paying one dispatch_overhead_us for the window. Duplicate-key Gets
    /// inside one read batch share one method call (physical read charged
    /// once).
    size_t batch_max_ops = 16;

    /// Per-request deadline measured from arrival, in virtual microseconds;
    /// a request popped after expiry completes kDeadlineExceeded without
    /// touching the device. 0 disables deadlines.
    uint64_t deadline_us = 0;

    /// CoDel admission on or off. The queue_capacity bound holds either
    /// way.
    bool admission = true;
    /// CoDel queue-delay target: sustained sojourn above this for one
    /// interval puts the shard in a dropping state that sheds heads on the
    /// standard sqrt control-law schedule until delay recovers.
    uint64_t codel_target_us = 2000;
    uint64_t codel_interval_us = 20000;

    /// Virtual service-cost model: a batch window costs
    /// dispatch_overhead_us + ops_in_batch * op_cost_us (scans cost
    /// scan_cost_us each) of server time on its shard. These set the
    /// simulated capacity that open-loop arrivals saturate.
    uint64_t dispatch_overhead_us = 8;
    uint64_t op_cost_us = 2;
    uint64_t scan_cost_us = 16;

    /// Latency SLO for goodput accounting: completions within slo_us of
    /// arrival count as goodput (ServiceStats::completed_within_slo).
    /// 0 means every completion counts.
    uint64_t slo_us = 0;
  } service;

  // ------------------------------------------------------- Memory arbitration
  /// Global adaptive memory arbitration (src/adaptive/memory_arbiter.h):
  /// one byte budget dynamically split across CachingDevice capacity, LSM
  /// memtable thresholds, and bloom/sketch filter memory, re-planned every
  /// epoch from marginal-benefit estimates (cache miss bytes, flush/merge
  /// bytes, filter false-positive bytes). The budget, epoch length and
  /// replan limits live in the arbiter (MemoryArbiter::Config).
  ///
  /// Off (the default), no pool registers and every component keeps its
  /// statically configured size -- the byte-identical static path that
  /// memory_arbiter_test's differential case enforces. On, components
  /// constructed with these options register their pools with `arbiter`
  /// (the factory passes one Options to every shard, so a sharded stack
  /// registers every shard's pools with the same arbiter).
  struct Memory {
    /// Master switch; requires `arbiter` to be set.
    bool enabled = false;
    /// The registrar components register with. Borrowed: the arbiter must
    /// outlive every method constructed with these options.
    MemoryRegistrar* arbiter = nullptr;
  } memory;

  // -------------------------------------------------------------- Morphing
  struct Morphing {
    /// Target point in RUM space; the morphing method picks its internal
    /// shape (log / sorted runs / tree) to approach it. Range [0,1] each.
    double read_priority = 1.0 / 3;
    double write_priority = 1.0 / 3;
    double space_priority = 1.0 / 3;
  } morphing;
};

/// Checks every knob for internal consistency (sizes large enough for
/// their page formats, fractions in range, spans dividing the key width).
/// Returns the first violation found.
Status ValidateOptions(const Options& options);

}  // namespace rum

#endif  // RUMLAB_CORE_OPTIONS_H_
