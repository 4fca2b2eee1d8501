#ifndef RUMLAB_METHODS_LSM_SORTED_RUN_H_
#define RUMLAB_METHODS_LSM_SORTED_RUN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/counters.h"
#include "core/status.h"
#include "core/types.h"
#include "methods/sketch/blocked_bloom.h"
#include "methods/sketch/bloom_filter.h"
#include "storage/device.h"

namespace rum {

/// Operation carried by one log record.
enum class LogOp : uint8_t {
  kPut = 0,
  kDelete = 1,
};

/// One record of a sorted run or a write buffer: an upsert or a tombstone.
struct LogRecord {
  Key key = 0;
  Value value = 0;
  LogOp op = LogOp::kPut;

  /// On-device footprint of one record: key + value + op byte.
  static constexpr size_t kWireSize = sizeof(Key) + sizeof(Value) + 1;
};

/// Per-batch filter-probe scratch shared across the runs of one MultiGet:
/// probe offsets per pending key, pre-reduced for one filter geometry and
/// re-derived only when a run's geometry differs. `mode` names the
/// geometry the entries are reduced for -- a classic Bloom filter's bit
/// count, or kRawHashes for blocked filters (which probe with the raw
/// mixed hash pair). Classic filters never have fewer than 64 bits, so the
/// sentinels cannot collide with a real bit count.
struct ProbeHashCache {
  static constexpr uint64_t kInvalid = 0;
  static constexpr uint64_t kRawHashes = 1;
  uint64_t mode = kInvalid;
  std::vector<uint64_t> a;  // Classic: MixHash(key) % bits.  Blocked: h1.
  std::vector<uint64_t> b;  // Classic: (MixHash(h1)|1) % bits. Blocked: h2.
};

/// An immutable sorted run of LogRecords on a device -- rumlab's SSTable.
///
/// Data pages (base class) hold key-ordered records (puts and tombstones).
/// Two auxiliary structures accelerate reads, both of the paper's
/// space-for-read trades:
///  - fence pointers: the first key of every page, binary-searched per
///    lookup (charged as auxiliary byte reads);
///  - an optional Bloom filter over the run's keys, probed before any page
///    is read (0 bits/key disables it).
class SortedRun {
 public:
  /// Builds a run from key-ascending records (duplicates not allowed).
  /// All accounting (page writes, filter space) is charged to `counters`
  /// via `device` and directly. `fence_entries` sets the fence-pointer
  /// granularity: one fence per that many records (rounded up to whole
  /// pages; 0 = one fence per page) -- sparser fences save auxiliary space
  /// and pay extra page reads per lookup.
  /// With `compress` set, pages store varint key deltas instead of fixed
  /// 17-byte records (the paper's Section-5 compression/computation trade):
  /// sorted keys have small deltas, so runs shrink -- fewer resident blocks
  /// and fewer blocks per range read -- at decode CPU cost.
  /// `blocked_bloom` swaps the classic filter for the single-cache-line
  /// blocked variant (one 64-byte auxiliary read per probe instead of k
  /// scattered byte reads; slightly higher FPR).
  static Status Build(Device* device, RumCounters* counters,
                      const std::vector<LogRecord>& records,
                      size_t bloom_bits_per_key,
                      std::unique_ptr<SortedRun>* out,
                      size_t fence_entries = 0, bool compress = false,
                      bool blocked_bloom = false);

  /// Frees the run's pages. Build() owns nothing until it succeeds.
  ~SortedRun();

  SortedRun(const SortedRun&) = delete;
  SortedRun& operator=(const SortedRun&) = delete;

  /// Point lookup; nullopt when the key is not in this run. `*io_pages` (if
  /// non-null) is incremented by the data pages read.
  Result<std::optional<LogRecord>> Get(Key key);

  /// Batched point lookup over ascending keys (duplicates allowed):
  /// clears `*hits` and appends one (input position, record) pair, in
  /// ascending position order, for every key the run holds (put or
  /// tombstone); positions the run knows nothing about are simply absent.
  /// `cache` carries the batch's pre-reduced filter-probe offsets across
  /// runs: a run whose filter geometry matches reuses them outright, one
  /// that differs re-derives them once for the whole batch.
  ///
  /// Charge-equivalent to calling Get per key: every in-range key is still
  /// filter-probed (probe bytes accumulated and charged in bulk; blocked
  /// filters prefetch the next keys' cache lines ahead of the probes) and
  /// fence-searched individually, but each data page is pinned once for
  /// all keys that land on it, with the saved pins recorded as
  /// batched_page_hits.
  Status MultiGet(std::span<const Key> keys, ProbeHashCache* cache,
                  std::vector<std::pair<uint32_t, LogRecord>>* hits);

  /// A forward iterator over the run's records, positioned by (page, slot)
  /// and advanced one record at a time. Page loads are charged exactly like
  /// Get/VisitRange reads; fence searches (SeekFirstAtLeast) charge the
  /// usual auxiliary probe bytes. Offsets are stable for the run's lifetime
  /// (runs are immutable), which is what lets the cross-run index persist
  /// them across scans. A cursor whose stored offset points past a page's
  /// record count (possible only when crash recovery lost page contents)
  /// clamps forward to the next readable record instead of failing.
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(SortedRun* run) : run_(run) {}

    /// Positions at (page, slot), clamping forward past short or empty
    /// pages; past-the-end positions leave the cursor invalid.
    Status SeekTo(size_t page, size_t slot);
    /// Positions at the first record with key >= `key` (fence search plus
    /// page reads, all charged); invalid when no such record exists.
    Status SeekFirstAtLeast(Key key);
    /// Advances forward to the first record with key >= `key` (no-op when
    /// already there). Requires a prior successful Seek*.
    Status AdvanceToAtLeast(Key key);
    /// Steps to the next record; the cursor becomes invalid at the end.
    Status Next();

    bool Valid() const { return run_ != nullptr && page_ < run_->pages_.size(); }
    const LogRecord& record() const { return records_[slot_]; }
    size_t page_index() const { return page_; }
    size_t slot_index() const { return slot_; }
    const SortedRun* run() const { return run_; }

   private:
    /// Loads page `page_` into records_, skipping forward past empty pages.
    Status LoadCurrent();

    SortedRun* run_ = nullptr;
    size_t page_ = 0;
    size_t slot_ = 0;
    std::vector<LogRecord> records_;  // Decoded records of page `page_`.
  };

  /// Visits records with lo <= key <= hi in ascending order.
  Status VisitRange(Key lo, Key hi,
                    const std::function<void(const LogRecord&)>& visit);

  /// Visits every record in order (compaction input); fully charged.
  Status VisitAll(const std::function<void(const LogRecord&)>& visit);

  /// Frees all pages and releases auxiliary space. Called by the
  /// destructor; safe to call once explicitly.
  Status Destroy();

  uint64_t record_count() const { return record_count_; }
  size_t page_count() const { return pages_.size(); }
  Key min_key() const { return min_key_; }
  Key max_key() const { return max_key_; }
  bool has_bloom() const {
    return bloom_ != nullptr || blocked_bloom_ != nullptr;
  }
  const BloomFilter* bloom() const { return bloom_.get(); }
  const BlockedBloomFilter* blocked_bloom() const {
    return blocked_bloom_.get();
  }
  bool compressed() const { return compressed_; }

  /// In-memory fence-pointer bytes currently charged as auxiliary space
  /// (0 before the Build-time charge lands and after Destroy) -- one term
  /// of the owner's memory-footprint ledger.
  uint64_t fence_bytes() const {
    return fences_charged_ ? fences_.size() * sizeof(Key) : 0;
  }
  /// Bloom-filter bytes currently charged (0 without a filter or after
  /// Destroy); covers whichever filter variant the run carries.
  uint64_t filter_bytes() const {
    if (bloom_ != nullptr) return bloom_->space_bytes();
    if (blocked_bloom_ != nullptr) return blocked_bloom_->space_bytes();
    return 0;
  }

  /// Attaches a shared bloom-outcome tally; Get records every filter
  /// verdict into it (may be null to detach).
  void set_filter_stats(FilterStats* stats) { filter_stats_ = stats; }

 private:
  SortedRun(Device* device, RumCounters* counters);

  Status LoadPage(size_t page_index, std::vector<LogRecord>* out);
  /// Charged binary search over the in-memory fence keys; returns the
  /// index of the *page group* the key may live in (first page =
  /// group * pages_per_fence_).
  size_t FenceSearch(Key key) const;
  /// Probes whichever filter variant the run carries (true without one).
  bool MayContainKey(Key key) const {
    if (bloom_ != nullptr) return bloom_->MayContain(key);
    if (blocked_bloom_ != nullptr) return blocked_bloom_->MayContain(key);
    return true;
  }
  /// Records a post-bloom lookup verdict into the attached tally.
  void NoteFilterOutcome(bool found) {
    if (!has_bloom() || filter_stats_ == nullptr) return;
    (found ? filter_stats_->true_positives : filter_stats_->false_positives)
        .fetch_add(1, std::memory_order_relaxed);
  }

  Device* device_;         // Not owned.
  RumCounters* counters_;  // Not owned.
  std::vector<PageId> pages_;
  std::vector<Key> fences_;  // First key of each fence group.
  size_t pages_per_fence_ = 1;
  std::unique_ptr<BloomFilter> bloom_;
  std::unique_ptr<BlockedBloomFilter> blocked_bloom_;
  FilterStats* filter_stats_ = nullptr;  // Not owned; may be null.
  size_t records_per_page_ = 0;
  bool compressed_ = false;
  uint64_t record_count_ = 0;
  Key min_key_ = 0;
  Key max_key_ = 0;
  /// Build charges the fence bytes only once every page landed; a run
  /// abandoned mid-Build must not *release* a charge that never happened.
  bool fences_charged_ = false;
  bool destroyed_ = false;
  /// MultiGet scratch, kept across calls so a tree probing this run once
  /// per batch reuses the capacity instead of re-allocating it. Methods
  /// are externally synchronized, so plain members are safe.
  std::vector<uint32_t> mg_live_;
  std::vector<size_t> mg_groups_;
};

/// Merges sorted record streams (newest first) into one; drops shadowed
/// versions, and tombstones too when `drop_tombstones`.
std::vector<LogRecord> MergeLogStreams(
    std::vector<std::vector<LogRecord>> streams, bool drop_tombstones);

/// Appends one run's records to `records` (charged: compaction reads every
/// input page). A failed page read is returned, never merged around.
Status GatherSortedRun(SortedRun* run, std::vector<LogRecord>* records);

/// Gathers `inputs` (newest first, charged reads) and merges them.
Status MergeSortedRuns(const std::vector<SortedRun*>& inputs,
                       bool drop_tombstones, std::vector<LogRecord>* merged);

}  // namespace rum

#endif  // RUMLAB_METHODS_LSM_SORTED_RUN_H_
