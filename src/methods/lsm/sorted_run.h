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
/// each pending key's probe offsets, reduced modulo one filter's bit count
/// and re-derived only when a run's filter has a different one. Filters
/// never have fewer than 64 bits, so kInvalid cannot collide with a real
/// bit count.
struct ProbeHashCache {
  static constexpr uint64_t kInvalid = 0;
  uint64_t bit_count = kInvalid;  // The geometry `a` and `b` are reduced for.
  std::vector<uint64_t> a;        // MixHash(key) % bit_count.
  std::vector<uint64_t> b;        // (MixHash(MixHash(key)) | 1) % bit_count.
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
  /// One pinned run page, read in place in either format. Open checks the
  /// record count and lands on the first record; after that the reader
  /// only moves forward. Fixed-width records are read, and binary-searched,
  /// where they lie; compressed ones are stepped through by adding each key
  /// delta. Only record() builds a LogRecord. A compressed record that
  /// would run past the block ends the page early and sets truncated(),
  /// which each walk checks once, when the page runs out.
  class PageReader {
   public:
    Status Open(std::span<const uint8_t> block, bool compressed);
    /// False once the reader is past the page's last readable record.
    bool valid() const { return slot_ < size_; }
    size_t slot() const { return slot_; }
    bool truncated() const { return truncated_; }
    /// The key and the record at the reader (requires valid()).
    Key key() const;
    LogRecord record() const;
    /// Steps to the next record.
    void Next();
    /// Moves forward to record `slot`.
    void SeekSlot(size_t slot);
    /// Moves forward to the first record keyed >= `key`.
    void SeekAtLeast(Key key);

   private:
    /// Compressed pages: steps forward while the reader is before record
    /// `slot` or on a key below `key`.
    void Skip(size_t slot, Key key);
    void Truncate() {
      truncated_ = true;
      slot_ = size_;
    }
    Key KeyAt(size_t slot) const;  // Fixed-width only.

    const uint8_t* block_ = nullptr;
    size_t block_size_ = 0;
    size_t size_ = 0;  // Record count, checked against the block.
    size_t slot_ = 0;
    // Compressed pages: the current record's key and the offset of its
    // value bytes.
    Key key_ = 0;
    size_t tail_ = 0;
    bool compressed_ = false;
    bool truncated_ = false;
  };

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
  static Status Build(Device* device, RumCounters* counters,
                      const std::vector<LogRecord>& records,
                      size_t bloom_bits_per_key,
                      std::unique_ptr<SortedRun>* out,
                      size_t fence_entries = 0, bool compress = false);

  /// Frees the run's pages. Build() owns nothing until it succeeds.
  ~SortedRun();

  SortedRun(const SortedRun&) = delete;
  SortedRun& operator=(const SortedRun&) = delete;

  /// Point lookup; nullopt when the key is not in this run. After the
  /// bounds check, filter probe and fence search it is MultiGet's page walk
  /// for one key, so the two charge alike.
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
  /// filter-probed (probe bytes accumulated and charged in bulk) and
  /// fence-searched individually, but each data page is pinned once for
  /// all keys that land on it, with the saved pins recorded as
  /// batched_page_hits.
  using Hits = std::vector<std::pair<uint32_t, LogRecord>>;
  Status MultiGet(std::span<const Key> keys, ProbeHashCache* cache,
                  Hits* hits);

  /// A forward iterator over the run's records, positioned by (page, slot)
  /// and advanced one record at a time. It reads through a read pin of the
  /// page it is on, held across calls and released when it steps off the
  /// page or is destroyed; so, like any guard, a cursor must not be held
  /// across Allocate, Free or FlushAll on the run's device. Page pins are
  /// charged exactly like Get/VisitRange reads; fence searches
  /// (SeekFirstAtLeast) charge the usual auxiliary probe bytes. Offsets are
  /// stable for the run's lifetime (runs are immutable), which is what lets
  /// the cross-run index persist them across scans. A cursor whose stored
  /// offset points past a page's record count (possible only when crash
  /// recovery lost page contents) clamps forward to the next readable
  /// record instead of failing.
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
    const LogRecord& record() const { return record_; }
    size_t page_index() const { return page_; }
    size_t slot_index() const { return page_reader_.slot(); }
    const SortedRun* run() const { return run_; }

   private:
    /// Steps off the current page, then pins page `page_` and lands on
    /// record `slot`, skipping forward past short or empty pages.
    Status LoadCurrent(size_t slot);
    /// Lands on the reader's record, or, when the page ran out, pins the
    /// next one (Corruption when it ran out at a truncated record).
    Status Land();

    SortedRun* run_ = nullptr;
    size_t page_ = 0;
    PageReadGuard guard_;     // The pin of page `page_` while Valid().
    PageReader page_reader_;  // Reads page `page_` through `guard_`.
    LogRecord record_;        // The record at the cursor.
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
  bool compressed() const { return compressed_; }

  /// In-memory fence-pointer bytes currently charged as auxiliary space
  /// (0 before the Build-time charge lands and after Destroy) -- one term
  /// of the owner's memory-footprint ledger.
  uint64_t fence_bytes() const {
    return fences_charged_ ? fences_.size() * sizeof(Key) : 0;
  }
  /// Bloom-filter bytes currently charged (0 without a filter or after
  /// Destroy).
  uint64_t filter_bytes() const {
    return bloom_ != nullptr ? bloom_->space_bytes() : 0;
  }

  /// Attaches a shared bloom-outcome tally; Get records every filter
  /// verdict into it (may be null to detach).
  void set_filter_stats(FilterStats* stats) { filter_stats_ = stats; }

 private:
  SortedRun(Device* device, RumCounters* counters);

  /// Charged binary search over the in-memory fence keys; returns the
  /// index of the *page group* the key may live in (first page =
  /// group * pages_per_fence_).
  size_t FenceSearch(Key key) const;
  /// The lookup walk Get runs for one key and MultiGet for each fence
  /// group: resolves keys[waiting[j]] for every j -- ascending keys that
  /// all fence-searched to `group` -- pinning each page of the group once
  /// for all the keys still waiting on it (each pin shared by k of them
  /// credits k-1 batched_page_hits). Appends a (position, record) pair to
  /// `hits` for every key found and records each key's filter outcome.
  Status WalkGroup(size_t group, std::span<const Key> keys,
                   std::span<const uint32_t> waiting, Hits* hits);
  /// Records a post-filter lookup verdict into the attached tally.
  void NoteFilterOutcome(bool found) {
    if (bloom_ == nullptr || filter_stats_ == nullptr) return;
    (found ? filter_stats_->true_positives : filter_stats_->false_positives)
        .fetch_add(1, std::memory_order_relaxed);
  }
  /// Visits the records with lo <= key <= hi from page `first_page` on,
  /// each under the pin of its page.
  Status VisitFrom(size_t first_page, Key lo, Key hi,
                   const std::function<void(const LogRecord&)>& visit);

  Device* device_;         // Not owned.
  RumCounters* counters_;  // Not owned.
  std::vector<PageId> pages_;
  std::vector<Key> fences_;  // First key of each fence group.
  size_t pages_per_fence_ = 1;
  std::unique_ptr<BloomFilter> bloom_;
  FilterStats* filter_stats_ = nullptr;  // Not owned; may be null.
  bool compressed_ = false;
  uint64_t record_count_ = 0;
  Key min_key_ = 0;
  Key max_key_ = 0;
  /// Build charges the fence bytes only once every page landed; a run
  /// abandoned mid-Build must not *release* a charge that never happened.
  bool fences_charged_ = false;
  bool destroyed_ = false;
  /// Lookup scratch, kept across calls so a tree probing this run once per
  /// Get or batch reuses the capacity instead of re-allocating it. Methods
  /// are externally synchronized, so plain members are safe.
  std::vector<uint32_t> mg_live_;
  std::vector<size_t> mg_groups_;
  Hits get_hits_;
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
