#ifndef RUMLAB_METHODS_LSM_CROSS_RUN_INDEX_H_
#define RUMLAB_METHODS_LSM_CROSS_RUN_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/counters.h"
#include "core/status.h"
#include "core/types.h"
#include "methods/lsm/sorted_run.h"

namespace rum {

/// A REMIX-style cross-run sorted view: the space-for-read RUM trade that
/// makes an LSM range scan one segment lookup plus a sequential walk
/// instead of a per-run fence search.
///
/// The key space [global_min, global_max] is partitioned into fixed-width
/// segments (~`segment_entries` records each at layout time). A segment
/// stores, per run, the (page, slot) cursor offset of the run's first
/// record >= the segment's anchor key. A scan (PositionCursors, then
/// MergeNewestWins in methods/newest_wins_merge.h) locates lo's segment
/// with one charged binary search, opens one cursor per run overlapping
/// [lo, hi] (disjoint runs are skipped without any I/O), positions each
/// cursor from its stored offset plus a short in-segment advance, and
/// k-way merges forward -- no per-run fence search, no fence-group slack
/// pages, no hash map, no re-sort.
///
/// Offsets are filled in by the scans themselves and kept until their run
/// retires. A run with no offset in lo's segment yet is fence-searched to
/// the anchor by the scan's own cursor, which stores where it landed and
/// then advances on to lo; so each run is sought once per scan, and once
/// per segment over its life. Runs are immutable and a layout's anchors are
/// fixed, so a stored offset never goes stale: a new run invalidates
/// nothing, and a retiring run (OnRunRetiring) erases only its own offsets.
/// The whole layout, offsets included, is recomputed only when the tree
/// outgrows it (total records drift 2x from layout time, or the key domain
/// escapes the anchor coverage).
///
/// Accounting: segment structs and stored offsets are charged as auxiliary
/// space (bought MO, visible in stats()); segment binary-search probes and
/// offset-table consults are charged as auxiliary reads, exactly like
/// fence-pointer probes. Cursor positioning and page walks charge through
/// SortedRun as usual.
///
/// Run recency is NOT stored in the index: the caller passes runs in
/// recency order (levels top-down, newest-first within a level -- Get's
/// probe order), and merge priority is the position in that vector. A
/// lazy-leveled relocation that moves a run between levels therefore
/// keeps its offsets: they are per-run and priority is derived per scan.
class CrossRunIndex {
  struct Offset {
    const SortedRun* run;
    uint32_t page;
    uint32_t slot;
  };
  struct Segment {
    std::vector<Offset> offsets;
  };

 public:
  /// Accounting weight of one segment struct / one stored offset.
  static constexpr uint64_t kSegmentBytes = sizeof(Segment);
  static constexpr uint64_t kOffsetBytes = sizeof(Offset);

  /// `counters` receives the space/read charges; `segment_entries` sets
  /// the target records per segment (the MO-for-RO dial).
  CrossRunIndex(RumCounters* counters, size_t segment_entries);
  /// Releases all charged auxiliary space.
  ~CrossRunIndex();

  CrossRunIndex(const CrossRunIndex&) = delete;
  CrossRunIndex& operator=(const CrossRunIndex&) = delete;

  /// A run is about to be destroyed: erases its stored offsets, and only
  /// those.
  void OnRunRetiring(const SortedRun* run);

  /// Positions one cursor per run overlapping [lo, hi] (recency order
  /// preserved from `runs_newest_first`; see class comment), filling
  /// `out` ready for the merge. Lazily (re)builds the layout and stores the
  /// offsets lo's segment lacks. The merge stays with the caller so its
  /// visitor inlines.
  Status PositionCursors(const std::vector<SortedRun*>& runs_newest_first,
                         Key lo, Key hi,
                         std::vector<SortedRun::Cursor>* out);

  /// Segments in the current layout (0 before any scan).
  size_t segment_count() const { return segments_.size(); }
  /// Auxiliary bytes currently charged for the segment table.
  uint64_t charged_bytes() const { return charged_bytes_; }
  /// Layout rebuilds since construction (first build included).
  uint64_t relayouts() const { return relayouts_; }

 private:
  Key AnchorOf(size_t segment) const { return anchor_lo_ + step_ * segment; }

  /// Recomputes the segment layout when the run set has outgrown it;
  /// drops every stored offset.
  void MaybeRelayout(uint64_t total_records, Key global_min, Key global_max);
  /// Segment index covering `key` (charged binary-search probes).
  size_t SegmentFor(Key key);
  /// Positions `cursor` on its run's first record >= `lo` from the run's
  /// offset in `segment`, seeking the anchor and storing the offset first
  /// when the segment has none for the run.
  Status SeekFrom(size_t segment, Key lo, SortedRun::Cursor* cursor);
  /// Adjusts the charged auxiliary space to `bytes`.
  void SetCharge(uint64_t bytes);

  RumCounters* counters_;  // Not owned.
  size_t segment_entries_;

  // Layout state; segments_ is empty until the first scan lays out.
  std::vector<Segment> segments_;
  Key anchor_lo_ = 0;
  Key step_ = 1;  // Key-space width per segment; always >= 1.
  uint64_t layout_records_ = 0;
  uint64_t charged_bytes_ = 0;
  uint64_t relayouts_ = 0;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_LSM_CROSS_RUN_INDEX_H_
