#include "methods/lsm/cross_run_index.h"

#include <algorithm>
#include <cassert>

namespace rum {

CrossRunIndex::CrossRunIndex(RumCounters* counters, size_t segment_entries)
    : counters_(counters),
      segment_entries_(std::max<size_t>(1, segment_entries)) {
  assert(counters != nullptr);
}

CrossRunIndex::~CrossRunIndex() { SetCharge(0); }

void CrossRunIndex::SetCharge(uint64_t bytes) {
  if (bytes == charged_bytes_) return;
  counters_->AdjustSpace(DataClass::kAux,
                         static_cast<int64_t>(bytes) -
                             static_cast<int64_t>(charged_bytes_));
  charged_bytes_ = bytes;
}

void CrossRunIndex::InvalidateRange(Key min_key, Key max_key) {
  if (segments_.empty()) return;
  // Arithmetic only: maintenance consults no charged structure.
  size_t last_index = segments_.size() - 1;
  size_t first = min_key <= anchor_lo_
                     ? 0
                     : std::min(last_index, (min_key - anchor_lo_) / step_);
  size_t last = max_key <= anchor_lo_
                    ? 0
                    : std::min(last_index, (max_key - anchor_lo_) / step_);
  uint64_t charge = charged_bytes_;
  for (size_t i = first; i <= last; ++i) {
    Segment& seg = segments_[i];
    if (!seg.built) continue;
    charge -= seg.offsets.size() * kOffsetBytes;
    seg.offsets.clear();
    seg.offsets.shrink_to_fit();
    seg.built = false;
  }
  SetCharge(charge);
}

void CrossRunIndex::OnRunCreated(const SortedRun* run) {
  InvalidateRange(run->min_key(), run->max_key());
}

void CrossRunIndex::OnRunRetiring(const SortedRun* run) {
  InvalidateRange(run->min_key(), run->max_key());
}

void CrossRunIndex::MaybeRelayout(uint64_t total_records, Key global_min,
                                  Key global_max) {
  if (!segments_.empty() && global_min >= anchor_lo_ &&
      (global_max - anchor_lo_) / step_ < segments_.size() &&
      total_records <= layout_records_ * 2 &&
      total_records * 2 >= layout_records_) {
    return;
  }
  uint64_t nseg =
      std::max<uint64_t>(1, total_records / segment_entries_);
  // step >= 1 and anchor_lo + step * nseg > global_max: every key in
  // [global_min, global_max] maps to a segment below nseg. The step wraps
  // to 0 if one segment would span all 2^64 keys (0 to kMaxKey, under 2 *
  // segment_entries records), so that grid gets two segments instead.
  if ((global_max - global_min) / nseg == kMaxKey) nseg = 2;
  step_ = (global_max - global_min) / nseg + 1;
  anchor_lo_ = global_min;
  layout_records_ = total_records;
  segments_.assign(static_cast<size_t>(nseg), Segment{});
  ++relayouts_;
  SetCharge(nseg * kSegmentBytes);
}

size_t CrossRunIndex::SegmentFor(Key key) {
  // Binary search over segment anchors, charged one anchor key per probe
  // -- the same convention as SortedRun's fence-pointer search. (The
  // fixed-width layout could resolve this arithmetically; the charge
  // models the general variable-anchor structure.)
  size_t lo = 0;
  size_t hi = segments_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    counters_->OnRead(DataClass::kAux, sizeof(Key));
    if (AnchorOf(mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

Status CrossRunIndex::EnsureSegment(size_t segment,
                                    const std::vector<SortedRun*>& all_runs) {
  Segment& seg = segments_[segment];
  if (!seg.built) {
    Key anchor = AnchorOf(segment);
    Key span_end = SpanEndOf(segment);
    seg.offsets.clear();
    for (SortedRun* run : all_runs) {
      if (run->max_key() < anchor || run->min_key() > span_end) continue;
      SortedRun::Cursor cursor(run);
      Status s = cursor.SeekFirstAtLeast(anchor);
      if (!s.ok()) return s;
      if (!cursor.Valid()) continue;
      seg.offsets.push_back(Offset{run,
                                   static_cast<uint32_t>(cursor.page_index()),
                                   static_cast<uint32_t>(cursor.slot_index())});
    }
    seg.built = true;
    SetCharge(charged_bytes_ + seg.offsets.size() * kOffsetBytes);
  }
  // Consulting the segment reads its offset entries.
  counters_->OnRead(DataClass::kAux, seg.offsets.size() * kOffsetBytes);
  return Status::OK();
}

Status CrossRunIndex::PositionCursors(
    const std::vector<SortedRun*>& runs_newest_first, Key lo, Key hi,
    std::vector<SortedRun::Cursor>* out) {
  out->clear();
  if (runs_newest_first.empty()) return Status::OK();
  uint64_t total = 0;
  Key global_min = kMaxKey;
  Key global_max = 0;
  std::vector<SortedRun*> overlapping;
  for (SortedRun* run : runs_newest_first) {
    total += run->record_count();
    global_min = std::min(global_min, run->min_key());
    global_max = std::max(global_max, run->max_key());
    // O(1) bounds: runs disjoint from [lo, hi] cost nothing.
    if (run->max_key() >= lo && run->min_key() <= hi) {
      overlapping.push_back(run);
    }
  }
  if (overlapping.empty()) return Status::OK();
  MaybeRelayout(total, global_min, global_max);

  // The segment table is consulted only when some run needs mid-run
  // positioning; runs whose records all lie at or beyond lo start at
  // their first page, no lookup required.
  bool need_segment = false;
  for (SortedRun* run : overlapping) {
    if (run->min_key() < lo) {
      need_segment = true;
      break;
    }
  }
  size_t segment = 0;
  if (need_segment) {
    segment = SegmentFor(lo);
    Status s = EnsureSegment(segment, runs_newest_first);
    if (!s.ok()) return s;
  }

  out->reserve(overlapping.size());
  for (SortedRun* run : overlapping) {
    SortedRun::Cursor cursor(run);
    Status s;
    if (run->min_key() >= lo) {
      s = cursor.SeekTo(0, 0);
    } else {
      const Offset* offset = nullptr;
      for (const Offset& o : segments_[segment].offsets) {
        if (o.run == run) {
          offset = &o;
          break;
        }
      }
      if (offset != nullptr) {
        s = cursor.SeekTo(offset->page, offset->slot);
        if (s.ok()) s = cursor.AdvanceToAtLeast(lo);
      } else {
        // Defensive: an overlapping run always has a segment entry (the
        // invalidation hooks guarantee it); fall back to a fence search.
        s = cursor.SeekFirstAtLeast(lo);
      }
    }
    if (!s.ok()) return s;
    out->push_back(std::move(cursor));
  }
  return Status::OK();
}

}  // namespace rum
