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

void CrossRunIndex::OnRunRetiring(const SortedRun* run) {
  if (segments_.empty()) return;
  // Arithmetic only: maintenance consults no charged structure. A run's
  // offsets lie in the segments its [min_key, max_key] spans, and nowhere
  // else.
  size_t last_index = segments_.size() - 1;
  auto segment_of = [&](Key key) {
    return key <= anchor_lo_
               ? 0
               : std::min(last_index,
                          static_cast<size_t>((key - anchor_lo_) / step_));
  };
  size_t erased = 0;
  for (size_t i = segment_of(run->min_key()); i <= segment_of(run->max_key());
       ++i) {
    erased += std::erase_if(segments_[i].offsets,
                            [run](const Offset& o) { return o.run == run; });
  }
  SetCharge(charged_bytes_ - erased * kOffsetBytes);
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

Status CrossRunIndex::SeekFrom(size_t segment, Key lo,
                               SortedRun::Cursor* cursor) {
  std::vector<Offset>& offsets = segments_[segment].offsets;
  const SortedRun* run = cursor->run();
  auto stored = std::find_if(offsets.begin(), offsets.end(),
                             [run](const Offset& o) { return o.run == run; });
  Status s;
  if (stored != offsets.end()) {
    s = cursor->SeekTo(stored->page, stored->slot);
  } else {
    s = cursor->SeekFirstAtLeast(AnchorOf(segment));
    if (s.ok() && cursor->Valid()) {
      offsets.push_back(Offset{run,
                               static_cast<uint32_t>(cursor->page_index()),
                               static_cast<uint32_t>(cursor->slot_index())});
      SetCharge(charged_bytes_ + kOffsetBytes);
    }
  }
  if (!s.ok()) return s;
  return cursor->AdvanceToAtLeast(lo);
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
    // Consulting the segment reads the offsets it holds.
    counters_->OnRead(DataClass::kAux,
                      segments_[segment].offsets.size() * kOffsetBytes);
  }

  out->reserve(overlapping.size());
  for (SortedRun* run : overlapping) {
    SortedRun::Cursor cursor(run);
    Status s = run->min_key() >= lo ? cursor.SeekTo(0, 0)
                                    : SeekFrom(segment, lo, &cursor);
    if (!s.ok()) return s;
    out->push_back(std::move(cursor));
  }
  return Status::OK();
}

}  // namespace rum
