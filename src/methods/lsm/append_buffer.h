#ifndef RUMLAB_METHODS_LSM_APPEND_BUFFER_H_
#define RUMLAB_METHODS_LSM_APPEND_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/counters.h"
#include "methods/lsm/sorted_run.h"
#include "methods/skiplist/skiplist.h"

namespace rum {

/// The unsorted LSM memtable (`LsmMemtable::kAppendBuffer`), the
/// stepped-merge tree's write buffer (Jagadish et al., VLDB 1997): every
/// write appends one record, duplicates and all, in arrival order.
///
/// It is the skip list's opposite RUM trade. A write is one append, with no
/// descent and no tower (no pointer MO); a lookup reads the whole buffer.
/// Charges to the borrowed `counters`: each record is LogRecord::kWireSize
/// bytes of auxiliary space and one auxiliary write of that size, and Find
/// and VisitRange each read every buffered record.
///
/// It offers the calls LsmTree makes on SkipListMap, over the same Record.
class AppendBuffer {
 public:
  using Record = SkipListMap::Record;

  explicit AppendBuffer(RumCounters* counters) : counters_(counters) {}

  /// Appends a value or a tombstone for `key`.
  void Put(Key key, Value value, bool tombstone) {
    records_.push_back(Record{key, value, tombstone});
    counters_->OnWrite(DataClass::kAux, LogRecord::kWireSize);
    counters_->AdjustSpace(DataClass::kAux, LogRecord::kWireSize);
  }

  /// Finds the newest record for `key`, scanning from the newest end.
  bool Find(Key key, Record* out) {
    ChargeFullRead();
    for (size_t i = records_.size(); i-- > 0;) {
      if (records_[i].key == key) {
        *out = records_[i];
        return true;
      }
    }
    return false;
  }

  /// Visits the newest record of each key in [lo, hi], ascending.
  template <typename Visit>
  void VisitRange(Key lo, Key hi, Visit&& visit) {
    ChargeFullRead();
    std::vector<Record> window;
    for (const Record& r : records_) {
      if (r.key >= lo && r.key <= hi) window.push_back(r);
    }
    for (const Record& r : NewestPerKey(std::move(window))) visit(r);
  }

  /// Visits the newest record of every key, ascending, without charging
  /// reads (a flush's cost is charged by the run it builds).
  template <typename Visit>
  void VisitAllUnaccounted(Visit&& visit) const {
    for (const Record& r : NewestPerKey(records_)) visit(r);
  }

  /// Drops every record and its space.
  void Clear() {
    counters_->AdjustSpace(DataClass::kAux,
                           -static_cast<int64_t>(SizeBytes()));
    records_.clear();
  }

  /// Records buffered, duplicates and tombstones included.
  size_t record_count() const { return records_.size(); }

 private:
  uint64_t SizeBytes() const {
    return records_.size() * LogRecord::kWireSize;
  }
  void ChargeFullRead() { counters_->OnRead(DataClass::kAux, SizeBytes()); }

  // Sorts records (newest last) by key, keeping each key's newest version:
  // reversed, it comes first among equal keys, a stable sort keeps it
  // there, and unique keeps the first.
  static std::vector<Record> NewestPerKey(std::vector<Record> records) {
    std::ranges::reverse(records);
    std::ranges::stable_sort(records, {}, &Record::key);
    records.erase(std::ranges::unique(records, {}, &Record::key).begin(),
                  records.end());
    return records;
  }

  RumCounters* counters_;  // Not owned.
  std::vector<Record> records_;  // Arrival order, newest last.
};

}  // namespace rum

#endif  // RUMLAB_METHODS_LSM_APPEND_BUFFER_H_
