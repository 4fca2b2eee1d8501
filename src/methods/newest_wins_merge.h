#ifndef RUMLAB_METHODS_NEWEST_WINS_MERGE_H_
#define RUMLAB_METHODS_NEWEST_WINS_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace rum {

/// The read rule of every layered structure -- an LSM's memtable (skip list
/// or append buffer) over its runs and a compaction's inputs, newer pbt
/// partitions over older ones, a hot table or update delta over its base:
/// sources are taken newest first, and the newest version of each key wins.
///
/// Each source is ascending, holds a key at most once, and has
/// `bool Valid() const`, `const R& record() const` (R has a `key`) and
/// `Status Next()`. For each distinct key up to `hi`, ascending, `visit`
/// sees the newest source's record, tombstones included (the caller
/// filters them), and every source holding the key steps past it. A failed
/// step returns its status at once, after the keys up to the one its
/// source stood on. A min-heap of (key, source) heads picks each winner,
/// after which a shadowed duplicate is at the heap top; the last source
/// left, or a lone one, streams with no heap work. A template so the
/// visitor inlines: an LSM range scan runs this once per record.
template <typename Source, size_t Extent, typename Visit>
Status MergeNewestWins(std::span<Source, Extent> sources, Key hi,
                       Visit&& visit) {
  // A min-heap of (key, source) heads: the top holds the smallest key, ties
  // to the newest source.
  using Head = std::pair<Key, size_t>;
  std::vector<Head> heap;
  heap.reserve(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].Valid() && sources[i].record().key <= hi) {
      heap.emplace_back(sources[i].record().key, i);
    }
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<Head>());
  // Steps the source at the top, then sifts its new head down, or the last
  // head once that source has no record <= hi: one pass, where a pop and a
  // push would make two.
  auto step_top = [&]() -> Status {
    Source& source = sources[heap.front().second];
    Status s = source.Next();
    if (!s.ok()) return s;
    Head top = heap.front();
    if (source.Valid() && source.record().key <= hi) {
      top.first = source.record().key;
    } else {
      top = heap.back();
      heap.pop_back();
      if (heap.empty()) return Status::OK();
    }
    size_t i = 0;
    for (size_t c = 1; c < heap.size(); i = c, c = 2 * i + 1) {
      if (c + 1 < heap.size() && heap[c + 1] < heap[c]) ++c;
      if (!(heap[c] < top)) break;
      heap[i] = heap[c];
    }
    heap[i] = top;
    return Status::OK();
  };
  while (heap.size() > 1) {
    const Key key = heap.front().first;
    visit(sources[heap.front().second].record());
    // The winner steps first; older sources holding the key follow it.
    do {
      Status s = step_top();
      if (!s.ok()) return s;
    } while (!heap.empty() && heap.front().first == key);
  }
  if (heap.empty()) return Status::OK();
  Source& last = sources[heap.front().second];
  while (last.Valid() && last.record().key <= hi) {
    visit(last.record());
    Status s = last.Next();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

/// A merge source over an ascending in-memory array.
template <typename Record>
class SpanSource {
 public:
  explicit SpanSource(std::span<const Record> records) : records_(records) {}

  bool Valid() const { return !records_.empty(); }
  const Record& record() const { return records_.front(); }
  Status Next() {
    records_ = records_.subspan(1);
    return Status::OK();
  }

 private:
  std::span<const Record> records_;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_NEWEST_WINS_MERGE_H_
