#ifndef RUMLAB_METHODS_CRACKING_CRACKING_H_
#define RUMLAB_METHODS_CRACKING_CRACKING_H_

#include <map>
#include <unordered_set>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/key_set.h"

namespace rum {

/// Database cracking (Idreos et al., CIDR 2007): the adaptive access method
/// in the middle of the paper's Figure 1.
///
/// The column starts unsorted and each range query *cracks* it: the pieces
/// containing the query bounds are physically partitioned at those bounds,
/// and the bound positions are remembered in a cracker index. Early queries
/// pay near-scan cost plus partitioning writes; later queries touch
/// ever-smaller pieces -- index creation cost amortized across the query
/// stream, exactly the adaptive trade the paper describes (read overhead
/// falls while update overhead and, slowly, memory overhead rise).
///
/// Updates arrive in a pending delta (consulted by every query, charged)
/// and merge once `cracking.delta_merge_threshold` accumulate; a merge
/// rebuilds the column and discards the cracks, making update cost visible
/// ("updating a cracked database").
///
/// Pieces at or below `cracking.min_piece_entries` are scanned rather than
/// cracked further, bounding the cracker index size.
class CrackedColumn : public AccessMethod {
 public:
  explicit CrackedColumn(const Options& options);

  std::string_view name() const override { return "cracking"; }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override;

  /// Number of crack boundaries currently indexed.
  size_t crack_count() const { return cracks_.size(); }

 private:
  /// Approximate bytes of one cracker-index node (key, position, tree
  /// pointers).
  static constexpr uint64_t kCrackNodeSize = 48;

  /// Ensures a crack exists at `key` (all elements < key precede it).
  /// Returns the first position whose element is >= key. Skips cracking
  /// for pieces at or below the minimum piece size, returning the piece
  /// start instead (callers filter).
  size_t CrackAt(Key key);

  /// Piece [start, end) that would contain `key`.
  void PieceFor(Key key, size_t* start, size_t* end) const;

  /// Folds pending inserts and deletes into the column, resetting cracks.
  Status MergePending();

  void RecountSpace();

  size_t min_piece_;
  size_t merge_threshold_;
  std::vector<Entry> column_;   // Base data, physically cracked.
  std::map<Key, size_t> cracks_;  // Crack key -> first position >= key.
  std::vector<Entry> pending_;  // Unmerged inserts (newest last).
  std::unordered_set<Key> deleted_;  // Unmerged deletes.
  // Simulator-side bookkeeping (unaccounted): exact live-key set for
  // size() and the stats() base/aux space split.
  KeySet live_keys_;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_CRACKING_CRACKING_H_
