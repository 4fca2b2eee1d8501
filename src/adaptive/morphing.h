#ifndef RUMLAB_ADAPTIVE_MORPHING_H_
#define RUMLAB_ADAPTIVE_MORPHING_H_

#include <memory>
#include <string>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"

namespace rum {

/// The internal shapes a MorphingAccessMethod can take, ordered roughly
/// write-optimized to read-optimized to space-optimized.
enum class MorphShape {
  kWriteLog,    ///< Tiered stepped runs: minimum update overhead.
  kBalanced,    ///< Leveled LSM with filters: balanced R/U at some M.
  kReadTree,    ///< B+-Tree: minimum read overhead, pays on updates.
  kSpaceDense,  ///< Zone-mapped dense column: minimum memory overhead.
};

std::string_view MorphShapeName(MorphShape shape);

/// The paper's Figure-3 vision made concrete: a single access method that
/// *morphs* between write-, read-, and space-optimized shapes as its RUM
/// priorities move, migrating its data between internal representations.
///
/// `SetPriorities(read, write, space)` (each >= 0, interpreted relatively)
/// picks the shape deterministically:
///   - space strictly dominant        -> kSpaceDense
///   - write strictly dominant        -> kWriteLog
///   - read strictly dominant         -> kReadTree
///   - read/write within 25% of each other and both above space
///                                    -> kBalanced
/// A shape change drains the current representation through a full scan and
/// bulk-loads the next one -- the morph cost is real, measured traffic, not
/// an accounting fiction. Traffic of retired shapes is carried forward so
/// stats() reflect the method's whole life.
class MorphingAccessMethod : public AccessMethod {
 public:
  explicit MorphingAccessMethod(const Options& options);

  std::string_view name() const override { return "morphing"; }

  Status Insert(Key key, Value value) override;
  Status Update(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  Status Flush() override;
  size_t size() const override;

  CounterSnapshot stats() const override;
  void ResetStats() override;

  /// Re-targets the method in RUM space, morphing when the preferred shape
  /// changes. Returns the traffic the morph cost (zero if no change).
  Status SetPriorities(double read, double write, double space);

  MorphShape shape() const { return shape_; }
  /// How many shape changes have occurred.
  size_t morph_count() const { return morph_count_; }

  /// Shape selection rule, exposed for tests.
  static MorphShape ChooseShape(double read, double write, double space);

 private:
  /// Entries per internal batch: the stepped shape's buffer and the
  /// leveled shape's memtable.
  static constexpr size_t kBatchEntries = 4096;

  std::unique_ptr<AccessMethod> MakeDelegate(MorphShape shape) const;
  Status Morph(MorphShape next);

  Options options_;
  MorphShape shape_;
  std::unique_ptr<AccessMethod> delegate_;
  CounterSnapshot carried_;  // Traffic of retired delegates.
  size_t morph_count_ = 0;
};

}  // namespace rum

#endif  // RUMLAB_ADAPTIVE_MORPHING_H_
