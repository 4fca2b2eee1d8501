#ifndef RUMLAB_METHODS_APPROX_UPDATE_ABSORBER_H_
#define RUMLAB_METHODS_APPROX_UPDATE_ABSORBER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/key_set.h"
#include "methods/sketch/quotient_filter.h"

namespace rum {

/// Section 5's "approximate (tree) indexing that supports updates with low
/// read performance overhead, by absorbing them in updatable probabilistic
/// data structures (like quotient filters)" -- as a generic wrapper.
///
/// Updates land in an in-memory delta buffer instead of the (expensive to
/// update) base structure. A quotient filter mirrors the delta's key set,
/// so point reads of keys with no pending update pay only a couple of
/// filter probes before going straight to the base -- the read overhead of
/// supporting updates stays near zero. The filter must be *updatable*
/// because the delta drains on every flush: a Bloom filter would rot, a
/// quotient filter deletes cleanly.
///
/// The wrapper composes with any base AccessMethod; flushes apply the
/// buffered operations in key order once `absorber.delta_entries`
/// accumulate (or on Flush()).
class UpdateAbsorber : public AccessMethod {
 public:
  /// Wraps `base` (owned). `options.absorber` sizes the delta and filter.
  UpdateAbsorber(std::unique_ptr<AccessMethod> base, const Options& options);

  ~UpdateAbsorber() override;

  /// "absorbed-" and the wrapped structure's name.
  std::string_view name() const override { return name_; }

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

  size_t pending_updates() const { return delta_.size(); }
  const QuotientFilter& filter() const { return *filter_; }

 private:
  struct DeltaRecord {
    Value value;
    bool tombstone;
  };

  /// Approximate in-memory footprint of one buffered record (key, value,
  /// flag, hash-map overhead).
  static constexpr uint64_t kDeltaRecordSize = 32;

  /// Buffers one operation, flushing if the delta is full.
  Status Absorb(Key key, Value value, bool tombstone);
  /// Applies every buffered operation to the base and drains the filter.
  Status Drain();
  void RepublishDeltaSpace();

  Options options_;
  std::unique_ptr<AccessMethod> base_;
  std::string name_;
  RumCounters own_;  // Delta + filter traffic (filter charges into this).
  std::unique_ptr<QuotientFilter> filter_;
  std::unordered_map<Key, DeltaRecord> delta_;
  // Simulator-side bookkeeping (unaccounted): every mutation flows through
  // this wrapper, so the live-key set is tracked exactly for size().
  KeySet live_keys_;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_APPROX_UPDATE_ABSORBER_H_
