#ifndef RUMLAB_METHODS_ZONEMAP_ZONEMAP_H_
#define RUMLAB_METHODS_ZONEMAP_ZONEMAP_H_

#include <vector>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/method_device.h"

namespace rum {

/// ZoneMaps (a.k.a. Small Materialized Aggregates): the sparse,
/// space-optimized index of the paper's Table 1 and the "space optimized"
/// corner of Figure 1.
///
/// Base data is clustered into zones of at most `zonemap.zone_entries`
/// entries; zones partition the key space, but entries *within* a zone are
/// unsorted. The only auxiliary data is one tiny descriptor per zone
/// (lower bound, min, max, count) -- index size O(N/P) descriptors, the
/// smallest of any method in Table 1.
///
/// Every operation first scans the descriptor array (charged as auxiliary
/// byte reads), then touches only the qualifying zone's blocks:
/// O(N/P/B + P/B) block reads per point query, in contrast to the paper's
/// best case O(N/P/B) when a single partition is read.
class ZoneMapColumn : public AccessMethod {
 public:
  explicit ZoneMapColumn(const Options& options, Device* device = nullptr);

  ~ZoneMapColumn() override;

  std::string_view name() const override { return "zonemap"; }

  Status Insert(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;
  Status BulkLoad(std::span<const Entry> entries) override;
  size_t size() const override { return count_; }

  size_t zone_count() const { return zones_.size(); }

 private:
  struct Zone {
    Key lo = kMinKey;   ///< Inclusive lower bound of the zone's key range.
    Key min = kMinKey;  ///< Smallest key present (meaningless if count==0).
    Key max = kMinKey;  ///< Largest key actually present.
    uint64_t count = 0;
    std::vector<PageId> pages;
  };

  /// Bytes of one persisted zone descriptor (lo, min, max, count).
  static constexpr uint64_t kDescriptorSize = 4 * sizeof(uint64_t);

  /// Charges a full descriptor-array read and returns the index of the zone
  /// whose range contains `key`.
  size_t FindZoneCharged(Key key);
  /// Charges one descriptor write and refreshes aux space.
  void TouchDescriptor();

  Status LoadZonePage(const Zone& zone, size_t page_index,
                      std::vector<Entry>* out);
  Status StoreZonePage(Zone* zone, size_t page_index,
                       const std::vector<Entry>& entries);
  /// Reads a whole zone into memory (charged).
  Status LoadZone(const Zone& zone, std::vector<Entry>* out);
  /// Rewrites a whole zone from memory (charged), freeing surplus pages.
  Status StoreZone(Zone* zone, std::vector<Entry>& entries);
  /// Splits `zone_index` at the median into two zones.
  Status SplitZone(size_t zone_index);

  void RecountAuxSpace();

  MethodDevice device_;
  size_t page_capacity_;
  size_t zone_capacity_;
  std::vector<Zone> zones_;
  size_t count_ = 0;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_ZONEMAP_ZONEMAP_H_
