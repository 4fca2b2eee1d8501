#ifndef RUMLAB_METHODS_SKETCH_BLOOM_FILTER_H_
#define RUMLAB_METHODS_SKETCH_BLOOM_FILTER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/counters.h"
#include "core/types.h"

namespace rum {

/// Filter-probe outcome tally shared across a method's filters (filters
/// come and go with compaction/rebuild; the tally must survive them).
/// `false_positives` is the marginal-benefit signal filter memory is
/// arbitrated on: each one is a page-read's worth of traffic more filter
/// bits would likely have avoided. Relaxed atomics: written on the owner's
/// operation thread, read by the memory arbiter from whatever thread trips
/// an epoch.
struct FilterStats {
  /// Probes the filter answered "definitely absent" (pages saved).
  std::atomic<uint64_t> negatives{0};
  /// Probes answered "maybe" where the key was present.
  std::atomic<uint64_t> true_positives{0};
  /// Probes answered "maybe" where the key was absent (pages wasted).
  std::atomic<uint64_t> false_positives{0};
};

/// A classic Bloom filter (Bloom, CACM 1970): the paper's canonical
/// space-optimized, lossy auxiliary structure (Figure 1, right corner).
///
/// k hash probes per operation via double hashing. Accounting: the bit
/// array is auxiliary space; each probe charges one auxiliary byte read (a
/// bit access rounds up to byte granularity), each insert charges k
/// auxiliary byte writes.
class BloomFilter {
 public:
  /// Sizes the filter for `expected_keys` at `bits_per_key`; picks the
  /// optimal probe count k = bits_per_key * ln 2 (at least 1).
  /// `counters` may be null (no accounting, e.g. inside unit math tests).
  BloomFilter(size_t expected_keys, size_t bits_per_key,
              RumCounters* counters);

  BloomFilter(BloomFilter&& other) noexcept;
  BloomFilter& operator=(BloomFilter&& other) noexcept;

  /// Releases the filter's auxiliary space from the counters.
  ~BloomFilter();

  /// Adds a key.
  void Add(Key key);

  /// True if the key *may* have been added; false is definitive.
  bool MayContain(Key key) const;

  /// Uncharged probe with the key's pre-mixed hash pair (h1 = MixHash(key),
  /// h2 = MixHash(h1) | 1). Adds the probes actually taken (one auxiliary
  /// byte read each) to `*probes`: a batched caller hashes each key once,
  /// probes many filters, and charges the accumulated byte reads in bulk --
  /// the same total MayContain would have charged call by call.
  bool MayContainPrepared(uint64_t h1, uint64_t h2, uint64_t* probes) const {
    const uint64_t m = bit_count();
    return MayContainReduced(h1 % m, h2 % m, probes);
  }

  /// Innermost uncharged probe with offsets already reduced modulo
  /// bit_count() (bit = h1 % bits, step = h2 % bits): a batched pass over
  /// many same-geometry filters reduces each key once and reuses the
  /// offsets, leaving only adds and bit loads per probe. Walks exactly the
  /// bits MayContain walks.
  bool MayContainReduced(uint64_t bit, uint64_t step, uint64_t* probes) const {
    const uint64_t m = bit_count();
    for (size_t i = 0; i < probes_; ++i) {
      ++*probes;
      if ((bits_[bit / 8] & (1u << (bit % 8))) == 0) return false;
      bit += step;
      if (bit >= m) bit -= m;
    }
    return true;
  }

  /// Bytes of the bit array.
  uint64_t space_bytes() const { return bits_.size(); }
  size_t probes() const { return probes_; }
  uint64_t bit_count() const { return static_cast<uint64_t>(bits_.size()) * 8; }

  /// Fraction of set bits (diagnostics; the false-positive rate is roughly
  /// this to the k-th power).
  double fill_ratio() const;

 private:
  uint64_t BitIndex(uint64_t h1, uint64_t h2, size_t probe) const;

  std::vector<uint8_t> bits_;
  size_t probes_;
  RumCounters* counters_;  // Not owned; may be null.
};

/// Stable 64-bit mix used by every sketch in rumlab (splitmix64 finalizer).
uint64_t MixHash(uint64_t x);

/// Bits per key a filter-memory budget of `bytes` buys over `keys`
/// published keys (`fallback_keys`, the configured memtable or zone size,
/// stands in before any key is published), capped at 64: past ~20
/// bits/key the false-positive gain is nil. The one rule every arbitrated
/// filter pool applies on SetPoolBytes.
size_t BloomBitsForBudget(uint64_t bytes, uint64_t keys,
                          uint64_t fallback_keys);

}  // namespace rum

#endif  // RUMLAB_METHODS_SKETCH_BLOOM_FILTER_H_
