#ifndef RUMLAB_METHODS_SKETCH_BLOCKED_BLOOM_H_
#define RUMLAB_METHODS_SKETCH_BLOCKED_BLOOM_H_

#include <cstdint>
#include <vector>

#include "core/counters.h"
#include "core/types.h"

namespace rum {

/// A blocked (register/cache-line) Bloom filter: all k probes of a key land
/// in one 64-byte block chosen by hash.
///
/// This is the paper's Section-4 cache-awareness point applied to a filter:
/// the classic Bloom filter's k probes are k random memory accesses; the
/// blocked variant touches exactly one cache line per operation, trading a
/// slightly higher false-positive rate (bits cluster, so blocks saturate
/// unevenly) for a constant-access-granularity structure. In rumlab
/// accounting: one 64-byte auxiliary read per query instead of k scattered
/// byte reads.
class BlockedBloomFilter {
 public:
  /// Sizes for `expected_keys` at `bits_per_key`; `counters` may be null.
  BlockedBloomFilter(size_t expected_keys, size_t bits_per_key,
                     RumCounters* counters);
  ~BlockedBloomFilter();

  BlockedBloomFilter(const BlockedBloomFilter&) = delete;
  BlockedBloomFilter& operator=(const BlockedBloomFilter&) = delete;

  void Add(Key key);
  /// True if the key may have been added; false is definitive.
  bool MayContain(Key key) const;

  uint64_t space_bytes() const {
    return static_cast<uint64_t>(blocks_.size()) * kBlockBytes;
  }
  size_t probes() const { return probes_; }
  size_t block_count() const { return blocks_.size(); }

  static constexpr size_t kBlockBytes = 64;
  static constexpr size_t kBlockBits = kBlockBytes * 8;

 private:
  struct alignas(64) Block {
    uint64_t words[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  };

  size_t BlockFor(uint64_t h) const { return h % blocks_.size(); }

  std::vector<Block> blocks_;
  size_t probes_;
  RumCounters* counters_;  // Not owned; may be null.
};

}  // namespace rum

#endif  // RUMLAB_METHODS_SKETCH_BLOCKED_BLOOM_H_
