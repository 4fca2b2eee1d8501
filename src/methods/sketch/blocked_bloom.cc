#include "methods/sketch/blocked_bloom.h"

#include <algorithm>

#include "methods/sketch/bloom_filter.h"

namespace rum {

BlockedBloomFilter::BlockedBloomFilter(size_t expected_keys,
                                       size_t bits_per_key,
                                       RumCounters* counters)
    : counters_(counters) {
  uint64_t total_bits =
      std::max<uint64_t>(kBlockBits, expected_keys * bits_per_key);
  size_t block_count =
      static_cast<size_t>((total_bits + kBlockBits - 1) / kBlockBits);
  blocks_.assign(block_count, Block{});
  double k = static_cast<double>(bits_per_key) * 0.6931471805599453;  // ln 2
  probes_ = std::max<size_t>(1, static_cast<size_t>(k + 0.5));
  if (counters_ != nullptr) {
    counters_->AdjustSpace(DataClass::kAux,
                           static_cast<int64_t>(space_bytes()));
  }
}

BlockedBloomFilter::~BlockedBloomFilter() {
  if (counters_ != nullptr) {
    counters_->AdjustSpace(DataClass::kAux,
                           -static_cast<int64_t>(space_bytes()));
  }
}

void BlockedBloomFilter::Add(Key key) {
  uint64_t h1 = MixHash(key);
  // Block choice uses the upper half of the hash; bit positions use the
  // lower half, so they are independent of which block was picked.
  Block& block = blocks_[BlockFor(h1 >> 32)];
  uint64_t h2 = MixHash(h1) | 1;
  uint64_t h = h1 & 0xFFFFFFFFu;
  for (size_t i = 0; i < probes_; ++i) {
    h += h2;
    size_t bit = static_cast<size_t>(h % kBlockBits);
    block.words[bit / 64] |= 1ULL << (bit % 64);
  }
  // One cache line written, regardless of k.
  if (counters_ != nullptr) {
    counters_->OnWrite(DataClass::kAux, kBlockBytes);
  }
}

bool BlockedBloomFilter::MayContain(Key key) const {
  uint64_t h1 = MixHash(key);
  const Block& block = blocks_[BlockFor(h1 >> 32)];
  uint64_t h2 = MixHash(h1) | 1;
  // One cache line read, regardless of k.
  if (counters_ != nullptr) {
    counters_->OnRead(DataClass::kAux, kBlockBytes);
  }
  uint64_t h = h1 & 0xFFFFFFFFu;
  for (size_t i = 0; i < probes_; ++i) {
    h += h2;
    size_t bit = static_cast<size_t>(h % kBlockBits);
    if ((block.words[bit / 64] & (1ULL << (bit % 64))) == 0) return false;
  }
  return true;
}


}  // namespace rum
