#include "methods/sketch/bloom_filter.h"

#include <algorithm>
#include <cmath>

namespace rum {

uint64_t MixHash(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

size_t BloomBitsForBudget(uint64_t bytes, uint64_t keys,
                          uint64_t fallback_keys) {
  if (keys == 0) keys = std::max<uint64_t>(1, fallback_keys);
  return static_cast<size_t>(std::min<uint64_t>(64, bytes * 8 / keys));
}

BloomFilter::BloomFilter(size_t expected_keys, size_t bits_per_key,
                         RumCounters* counters)
    : counters_(counters) {
  size_t total_bits = std::max<size_t>(64, expected_keys * bits_per_key);
  bits_.assign((total_bits + 7) / 8, 0);
  double k = static_cast<double>(bits_per_key) * 0.6931471805599453;  // ln 2
  probes_ = std::max<size_t>(1, static_cast<size_t>(k + 0.5));
  if (counters_ != nullptr) {
    counters_->AdjustSpace(DataClass::kAux,
                           static_cast<int64_t>(bits_.size()));
  }
}

BloomFilter::BloomFilter(BloomFilter&& other) noexcept
    : bits_(std::move(other.bits_)),
      probes_(other.probes_),
      counters_(other.counters_) {
  other.bits_.clear();
  other.counters_ = nullptr;
}

BloomFilter& BloomFilter::operator=(BloomFilter&& other) noexcept {
  if (this == &other) return *this;
  if (counters_ != nullptr) {
    counters_->AdjustSpace(DataClass::kAux,
                           -static_cast<int64_t>(bits_.size()));
  }
  bits_ = std::move(other.bits_);
  probes_ = other.probes_;
  counters_ = other.counters_;
  other.bits_.clear();
  other.counters_ = nullptr;
  return *this;
}

BloomFilter::~BloomFilter() {
  if (counters_ != nullptr) {
    counters_->AdjustSpace(DataClass::kAux,
                           -static_cast<int64_t>(bits_.size()));
  }
}

uint64_t BloomFilter::BitIndex(uint64_t h1, uint64_t h2, size_t probe) const {
  return (h1 + probe * h2) % bit_count();
}

void BloomFilter::Add(Key key) {
  // Incremental double hashing: (h1 + i*h2) mod M computed by repeated
  // add-and-wrap over the pre-reduced operands, which lands on exactly the
  // same bits as BitIndex() without a division per probe.
  const uint64_t m = bit_count();
  uint64_t bit = MixHash(key) % m;
  const uint64_t step = (MixHash(MixHash(key)) | 1) % m;
  for (size_t i = 0; i < probes_; ++i) {
    bits_[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    bit += step;
    if (bit >= m) bit -= m;
  }
  // One auxiliary byte written per probe, charged in a single batch.
  if (counters_ != nullptr) {
    counters_->OnWrite(DataClass::kAux, probes_);
  }
}

bool BloomFilter::MayContain(Key key) const {
  uint64_t h1 = MixHash(key);
  uint64_t h2 = MixHash(h1) | 1;
  uint64_t taken = 0;
  bool maybe = MayContainPrepared(h1, h2, &taken);
  // One auxiliary byte read per probe actually made (the walk stops at the
  // first zero bit), charged in a single batch.
  if (counters_ != nullptr) {
    counters_->OnRead(DataClass::kAux, taken);
  }
  return maybe;
}


double BloomFilter::fill_ratio() const {
  uint64_t set = 0;
  for (uint8_t byte : bits_) {
    set += static_cast<uint64_t>(__builtin_popcount(byte));
  }
  return bit_count() == 0
             ? 0.0
             : static_cast<double>(set) / static_cast<double>(bit_count());
}

}  // namespace rum
