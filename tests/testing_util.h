#ifndef RUMLAB_TESTS_TESTING_UTIL_H_
#define RUMLAB_TESTS_TESTING_UTIL_H_

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/access_method.h"
#include "core/options.h"
#include "methods/factory.h"
#include "storage/device.h"
#include "workload/distribution.h"

namespace rum {
namespace testing_util {

/// Every factory name, as the parameter list of the suites that run over
/// the whole catalog.
inline std::vector<std::string> AllMethodNames() {
  std::vector<std::string> names;
  for (std::string_view name : AllAccessMethodNames()) {
    names.emplace_back(name);
  }
  return names;
}

/// A factory name as a gtest name: '-' is spelled '_'.
inline std::string MethodTestName(std::string name) {
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

/// The gtest name of a suite case parameterized by a factory name.
inline std::string MethodParamName(
    const ::testing::TestParamInfo<std::string>& info) {
  return MethodTestName(info.param);
}

/// Allocates a page, asserting success. For tests running against stacks
/// with no allocation faults armed, where failure is a test bug.
inline PageId MustAllocate(Device& device, DataClass cls) {
  PageId page = kInvalidPageId;
  Status s = device.Allocate(cls, &page);
  EXPECT_TRUE(s.ok()) << "Allocate failed: " << s.ToString();
  return page;
}

/// Options shrunk so small tests exercise page splits, memtable flushes,
/// zone splits, directory rehashes, and delta merges.
inline Options SmallOptions() {
  Options options;
  options.block_size = 512;
  options.lsm.memtable_entries = 64;
  options.lsm.size_ratio = 3;
  options.lsm.bloom_bits_per_key = 8;
  options.zonemap.zone_entries = 128;
  options.bitmap.cardinality = 16;
  options.bitmap.key_domain = 1u << 16;
  options.bitmap.delta_merge_threshold = 128;
  options.cracking.min_piece_entries = 16;
  options.cracking.delta_merge_threshold = 256;
  options.approx.zone_entries = 128;
  options.extremes.magic_array_domain = 1u << 16;
  options.hash.directory_fanout = 1.25;
  options.skiplist.max_height = 8;
  return options;
}

/// Expects every field of two snapshots to be equal.
inline void ExpectSnapshotsEqual(const CounterSnapshot& a,
                                 const CounterSnapshot& b) {
  EXPECT_EQ(a.bytes_read_base, b.bytes_read_base);
  EXPECT_EQ(a.bytes_read_aux, b.bytes_read_aux);
  EXPECT_EQ(a.bytes_written_base, b.bytes_written_base);
  EXPECT_EQ(a.bytes_written_aux, b.bytes_written_aux);
  EXPECT_EQ(a.blocks_read, b.blocks_read);
  EXPECT_EQ(a.blocks_written, b.blocks_written);
  EXPECT_EQ(a.space_base, b.space_base);
  EXPECT_EQ(a.space_aux, b.space_aux);
  EXPECT_EQ(a.logical_bytes_read, b.logical_bytes_read);
  EXPECT_EQ(a.logical_bytes_written, b.logical_bytes_written);
  EXPECT_EQ(a.point_queries, b.point_queries);
  EXPECT_EQ(a.range_queries, b.range_queries);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.batched_page_hits, b.batched_page_hits);
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.retries, b.retries);
}

/// An exact reference model with the same semantics as AccessMethod.
class ReferenceModel {
 public:
  void Insert(Key key, Value value) { map_[key] = value; }
  void Update(Key key, Value value) { map_[key] = value; }
  void Delete(Key key) { map_.erase(key); }
  bool Get(Key key, Value* out) const {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    *out = it->second;
    return true;
  }
  std::vector<Entry> Scan(Key lo, Key hi) const {
    std::vector<Entry> out;
    for (auto it = map_.lower_bound(lo); it != map_.end() && it->first <= hi;
         ++it) {
      out.push_back(Entry{it->first, it->second});
    }
    return out;
  }
  size_t size() const { return map_.size(); }
  const std::map<Key, Value>& map() const { return map_; }

 private:
  std::map<Key, Value> map_;
};

/// A mutex-guarded ReferenceModel for concurrency tests: worker threads
/// record their operations here while hammering the method under test, and
/// the final contents are compared at quiescence. Equivalent to the method
/// only when threads do not race on the same key with conflicting
/// operations (disjoint ranges, or commutative ops like idempotent deletes
/// and upserts of a key-determined value).
class ConcurrentReferenceModel {
 public:
  void Insert(Key key, Value value) {
    std::lock_guard<std::mutex> lock(mu_);
    model_.Insert(key, value);
  }
  void Delete(Key key) {
    std::lock_guard<std::mutex> lock(mu_);
    model_.Delete(key);
  }
  /// Locked point lookup, safe to call while writers are live (the tree
  /// nodes are shared even when the key sets are disjoint).
  bool Get(Key key, Value* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    return model_.Get(key, out);
  }
  /// The underlying model; only call once writer threads have joined.
  const ReferenceModel& quiesced() const { return model_; }

 private:
  mutable std::mutex mu_;
  ReferenceModel model_;
};

/// Compares method->Get(key) against the reference (shared by the contract,
/// concurrency, and differential tests). Use as
///   ASSERT_TRUE(GetMatchesReference(method, reference, key)) << context;
inline ::testing::AssertionResult GetMatchesReference(
    AccessMethod* method, const ReferenceModel& reference, Key key) {
  Value expected;
  bool present = reference.Get(key, &expected);
  Result<Value> got = method->Get(key);
  if (present) {
    if (!got.ok()) {
      return ::testing::AssertionFailure()
             << method->name() << ": key " << key << " missing, status "
             << got.status().ToString();
    }
    if (got.value() != expected) {
      return ::testing::AssertionFailure()
             << method->name() << ": key " << key << " returned "
             << got.value() << ", expected " << expected;
    }
  } else {
    if (got.ok()) {
      return ::testing::AssertionFailure()
             << method->name() << ": key " << key
             << " should be absent but returned " << got.value();
    }
    if (!got.status().IsNotFound()) {
      return ::testing::AssertionFailure()
             << method->name() << ": key " << key
             << " absent but status is " << got.status().ToString()
             << ", expected NotFound";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Compares method->Scan(lo, hi) against the reference, entry by entry.
inline ::testing::AssertionResult ScanMatchesReference(
    AccessMethod* method, const ReferenceModel& reference, Key lo, Key hi) {
  std::vector<Entry> got;
  Status s = method->Scan(lo, hi, &got);
  if (!s.ok()) {
    return ::testing::AssertionFailure()
           << method->name() << ": scan [" << lo << ", " << hi
           << "] failed: " << s.ToString();
  }
  std::vector<Entry> expected = reference.Scan(lo, hi);
  if (got.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << method->name() << ": scan [" << lo << ", " << hi
           << "] returned " << got.size() << " entries, expected "
           << expected.size();
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (got[i].key != expected[i].key) {
      return ::testing::AssertionFailure()
             << method->name() << ": scan [" << lo << ", " << hi
             << "] entry " << i << " has key " << got[i].key
             << ", expected " << expected[i].key;
    }
    if (got[i].value != expected[i].value) {
      return ::testing::AssertionFailure()
             << method->name() << ": scan [" << lo << ", " << hi
             << "] entry " << i << " (key " << got[i].key << ") has value "
             << got[i].value << ", expected " << expected[i].value;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing_util
}  // namespace rum

#endif  // RUMLAB_TESTS_TESTING_UTIL_H_
