// The scan differential tier, on the model-based harness
// (tests/model_harness.h). Range scans are the one operation the cross-run
// index changes, so every LSM policy runs scan-dense streams with the index
// off and on -- and on over compressed runs, and under the cache -- and
// every answer must match the std::map model, so the index-on and index-off
// twins agree byte for byte. The streams take every range shape: empty
// gaps, lo == hi, full span to kMaxKey, tombstone-heavy key spaces, and
// scans after a crash. A failure prints its shrunk, replayable op list.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "methods/lsm/lsm_tree.h"
#include "tests/model_harness.h"
#include "tests/testing_util.h"

namespace rum {
namespace {

using harness::GenSpec;
using harness::Op;
using harness::OpKind;
using harness::ParseFeatures;
using harness::ParseOps;

constexpr uint64_t kSeeds[] = {0x5CA11ull, 0x5CA22ull};

const char* const kPolicies[] = {"lsm-leveled", "lsm-tiered", "lsm-lazy",
                                 "lsm-hybrid"};
// Index off, index on, index over compressed runs, index under the cache.
const char* const kRows[] = {"plain", "index", "index+compress",
                             "index+cache"};

/// A fault-free generated stream with a scan of the generator's range
/// shapes spliced in after every other op.
std::vector<Op> ScanDenseStream(uint64_t seed) {
  std::vector<Op> base = harness::Generate(
      seed, GenSpec{.ops = 1200, .faults = false, .crashes = false});
  std::vector<Op> scans;
  for (Op& op : harness::Generate(seed ^ 0x5CA5CA5ull,
                                  GenSpec{.ops = 6000, .faults = false,
                                          .crashes = false})) {
    if (op.kind == OpKind::kScan) scans.push_back(std::move(op));
  }
  std::vector<Op> ops;
  size_t next_scan = 0;
  for (size_t i = 0; i < base.size(); ++i) {
    ops.push_back(std::move(base[i]));
    if (i % 2 == 1 && next_scan < scans.size()) {
      ops.push_back(std::move(scans[next_scan++]));
    }
  }
  return ops;
}

std::string Insert(Key k, Value v) {
  return "I " + std::to_string(k) + " " + std::to_string(v) + "; ";
}

std::string Scan(Key lo, Key hi) {
  return "S " + std::to_string(lo) + " " + std::to_string(hi) + "; ";
}

class ScanDifferentialTest
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {
 protected:
  ::testing::AssertionResult Run(const std::vector<Op>& ops) {
    const auto& [policy, row] = GetParam();
    return harness::Run(policy, ParseFeatures(row), ops);
  }
};

TEST_P(ScanDifferentialTest, RandomRangesMatchModel) {
  for (uint64_t seed : kSeeds) {
    EXPECT_TRUE(Run(ScanDenseStream(seed))) << "seed 0x" << std::hex << seed;
  }
}

// Delete two thirds of a flushed key space, resurrect a slice, and scan
// ranges that are mostly tombstones. Tombstones travel through run merges
// and must be dropped at emission -- never returned, never allowed to hide
// a resurrected key.
TEST_P(ScanDifferentialTest, TombstoneHeavyRangesMatchModel) {
  constexpr Key kKeys = 1200;
  std::string text;
  for (Key k = 0; k < kKeys; ++k) text += Insert(k, k * 7 + 1);
  text += "F; ";
  for (Key k = 0; k < kKeys; ++k) {
    if (k % 3 != 0) text += "D " + std::to_string(k) + "; ";
  }
  text += "F; ";
  for (Key k = 100; k < 200; ++k) text += Insert(k, k * 7 + 2);
  for (Key i = 0; i < 60; ++i) {
    Key lo = (i * 97) % kKeys;
    text += Scan(lo, lo + (i * 53) % 300);
  }
  EXPECT_TRUE(Run(ParseOps(text + "S 0 " + std::to_string(kMaxKey))));
}

// A crash right after a durable flush must leave the scan path serving the
// exact flushed state: the index's lazily rebuilt segments must describe the
// recovered pages, not the pre-crash cache.
TEST_P(ScanDifferentialTest, PostCrashScansMatchModel) {
  constexpr Key kKeys = 900;
  std::string text;
  for (Key k = 0; k < kKeys; ++k) {
    Key key = (k * 37) % kKeys;  // Coprime stride: runs overlap.
    text += Insert(key, key * 5 + 3);
  }
  // The warming scan builds the index's segments before the crash.
  text += "F; " + Scan(0, kKeys) + "F; C; ";
  for (Key i = 0; i < 50; ++i) {
    Key lo = (i * 131) % kKeys;
    text += Scan(lo, lo + (i * 29) % 200);
  }
  for (Key k = 0; k < kKeys; k += 7) text += "G " + std::to_string(k) + "; ";
  EXPECT_TRUE(Run(ParseOps(text + "S 0 " + std::to_string(kMaxKey))));
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesTimesRows, ScanDifferentialTest,
    ::testing::Combine(::testing::ValuesIn(kPolicies),
                       ::testing::ValuesIn(kRows)),
    [](const ::testing::TestParamInfo<std::tuple<const char*, const char*>>&
           info) {
      std::string name = std::string(std::get<0>(info.param)) + "_" +
                         std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

// lo > hi is a caller bug, rejected identically by both scan paths without
// touching a run.
TEST(ScanDifferentialTest, InvertedRangeIsInvalidArgumentOnBothPaths) {
  for (bool index : {true, false}) {
    Options options = testing_util::SmallOptions();
    options.lsm.policy = LsmPolicy::kTiered;
    options.lsm.cross_run_index = index;
    LsmTree tree(options);
    for (Key k = 0; k < 200; ++k) {
      ASSERT_TRUE(tree.Insert(k, k + 1).ok());
    }
    std::vector<Entry> out;
    EXPECT_EQ(tree.Scan(100, 99, &out).code(), Code::kInvalidArgument);
    EXPECT_TRUE(out.empty());
  }
}

}  // namespace
}  // namespace rum
