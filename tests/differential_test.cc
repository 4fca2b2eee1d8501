// The differential tier, on the model-based harness (tests/model_harness.h).
// Every factory method runs one seeded op stream -- Insert, Update, Delete,
// Get, MultiGet, Scan, Flush, Crash, ResetStats, arbiter replans and
// fault-plan switches -- under each row of a pairwise feature matrix, and
// is checked against the std::map model and the accounting identities after
// every op. A failure prints its shrunk, replayable op list.
//
// Also here: one long fault-free stream per method (the model stays exact
// throughout), exact recovery from a crash right after a durable flush, and
// the crash-point sweep (crash at charged I/O k for every k). MultiGet
// charge parity is multiget_differential_test; the LSM scan tier is
// scan_differential_test.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tests/model_harness.h"
#include "tests/testing_util.h"

namespace rum {
namespace {

using harness::Features;
using harness::GenSpec;
using harness::Op;
using harness::PairwiseFeatureRows;
using harness::ParseFeatures;
using harness::ParseOps;
using harness::Report;
using testing_util::AllMethodNames;
using testing_util::MethodTestName;

constexpr uint64_t kSeeds[] = {0xA11CEull, 0xB0B5EEDull, 0xC0FFEE42ull};

std::string TestName(const std::string& name, const std::string& suffix) {
  return MethodTestName(name) + "_" + suffix;
}

// ------------------------------------------------------ The feature matrix

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(DifferentialTest, StreamMatchesModel) {
  const auto& [name, row] = GetParam();
  std::vector<Op> ops = harness::Generate(kSeeds[row % 3] + row, GenSpec{});
  EXPECT_TRUE(harness::Run(name, PairwiseFeatureRows()[row], ops));
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsTimesFeatureRows, DifferentialTest,
    ::testing::Combine(::testing::ValuesIn(AllMethodNames()),
                       ::testing::Range<size_t>(0, 6)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, size_t>>& info) {
      return TestName(std::get<0>(info.param),
                      "row" + std::to_string(std::get<1>(info.param)));
    });

// Every pair of features meets at all four value combinations in some row.
TEST(FeatureMatrixTest, RowsCoverEveryFeaturePair) {
  const std::vector<Features>& rows = PairwiseFeatureRows();
  for (size_t a = 0; a < Features::kCount; ++a) {
    for (size_t b = a + 1; b < Features::kCount; ++b) {
      bool seen[2][2] = {};
      for (const Features& row : rows) seen[row.bit(a)][row.bit(b)] = true;
      for (int x = 0; x < 2; ++x) {
        for (int y = 0; y < 2; ++y) {
          EXPECT_TRUE(seen[x][y]) << "features " << a << " and " << b
                                  << " never meet at " << x << "," << y;
        }
      }
    }
  }
  for (const Features& row : rows) {
    EXPECT_EQ(ParseFeatures(row.Label()).Label(), row.Label());
  }
}

// The chaos is real: on device-backed methods the stream injects faults,
// fails operations explicitly, loses dirty state in crashes, and recovers.
TEST(FeatureMatrixTest, StreamsExerciseFaultsCrashesAndRecovery) {
  Report report;
  for (const char* name : {"btree", "lsm-tiered", "hash"}) {
    std::vector<Op> ops = harness::Generate(kSeeds[0], GenSpec{});
    ASSERT_TRUE(harness::Run(name, ParseFeatures("cache"), ops, &report));
  }
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_GT(report.failed_ops, 0u);
  EXPECT_GT(report.lossy_crashes, 0u);
  EXPECT_GT(report.resyncs, 0u);
}

// ------------------------------------------------ Fault-free exact streams

// Without faults or crashes nothing may be lost, so the model stays exact
// for the whole stream: every answer, size() and the final state must match
// the std::map, and no op may fail.
class ExactStreamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ExactStreamTest, LongStreamStaysExact) {
  std::vector<Op> ops = harness::Generate(
      kSeeds[0], GenSpec{.ops = 2500, .faults = false, .crashes = false});
  Report report;
  EXPECT_TRUE(harness::Run(GetParam(), ParseFeatures("plain"), ops, &report));
  EXPECT_EQ(report.failed_ops, 0u);
  EXPECT_EQ(report.resyncs, 0u);
  EXPECT_GT(report.final_keys, 0u);
}

// A crash right after a durable flush loses nothing, with or without the
// cache: load, flush, crash, read everything back; then mutate further
// (driving more flushes and compactions over the recovered structure),
// flush, crash and read back again. The model never weakens here.
class CrashAfterFlushTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(CrashAfterFlushTest, RecoversExactly) {
  const auto& [name, cache] = GetParam();
  constexpr Key kLoad = 300;
  std::string readback;
  for (Key k = 0; k < 2 * kLoad; ++k) {
    readback += "G " + std::to_string(k) + "; ";
  }
  readback += "S 0 " + std::to_string(kMaxKey) + "; ";
  std::string text;
  for (Key k = 0; k < kLoad; ++k) {
    text += "I " + std::to_string(k) + " " + std::to_string(k * 1000 + 1) +
            "; ";
  }
  text += "F; C; " + readback;
  size_t expected = kLoad;
  for (Key k = 0; k < kLoad; ++k) {
    text += "I " + std::to_string(kLoad + k) + " " + std::to_string(k) + "; ";
    ++expected;
    if (k % 5 == 0) {
      text += "U " + std::to_string(k) + " " + std::to_string(k + 7) + "; ";
    }
    if (k % 7 == 0) {
      text += "D " + std::to_string(k) + "; ";
      --expected;
    }
  }
  text += "F; C; " + readback;
  Report report;
  EXPECT_TRUE(harness::Run(name, ParseFeatures(cache ? "cache" : "plain"),
                           ParseOps(text), &report));
  EXPECT_EQ(report.failed_ops, 0u);
  EXPECT_EQ(report.lossy_crashes, 0u);
  EXPECT_EQ(report.final_keys, expected);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ExactStreamTest,
                         ::testing::ValuesIn(AllMethodNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return TestName(info.param, "exact");
                         });

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CrashAfterFlushTest,
    ::testing::Combine(::testing::ValuesIn(AllMethodNames()),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      return TestName(std::get<0>(info.param),
                      std::get<1>(info.param) ? "cache" : "plain");
    });

TEST(FeatureMatrixTest, OpListsRoundTripThroughText) {
  std::vector<Op> ops = harness::Generate(kSeeds[1], GenSpec{.ops = 300});
  std::string text = harness::FormatOps(ops);
  EXPECT_EQ(harness::FormatOps(ParseOps(text)), text);
}

// ----------------------------------------------------- Crash-point sweep

// With the cache, the crash also drops dirty pages; without it, every page
// write is a crash point of its own.
class CrashPointTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(CrashPointTest, RecoversAtEveryCrashPoint) {
  const auto& [name, cache] = GetParam();
  std::string load;
  for (Key k = 0; k < 64; ++k) {
    load += "I " + std::to_string(k * 3) + " " + std::to_string(k) + "; ";
  }
  std::vector<Op> prefix = ParseOps(load + "F");
  std::vector<Op> suffix = harness::Generate(
      kSeeds[2], GenSpec{.ops = 60, .key_range = 256, .faults = false,
                         .crashes = false});
  size_t points = 0;
  EXPECT_TRUE(harness::CrashPointSweep(
      name, ParseFeatures(cache ? "cache" : "plain"), prefix, suffix,
      &points));
  RecordProperty("crash_points", static_cast<int>(points));
  EXPECT_GT(points, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CrashPointTest,
    ::testing::Combine(::testing::ValuesIn(AllMethodNames()),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      return TestName(std::get<0>(info.param),
                      std::get<1>(info.param) ? "cache" : "plain");
    });

// --------------------------------------------- Shrunk repros of bugs found

// Each stream below is the harness's shrunk output for a bug it found. At
// the commit before the fix, the first hangs, the last crashes and the
// others answer wrongly.

// The only leaf never reached the device; after the crash its zeroed image
// linked to page 0 -- itself -- and the recovery Scan walked the leaf chain
// forever. Chain walks are now bounded by the tree's entry count
// (Corruption).
TEST(ShrunkReproTest, BTreeLeafChainCycleAfterCrashIsCorruption) {
  EXPECT_TRUE(harness::Run("btree", ParseFeatures("cache"),
                           ParseOps("I 3756 16448552832314299557; C")));
}

// A read fault inside a compaction was swallowed (an assert compiled out of
// Release builds): the merge went on without the unread records and the
// keys silently vanished. The read error now aborts the merge.
TEST(ShrunkReproTest, CompactionReadFaultIsReturnedNotMergedAround) {
  EXPECT_TRUE(harness::Run(
      "stepped-merge", ParseFeatures("arbiter+sharded+index+compress"),
      ParseOps("U 1379 5643288721079833318; I 2760 3533541329055026913; "
               "I 3220 17230620477984427354; F; I 1200 4423507701286796506; "
               "I 925 13409856909324130062; U 4040 13413030357878395187; F; "
               "I 4065 15986803561824179348; D 1989; D 173; F; "
               "I 1686 8448186329465202530; D 2157; "
               "I 274 4014955788648677386; D 1111; "
               "U 3240 11749944562259815124; F; X 1; S 3232 3280; "
               "S 1739 5487; D 4085; G 2000; I 49 14872699276246449501; "
               "G 1984; G 1851; F; S 2686 2893; S 3947 3986; G 3511; "
               "I 158 8405027142892451154; G 1115; F")));
}

// Under read faults a Delete stopped between tombstoning its slot and
// repointing the moved heap row, and the directory then named another key's
// row: MultiGet returned that key's value. Rows are now checked against the
// key that led to them (Corruption on mismatch).
TEST(ShrunkReproTest, HashSlotNamingAnotherKeysRowIsCorruption) {
  EXPECT_TRUE(harness::Run(
      "hash", ParseFeatures("plain"),
      ParseOps("U 1394 6569925783813625977; I 399 7428495345671765388; "
               "U 948 1223290090359602142; I 3661 8077943884145597881; "
               "I 1819 13639014361195872474; U 2719 3551133757022263399; "
               "X 1; I 2266 5735836235640625757; "
               "U 322 4812196542505228798; I 792 5145443556025010835; "
               "I 4060 2977099831723560027; I 90 7456410213736769717; "
               "I 3493 7165932268361667463; U 365 5988732566879331521; "
               "I 663 16711842163324223231; I 1518 14246341627741187632; "
               "I 3772 9985034974904480256; U 1830 4629448979462647620; "
               "I 1628 11863760665933613611; I 1063 4102068245245575815; "
               "I 364 1406144207507386620; I 760 5459815119760343637; "
               "I 661 5565506090981485919; I 857 10408462759512041060; "
               "I 1413 4815155212971981327; I 3116 1562624048232129157; "
               "U 3485 5831589657554015659; I 460 3868014859751161833; "
               "I 3841 432790940675443100; D 110; "
               "I 2953 9456530516995591888; I 2639 3998820483926081345; "
               "I 3760 15191631728569547370; U 903 284676985899288600; "
               "I 2184 10283120683773098415; "
               "M 300,4578,2465,903,301,571,4212,2465,1162,811,2876,1175,707,"
               "3650,2650,3650,4073,3458,4179,2767,2731,600,294,4940,4575,294,"
               "4999,2879,1541,4940,1585,2019,4508,962,2465,3274,2465,4073,"
               "4232,2465,74,2858,2465,1987,944,1602,1973,343")));
}

// A directory build that failed to allocate its pages had already set the
// new slot count, and the next probe indexed past the page list. A failed
// build now leaves the old directory in place.
TEST(ShrunkReproTest, HashDirectoryBuildFailureKeepsTheOldDirectory) {
  EXPECT_TRUE(harness::Run(
      "sharded-hash", ParseFeatures("plain"),
      ParseOps("X 2; U 490 14390418913118569989; "
               "I 239 6853720080395459357; I 1986 5250064980099101649")));
}

}  // namespace
}  // namespace rum
