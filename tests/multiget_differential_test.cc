// The MultiGet differential tier, on the model-based harness
// (tests/model_harness.h). For every factory method a seeded stream runs
// against the std::map model, and MultiGets sampled across it are each
// replayed on two instances that took the same prefix: one answers with
// MultiGet, the other with the per-key Get loop (DESIGN.md 3j). Results must
// be identical; a batch of one must charge identical counters; a larger
// batch no more physical traffic and the same logical work. Each stream
// ends in a 4096-key batch and a sorted dense one, always compared.
//
// Post-crash and faulty-load reads run as rows of differential_test's
// feature matrix, where every MultiGet made while no fault plan is armed
// must equal the Get loop on the same instance.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "methods/factory.h"
#include "tests/model_harness.h"
#include "workload/distribution.h"

namespace rum {
namespace {

using harness::GenSpec;
using harness::Op;
using harness::OpKind;
using harness::ParseFeatures;
using harness::Report;

constexpr uint64_t kSeeds[] = {0xA11CEull, 0xB0B5EEDull, 0xC0FFEE42ull};

std::vector<std::string> AllMethodNames() {
  std::vector<std::string> names;
  for (std::string_view name : AllAccessMethodNames()) {
    names.emplace_back(name);
  }
  return names;
}

class MultiGetParityTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

/// A batch of `n` keys mixing hits and misses, duplicates, keys past the
/// key range and the stream's last deleted key.
Op LargeBatch(uint64_t seed, size_t n, Key key_range,
              const std::vector<Op>& ops) {
  Key deleted = 0;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kDelete) deleted = op.key;
  }
  Rng rng(seed ^ 0xBA7C4ull);
  Op batch;
  batch.kind = OpKind::kMultiGet;
  for (size_t i = 0; i < n; ++i) {
    uint64_t dice = rng.NextBelow(10);
    if (dice == 0 && !batch.keys.empty()) {
      batch.keys.push_back(batch.keys[rng.NextBelow(batch.keys.size())]);
    } else if (dice == 1) {
      batch.keys.push_back(key_range + rng.NextBelow(1000));
    } else if (dice == 2) {
      batch.keys.push_back(deleted);
    } else {
      batch.keys.push_back(rng.NextBelow(key_range));
    }
  }
  return batch;
}

TEST_P(MultiGetParityTest, BatchesMatchTheGetLoop) {
  const auto& [name, seed_index] = GetParam();
  const GenSpec spec{.ops = 600, .faults = false, .crashes = false};
  std::vector<Op> ops = harness::Generate(kSeeds[seed_index], spec);
  // Two fixed batches close the stream, both always compared: 4096 mixed
  // keys, and the sorted dense range [0, 512) that hits the grouped fast
  // paths hardest (adjacent keys share pages).
  ops.push_back(LargeBatch(kSeeds[seed_index], 4096, spec.key_range, ops));
  Op dense;
  dense.kind = OpKind::kMultiGet;
  for (Key k = 0; k < 512; ++k) dense.keys.push_back(k);
  ops.push_back(dense);
  // Seed rows vary the knobs that change the batched read path.
  const char* rows[] = {"plain", "index+blocked+compress", "service+sharded"};
  Report report;
  EXPECT_TRUE(harness::RunParity(
      name, ParseFeatures(rows[seed_index]), ops, &report));
  EXPECT_GE(report.parity_checks, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsTimesSeeds, MultiGetParityTest,
    ::testing::Combine(::testing::ValuesIn(AllMethodNames()),
                       ::testing::Range<size_t>(0, 3)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, size_t>>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace rum
