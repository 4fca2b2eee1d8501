// Structural tests for the pluggable LSM compaction policies. The policies'
// differential contract -- every policy against the std::map model, with
// MaxRunsAt and the level capacities checked after every operation -- runs
// on the model harness in differential_test (the lsm-* factory names).

#include <memory>

#include <gtest/gtest.h>

#include "methods/factory.h"
#include "methods/lsm/compaction_policy.h"
#include "methods/lsm/lsm_tree.h"
#include "tests/testing_util.h"

namespace rum {
namespace {

using testing_util::SmallOptions;

constexpr LsmPolicy kAllPolicies[] = {
    LsmPolicy::kLeveled,
    LsmPolicy::kTiered,
    LsmPolicy::kLazyLeveled,
    LsmPolicy::kHybrid,
};

TEST(CompactionPolicyTest, MakeReturnsMatchingStrategy) {
  for (LsmPolicy kind : kAllPolicies) {
    auto policy = CompactionPolicy::Make(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->kind(), kind);
    EXPECT_FALSE(policy->name().empty());
  }
}

TEST(CompactionPolicyTest, FactoryNamesRoundTrip) {
  const std::pair<const char*, LsmPolicy> kNames[] = {
      {"lsm-leveled", LsmPolicy::kLeveled},
      {"lsm-tiered", LsmPolicy::kTiered},
      {"lsm-lazy", LsmPolicy::kLazyLeveled},
      {"lsm-hybrid", LsmPolicy::kHybrid},
  };
  for (const auto& [name, kind] : kNames) {
    auto method = MakeAccessMethod(name, SmallOptions());
    ASSERT_NE(method, nullptr) << name;
    EXPECT_EQ(method->name(), name);
    auto* tree = dynamic_cast<LsmTree*>(method.get());
    ASSERT_NE(tree, nullptr) << name;
    EXPECT_EQ(tree->policy().kind(), kind) << name;
  }
}

TEST(CompactionPolicyTest, LazyKeepsSingleRunAtLastPopulatedLevel) {
  Options options = SmallOptions();
  options.lsm.policy = LsmPolicy::kLazyLeveled;
  LsmTree tree(options);
  for (Key k = 0; k < 64 * 40; ++k) {
    ASSERT_TRUE(tree.Insert(k * 7919, k).ok());
  }
  ASSERT_GE(tree.level_count(), 2u);
  size_t last = 0;
  for (size_t level = 0; level < tree.level_count(); ++level) {
    if (tree.runs_at(level) > 0) last = level;
  }
  EXPECT_EQ(tree.runs_at(last), 1u) << "lazy bottom must stay one run";
  for (size_t level = 0; level < last; ++level) {
    EXPECT_LT(tree.runs_at(level), options.lsm.size_ratio);
  }
}

TEST(CompactionPolicyTest, HybridIsTieredShallowAndLeveledDeep) {
  Options options = SmallOptions();
  options.lsm.policy = LsmPolicy::kHybrid;
  options.lsm.hybrid_tiered_levels = 1;
  LsmTree tree(options);
  bool saw_multi_run_level0 = false;
  for (Key k = 0; k < 64 * 40; ++k) {
    ASSERT_TRUE(tree.Insert(k * 7919, k).ok());
    if (tree.level_count() > 0 && tree.runs_at(0) > 1) {
      saw_multi_run_level0 = true;
    }
  }
  EXPECT_TRUE(saw_multi_run_level0) << "level 0 should batch runs (tiered)";
  for (size_t level = 1; level < tree.level_count(); ++level) {
    EXPECT_LE(tree.runs_at(level), 1u)
        << "levels >= hybrid_tiered_levels must merge leveled";
  }
}

TEST(CompactionPolicyTest, MetricsCountersTrackFlushesAndCompactions) {
  Options options = SmallOptions();
  options.lsm.policy = LsmPolicy::kLeveled;
  LsmTree tree(options);
  MetricsRegistry::Counter* flushes =
      MetricsRegistry::Global().FindOrCreateCounter("lsm.flushes");
  MetricsRegistry::Counter* compactions =
      MetricsRegistry::Global().FindOrCreateCounter("lsm.compactions");
  uint64_t flushes_before = flushes->value();
  uint64_t compactions_before = compactions->value();
  for (Key k = 0; k < 64 * 10; ++k) {
    ASSERT_TRUE(tree.Insert(k, k).ok());
  }
  EXPECT_EQ(tree.flushes(), 10u);
  EXPECT_GT(tree.compactions(), 0u);
  EXPECT_GT(tree.compaction_input_records(), 0u);
  // The process-wide registry counters mirror the per-tree tallies.
  EXPECT_EQ(flushes->value() - flushes_before, tree.flushes());
  EXPECT_EQ(compactions->value() - compactions_before, tree.compactions());
}

}  // namespace
}  // namespace rum
