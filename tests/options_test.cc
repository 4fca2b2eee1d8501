// Validation tests for the Options knobs.
#include <gtest/gtest.h>

#include "core/options.h"
#include "methods/factory.h"

namespace rum {
namespace {

TEST(OptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidateOptions(Options()).ok());
}

TEST(OptionsTest, RejectsTinyBlocks) {
  Options options;
  options.block_size = 32;
  EXPECT_EQ(ValidateOptions(options).code(), Code::kInvalidArgument);
}

TEST(OptionsTest, RejectsBadFractions) {
  Options options;
  options.btree.bulk_fill = 0.0;
  EXPECT_FALSE(ValidateOptions(options).ok());
  options = Options();
  options.btree.bulk_fill = 1.5;
  EXPECT_FALSE(ValidateOptions(options).ok());
  options = Options();
  options.btree.split_fraction = 1.0;
  EXPECT_FALSE(ValidateOptions(options).ok());
  options = Options();
  options.skiplist.promote_probability = 0.0;
  EXPECT_FALSE(ValidateOptions(options).ok());
  options = Options();
  options.approx.rebuild_deleted_fraction = 0.0;
  EXPECT_FALSE(ValidateOptions(options).ok());
}

TEST(OptionsTest, RejectsDegenerateStructureSizes) {
  Options options;
  options.lsm.size_ratio = 1;
  EXPECT_FALSE(ValidateOptions(options).ok());
  options = Options();
  options.zonemap.zone_entries = 1;
  EXPECT_FALSE(ValidateOptions(options).ok());
  options = Options();
  options.skiplist.max_height = 0;
  EXPECT_FALSE(ValidateOptions(options).ok());
  options = Options();
  options.lsm.policy = LsmPolicy::kHybrid;
  options.lsm.hybrid_tiered_levels = 0;  // That would just be leveled.
  EXPECT_FALSE(ValidateOptions(options).ok());
  options.lsm.hybrid_tiered_levels = 2;
  EXPECT_TRUE(ValidateOptions(options).ok());
}

TEST(OptionsTest, RejectsNonDividingTrieSpan) {
  Options options;
  options.trie.span_bits = 7;  // Does not divide 64.
  EXPECT_FALSE(ValidateOptions(options).ok());
  options.trie.span_bits = 16;
  EXPECT_TRUE(ValidateOptions(options).ok());
}

TEST(OptionsTest, FactoryRejectsInvalidOptions) {
  Options options;
  options.block_size = 8;
  EXPECT_EQ(MakeAccessMethod("btree", options), nullptr);
}

TEST(OptionsTest, FactoryRejectsUnknownNames) {
  EXPECT_EQ(MakeAccessMethod("no-such-method", Options()), nullptr);
}

TEST(OptionsTest, EveryAdvertisedNameConstructs) {
  Options options;
  for (std::string_view name : AllAccessMethodNames()) {
    EXPECT_NE(MakeAccessMethod(name, options), nullptr) << name;
  }
}

}  // namespace
}  // namespace rum
