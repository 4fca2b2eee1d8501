// Property sweeps: every access method must satisfy the model harness's
// differential contract under *every* configuration, not just the defaults -- tiny and
// large blocks, extreme split fractions, deep and shallow merge
// hierarchies, narrow and wide trie spans, degenerate buffer sizes.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/access_method.h"
#include "methods/factory.h"
#include "tests/model_harness.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"

namespace rum {
namespace {

struct SweepConfig {
  std::string label;
  std::string method;
  Options options;
};

Options BaseOptions(size_t block_size) {
  Options options = testing_util::SmallOptions();
  options.block_size = block_size;
  return options;
}

std::vector<SweepConfig> MakeConfigs() {
  std::vector<SweepConfig> configs;
  auto add = [&](std::string label, std::string method, Options options) {
    configs.push_back(SweepConfig{std::move(label), std::move(method),
                                  std::move(options)});
  };

  for (size_t block : {256u, 512u, 2048u}) {
    std::string suffix = "_blk" + std::to_string(block);
    add("btree" + suffix, "btree", BaseOptions(block));
    add("hash" + suffix, "hash", BaseOptions(block));
    add("zonemap" + suffix, "zonemap", BaseOptions(block));
    add("lsm_leveled" + suffix, "lsm-leveled", BaseOptions(block));
    add("sorted_column" + suffix, "sorted-column", BaseOptions(block));
  }

  {
    Options options = BaseOptions(512);
    options.btree.split_fraction = 0.1;
    add("btree_split10", "btree", options);
    options.btree.split_fraction = 0.9;
    add("btree_split90", "btree", options);
    options = BaseOptions(512);
    options.btree.node_size = 4096;  // Node larger than device default.
    add("btree_bignode", "btree", options);
  }
  {
    Options options = BaseOptions(512);
    options.lsm.memtable_entries = 8;  // Constant flushing.
    add("lsm_tinymem", "lsm-leveled", options);
    options = BaseOptions(512);
    options.lsm.size_ratio = 2;
    options.lsm.policy = LsmPolicy::kTiered;
    add("lsm_tiered_t2", "lsm-tiered", options);
    options.lsm.size_ratio = 8;
    add("lsm_tiered_t8", "lsm-tiered", options);
    options = BaseOptions(512);
    options.lsm.bloom_bits_per_key = 0;  // No filters.
    add("lsm_nofilter", "lsm-leveled", options);
    options = BaseOptions(512);
    options.lsm.fence_entries = 8;
    add("lsm_densefence", "lsm-leveled", options);
    options = BaseOptions(512);
    options.lsm.fence_entries = 4096;  // ~132 pages per fence group.
    add("lsm_sparsefence", "lsm-leveled", options);
    options = BaseOptions(512);
    options.lsm.fence_entries = 4096;
    options.lsm.bloom_bits_per_key = 0;
    options.lsm.policy = LsmPolicy::kTiered;
    add("lsm_sparse_naked_tiered", "lsm-tiered", options);
  }
  {
    Options options = BaseOptions(512);
    options.stepped.buffer_entries = 16;
    options.stepped.runs_per_level = 2;
    add("stepped_small", "stepped-merge", options);
    options.stepped.runs_per_level = 8;
    add("stepped_wide", "stepped-merge", options);
  }
  {
    Options options = BaseOptions(512);
    options.zonemap.zone_entries = 16;
    add("zonemap_tiny_zones", "zonemap", options);
    options.zonemap.zone_entries = 4096;
    add("zonemap_huge_zones", "zonemap", options);
  }
  {
    Options options = BaseOptions(512);
    options.trie.span_bits = 4;
    add("trie_span4", "trie", options);
    options.trie.span_bits = 16;
    add("trie_span16", "trie", options);
  }
  {
    Options options = BaseOptions(512);
    options.skiplist.promote_probability = 0.5;
    options.skiplist.max_height = 4;
    add("skiplist_shallow", "skiplist", options);
  }
  {
    Options options = BaseOptions(512);
    options.bitmap.cardinality = 1;  // Everything in one bin.
    add("bitmap_onebin", "bitmap", options);
    options = BaseOptions(512);
    options.bitmap.cardinality = 512;
    options.bitmap.delta_merge_threshold = 16;
    add("bitmap_manybins_eager", "bitmap-delta", options);
  }
  {
    Options options = BaseOptions(512);
    options.cracking.min_piece_entries = 1;
    add("cracking_fullcrack", "cracking", options);
    options = BaseOptions(512);
    options.cracking.delta_merge_threshold = 8;  // Merge constantly.
    add("cracking_eager_merge", "cracking", options);
  }
  {
    Options options = BaseOptions(512);
    options.approx.zone_entries = 32;
    options.approx.bits_per_key = 4;
    add("bloomzones_small", "bloom-zones", options);
  }
  {
    Options options = BaseOptions(512);
    options.absorber.delta_entries = 8;  // Drain constantly.
    add("absorbed_btree_tinydelta", "absorbed-btree", options);
    options = BaseOptions(512);
    options.absorber.qf_remainder_bits = 4;  // Frequent false positives.
    add("absorbed_btree_fuzzyqf", "absorbed-btree", options);
  }
  {
    Options options = BaseOptions(512);
    options.hash.directory_fanout = 0.5;  // Forces immediate growth.
    add("hash_undersized", "hash", options);
  }
  return configs;
}

class ParamSweepTest : public ::testing::TestWithParam<SweepConfig> {};

// The harness's op stream (no faults or crashes: the method runs on its
// private device) against the std::map model, on each configuration.
TEST_P(ParamSweepTest, RandomizedDifferential) {
  const SweepConfig& config = GetParam();
  ASSERT_TRUE(ValidateOptions(config.options).ok());
  std::vector<harness::Op> ops = harness::Generate(
      0xABCD, harness::GenSpec{.ops = 3000, .key_range = 1u << 11,
                               .faults = false, .crashes = false});
  EXPECT_TRUE(harness::RunWithOptions(config.method, config.options, ops))
      << config.label;
}

TEST_P(ParamSweepTest, BulkLoadRoundTrip) {
  const SweepConfig& config = GetParam();
  std::unique_ptr<AccessMethod> method =
      MakeAccessMethod(config.method, config.options);
  ASSERT_NE(method, nullptr);
  std::vector<Entry> entries = MakeSortedEntries(1200, 3, 3);
  ASSERT_TRUE(method->BulkLoad(entries).ok()) << config.label;
  ASSERT_TRUE(method->Flush().ok());
  EXPECT_EQ(method->size(), entries.size());
  for (size_t i = 0; i < entries.size(); i += 41) {
    Result<Value> got = method->Get(entries[i].key);
    ASSERT_TRUE(got.ok()) << config.label << " key " << entries[i].key;
    EXPECT_EQ(got.value(), entries[i].value);
  }
  std::vector<Entry> all;
  ASSERT_TRUE(method->Scan(0, kMaxKey, &all).ok()) << config.label;
  ASSERT_EQ(all.size(), entries.size());
  EXPECT_TRUE(std::equal(all.begin(), all.end(), entries.begin()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParamSweepTest, ::testing::ValuesIn(MakeConfigs()),
    [](const ::testing::TestParamInfo<SweepConfig>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace rum
