#include "methods/lsm/compaction_policy.h"

#include <limits>

namespace rum {

uint64_t CompactionContext::LevelTarget(size_t level) const {
  uint64_t target = lsm_options().memtable_entries;
  for (size_t i = 0; i <= level; ++i) target *= lsm_options().size_ratio;
  return target;
}

bool CompactionContext::IsLastPopulated(size_t level) const {
  for (size_t i = level + 1; i < level_count(); ++i) {
    if (runs_at(i) > 0) return false;
  }
  return true;
}

size_t CompactionContext::LastPopulated() const {
  for (size_t i = level_count(); i-- > 0;) {
    if (runs_at(i) > 0) return i;
  }
  return level_count();
}

namespace {

/// Leveled, tiered, and hybrid are one discipline parameterized by how many
/// shallow levels merge tiered: 0 = leveled everywhere, SIZE_MAX = tiered
/// everywhere, H = CobbleDB-style per-level composition.
class ComposedPolicy : public CompactionPolicy {
 public:
  /// Sentinel: read the tiered/leveled boundary from Options::lsm at use
  /// time (the hybrid policy), so re-tuning the knob needs no new object.
  static constexpr size_t kFromOptions = std::numeric_limits<size_t>::max() - 1;

  ComposedPolicy(LsmPolicy kind, std::string_view name, size_t tiered_levels)
      : kind_(kind), name_(name), tiered_levels_(tiered_levels) {}

  std::string_view name() const override { return name_; }
  LsmPolicy kind() const override { return kind_; }

  size_t MaxRunsAt(size_t level, const CompactionContext& ctx)
      const override {
    if (!Tiered(level, ctx)) return 1;
    return ctx.lsm_options().size_ratio - 1;
  }

  Status HandleFlush(CompactionContext* ctx) const override {
    const size_t ratio = ctx->lsm_options().size_ratio;
    // A tiered level 0 takes the flush as a new run; a leveled one merges
    // it into its resident run straight from memory.
    Status s = Tiered(0, *ctx)
                   ? ctx->AddFlushRun()
                   : ctx->MergeLevel(0, 0, /*with_memtable=*/true,
                                     /*absorb_next=*/false);
    if (!s.ok()) return s;

    // Cascade. A merge may allocate a level; the loop bound follows.
    for (size_t level = 0; level < ctx->level_count(); ++level) {
      const size_t runs = ctx->runs_at(level);
      if (runs == 0) continue;
      if (Tiered(level, *ctx)) {
        if (runs < ratio) continue;
        // A leveled destination absorbs its resident run in the same merge;
        // a tiered destination just gains a run.
        s = ctx->MergeLevel(level, level + 1, /*with_memtable=*/false,
                            /*absorb_next=*/!Tiered(level + 1, *ctx));
      } else {
        // Leveled level: one run, pushed down when it overflows its target.
        if (ctx->newest_run_records(level) <= ctx->LevelTarget(level)) {
          continue;
        }
        s = ctx->MergeLevel(level, level + 1, /*with_memtable=*/false,
                            /*absorb_next=*/true);
      }
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  bool Tiered(size_t level, const CompactionContext& ctx) const {
    size_t boundary = tiered_levels_ == kFromOptions
                          ? ctx.lsm_options().hybrid_tiered_levels
                          : tiered_levels_;
    return level < boundary;
  }

  LsmPolicy kind_;
  std::string_view name_;
  size_t tiered_levels_;
};

/// Dostoevsky-style lazy leveling: every level merges tiered except the
/// last populated one, which is kept a single run -- point reads see one
/// run plus Bloom-filtered upper levels while upper-level writes stay
/// tiered-cheap.
class LazyLeveledPolicy : public CompactionPolicy {
 public:
  std::string_view name() const override { return "lazy-leveled"; }
  LsmPolicy kind() const override { return LsmPolicy::kLazyLeveled; }

  size_t MaxRunsAt(size_t level, const CompactionContext& ctx)
      const override {
    if (level == ctx.LastPopulated()) return 1;
    return ctx.lsm_options().size_ratio - 1;
  }

  Status HandleFlush(CompactionContext* ctx) const override {
    const size_t ratio = ctx->lsm_options().size_ratio;
    Status s = ctx->AddFlushRun();
    if (!s.ok()) return s;

    // Cascade full tiered levels; the last populated level absorbs into its
    // single resident run instead of gaining one.
    for (size_t level = 0; level < ctx->level_count(); ++level) {
      if (ctx->runs_at(level) < ratio) continue;
      bool absorb =
          ctx->runs_at(level + 1) > 0 && ctx->IsLastPopulated(level + 1);
      s = ctx->MergeLevel(level, level + 1, /*with_memtable=*/false, absorb);
      if (!s.ok()) return s;
    }

    // Restore the lazy invariant: the last populated level holds exactly
    // one run. Multiple runs appear there when it is level 0 early in the
    // tree's life, or when tombstone GC emptied everything below it.
    for (size_t last = ctx->LastPopulated(); ctx->runs_at(last) > 1;
         last = ctx->LastPopulated()) {
      s = ctx->MergeLevel(last, last, /*with_memtable=*/false,
                          /*absorb_next=*/false);
      if (!s.ok()) return s;
    }

    // Deepen: an oversized bottom run is relocated (no I/O) so level
    // indices keep tracking the T^level size progression.
    for (size_t last = ctx->LastPopulated();
         ctx->runs_at(last) == 1 &&
         ctx->newest_run_records(last) > ctx->LevelTarget(last);
         ++last) {
      ctx->MoveRunDown(last);
    }
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<CompactionPolicy> CompactionPolicy::Make(LsmPolicy kind) {
  switch (kind) {
    case LsmPolicy::kLeveled:
      return std::make_unique<ComposedPolicy>(LsmPolicy::kLeveled, "leveled",
                                              0);
    case LsmPolicy::kTiered:
      return std::make_unique<ComposedPolicy>(
          LsmPolicy::kTiered, "tiered",
          std::numeric_limits<size_t>::max());
    case LsmPolicy::kLazyLeveled:
      return std::make_unique<LazyLeveledPolicy>();
    case LsmPolicy::kHybrid:
      return std::make_unique<ComposedPolicy>(LsmPolicy::kHybrid, "hybrid",
                                              ComposedPolicy::kFromOptions);
  }
  return nullptr;
}

}  // namespace rum
