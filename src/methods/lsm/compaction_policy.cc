#include "methods/lsm/compaction_policy.h"

#include <limits>

#include "core/types.h"

namespace rum {

std::vector<LogRecord> MergeLogStreams(
    std::vector<std::vector<LogRecord>> streams, bool drop_tombstones) {
  // Streams are ordered newest first; a newer version of a key shadows all
  // older ones.
  std::vector<size_t> pos(streams.size(), 0);
  std::vector<LogRecord> out;
  while (true) {
    Key best = kMaxKey;
    size_t winner = streams.size();
    bool any = false;
    for (size_t i = 0; i < streams.size(); ++i) {
      if (pos[i] >= streams[i].size()) continue;
      Key k = streams[i][pos[i]].key;
      if (!any || k < best) {
        best = k;
        winner = i;
        any = true;
      }
    }
    if (!any) break;
    LogRecord chosen = streams[winner][pos[winner]];
    // Skip every (older) duplicate of this key.
    for (size_t i = 0; i < streams.size(); ++i) {
      while (pos[i] < streams[i].size() && streams[i][pos[i]].key == best) {
        ++pos[i];
      }
    }
    if (drop_tombstones && chosen.op == LogOp::kDelete) continue;
    out.push_back(chosen);
  }
  return out;
}

Status GatherSortedRun(SortedRun* run, std::vector<LogRecord>* records) {
  records->reserve(records->size() + run->record_count());
  // Charged: compaction reads every input page.
  return run->VisitAll([&](const LogRecord& r) { records->push_back(r); });
}

Status MergeSortedRuns(const std::vector<SortedRun*>& inputs,
                       bool drop_tombstones, std::vector<LogRecord>* merged) {
  std::vector<std::vector<LogRecord>> streams(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    Status s = GatherSortedRun(inputs[i], &streams[i]);
    if (!s.ok()) return s;
  }
  *merged = MergeLogStreams(std::move(streams), drop_tombstones);
  return Status::OK();
}

namespace {

using Levels = std::vector<std::vector<std::unique_ptr<SortedRun>>>;

uint64_t TotalRecords(const std::vector<SortedRun*>& runs) {
  uint64_t n = 0;
  for (const SortedRun* run : runs) n += run->record_count();
  return n;
}

/// All of one level's runs, newest first (runs are stored newest last).
std::vector<SortedRun*> LevelRunsNewestFirst(const Levels& levels,
                                             size_t level) {
  std::vector<SortedRun*> runs;
  runs.reserve(levels[level].size());
  for (size_t i = levels[level].size(); i-- > 0;) {
    runs.push_back(levels[level][i].get());
  }
  return runs;
}

Status DestroyLevel(CompactionContext* ctx, Levels* levels, size_t level) {
  for (auto& run : (*levels)[level]) {
    ctx->NoteRunRetiring(run.get());
    Status s = run->Destroy();
    if (!s.ok()) return s;
  }
  (*levels)[level].clear();
  return Status::OK();
}

/// Index of the deepest populated level, or levels.size() when empty.
size_t LastPopulatedIndex(const Levels& levels) {
  for (size_t i = levels.size(); i-- > 0;) {
    if (!levels[i].empty()) return i;
  }
  return levels.size();
}

/// Leveled, tiered, and hybrid are one discipline parameterized by how many
/// shallow levels merge tiered: 0 = leveled everywhere, SIZE_MAX = tiered
/// everywhere, H = CobbleDB-style per-level composition.
class ComposedPolicy : public CompactionPolicy {
 public:
  ComposedPolicy(LsmPolicy kind, std::string_view name, size_t tiered_levels)
      : kind_(kind), name_(name), tiered_levels_(tiered_levels) {}

  std::string_view name() const override { return name_; }
  LsmPolicy kind() const override { return kind_; }

  size_t MaxRunsAt(size_t level, const CompactionContext& ctx)
      const override {
    if (!Tiered(level, ctx)) return 1;
    return ctx.lsm_options().size_ratio - 1;
  }

  Status HandleFlush(CompactionContext* ctx,
                     std::vector<LogRecord> records) override {
    Levels& levels = ctx->levels();
    const size_t ratio = ctx->lsm_options().size_ratio;

    if (Tiered(0, *ctx)) {
      // The flush becomes a new level-0 run.
      Status s = ctx->BuildRun(0, std::move(records));
      if (!s.ok()) return s;
    } else {
      // Merge the flush into level 0 directly from memory (the memtable is
      // the newest stream).
      std::vector<std::vector<LogRecord>> streams;
      streams.push_back(std::move(records));
      if (!levels[0].empty()) {
        SortedRun* resident = levels[0].back().get();
        ctx->NoteCompaction(1, resident->record_count());
        streams.emplace_back();
        Status g = GatherSortedRun(resident, &streams.back());
        if (!g.ok()) return g;
        Status d = DestroyLevel(ctx, &levels, 0);
        if (!d.ok()) return d;
      }
      std::vector<LogRecord> merged =
          MergeLogStreams(std::move(streams), ctx->IsLastPopulated(0));
      Status s = ctx->BuildRun(0, std::move(merged));
      if (!s.ok()) return s;
    }

    // Cascade. BuildRun may extend the level array; the loop bound follows.
    for (size_t level = 0; level < levels.size(); ++level) {
      if (levels[level].empty()) continue;
      if (Tiered(level, *ctx)) {
        if (levels[level].size() < ratio) continue;
        std::vector<SortedRun*> inputs = LevelRunsNewestFirst(levels, level);
        if (levels.size() <= level + 1) levels.resize(level + 2);
        // A leveled destination absorbs its resident run in the same merge;
        // a tiered destination just gains a run.
        bool absorb = !Tiered(level + 1, *ctx) && !levels[level + 1].empty();
        if (absorb) {
          inputs.push_back(levels[level + 1].back().get());
        }
        bool drop = absorb ? ctx->IsLastPopulated(level + 1)
                           : ctx->IsLastPopulated(level);
        ctx->NoteCompaction(inputs.size(), TotalRecords(inputs));
        std::vector<LogRecord> merged;
        Status s = MergeSortedRuns(inputs, drop, &merged);
        if (!s.ok()) return s;
        s = DestroyLevel(ctx, &levels, level);
        if (!s.ok()) return s;
        if (absorb) {
          s = DestroyLevel(ctx, &levels, level + 1);
          if (!s.ok()) return s;
        }
        s = ctx->BuildRun(level + 1, std::move(merged));
        if (!s.ok()) return s;
      } else {
        // Leveled level: one run, pushed down when it overflows its target.
        if (levels[level].back()->record_count() <= ctx->LevelTarget(level)) {
          continue;
        }
        std::vector<SortedRun*> inputs;
        inputs.push_back(levels[level].back().get());
        if (levels.size() <= level + 1) levels.resize(level + 2);
        if (!levels[level + 1].empty()) {
          inputs.push_back(levels[level + 1].back().get());
        }
        ctx->NoteCompaction(inputs.size(), TotalRecords(inputs));
        std::vector<LogRecord> merged;
        Status s =
            MergeSortedRuns(inputs, ctx->IsLastPopulated(level + 1), &merged);
        if (!s.ok()) return s;
        s = DestroyLevel(ctx, &levels, level);
        if (!s.ok()) return s;
        s = DestroyLevel(ctx, &levels, level + 1);
        if (!s.ok()) return s;
        s = ctx->BuildRun(level + 1, std::move(merged));
        if (!s.ok()) return s;
      }
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

  friend class CompactionPolicy;

 public:
  /// Sentinel: read the tiered/leveled boundary from Options::lsm at use
  /// time (the hybrid policy), so re-tuning the knob needs no new object.
  static constexpr size_t kFromOptions = std::numeric_limits<size_t>::max() - 1;

 private:
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
    const Levels& levels =
        const_cast<CompactionContext&>(ctx).levels();
    if (level == LastPopulatedIndex(levels)) return 1;
    return ctx.lsm_options().size_ratio - 1;
  }

  Status HandleFlush(CompactionContext* ctx,
                     std::vector<LogRecord> records) override {
    Levels& levels = ctx->levels();
    const size_t ratio = ctx->lsm_options().size_ratio;

    Status s = ctx->BuildRun(0, std::move(records));
    if (!s.ok()) return s;

    // Cascade full tiered levels; the last populated level absorbs into its
    // single resident run instead of gaining one.
    for (size_t level = 0; level < levels.size(); ++level) {
      if (levels[level].size() < ratio) continue;
      std::vector<SortedRun*> inputs = LevelRunsNewestFirst(levels, level);
      if (levels.size() <= level + 1) levels.resize(level + 2);
      bool absorb =
          !levels[level + 1].empty() && ctx->IsLastPopulated(level + 1);
      if (absorb) {
        inputs.push_back(levels[level + 1].back().get());
      }
      bool drop = absorb ? ctx->IsLastPopulated(level + 1)
                         : ctx->IsLastPopulated(level);
      ctx->NoteCompaction(inputs.size(), TotalRecords(inputs));
      std::vector<LogRecord> merged;
      s = MergeSortedRuns(inputs, drop, &merged);
      if (!s.ok()) return s;
      s = DestroyLevel(ctx, &levels, level);
      if (!s.ok()) return s;
      if (absorb) {
        s = DestroyLevel(ctx, &levels, level + 1);
        if (!s.ok()) return s;
      }
      s = ctx->BuildRun(level + 1, std::move(merged));
      if (!s.ok()) return s;
    }

    // Restore the lazy invariant: the last populated level holds exactly
    // one run. Multiple runs appear there when it is level 0 early in the
    // tree's life, or when tombstone GC emptied everything below it.
    while (true) {
      size_t last = LastPopulatedIndex(levels);
      if (last >= levels.size() || levels[last].size() <= 1) break;
      std::vector<SortedRun*> inputs = LevelRunsNewestFirst(levels, last);
      ctx->NoteCompaction(inputs.size(), TotalRecords(inputs));
      std::vector<LogRecord> merged;
      s = MergeSortedRuns(inputs, ctx->IsLastPopulated(last), &merged);
      if (!s.ok()) return s;
      s = DestroyLevel(ctx, &levels, last);
      if (!s.ok()) return s;
      s = ctx->BuildRun(last, std::move(merged));
      if (!s.ok()) return s;
    }

    // Deepen: an oversized bottom run is relocated (a pointer move, no
    // I/O) so level indices keep tracking the T^level size progression.
    for (size_t last = LastPopulatedIndex(levels); last < levels.size();
         ++last) {
      if (levels[last].size() != 1 ||
          levels[last].back()->record_count() <= ctx->LevelTarget(last)) {
        break;
      }
      if (levels.size() <= last + 1) levels.resize(last + 2);
      levels[last + 1].push_back(std::move(levels[last].back()));
      levels[last].clear();
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
