#include "tests/model_harness.h"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "methods/factory.h"
#include "methods/lsm/compaction_policy.h"
#include "methods/lsm/lsm_tree.h"
#include "methods/sharded/sharded_method.h"
#include "service/scheduler.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"

namespace rum {
namespace harness {

namespace {

using Answer = std::optional<Value>;

// ------------------------------------------------------------- Generation

/// Op weights in OpKind order. A bulk load is never drawn: it can only
/// open a stream.
using Weights = std::array<uint32_t, kOpKinds>;

//                        I    U    D    G    M    S   F   C   R   P   X  B
constexpr Weights kProfiles[] = {
    Weights{300, 100, 100, 250, 60, 100, 30, 15, 10, 15, 20, 0},  // Mixed.
    Weights{200, 50, 400, 120, 40, 120, 40, 10, 5, 5, 10, 0},  // Tombstones.
    Weights{80, 40, 30, 450, 150, 200, 10, 10, 10, 10, 10, 0},  // Read-heavy.
};

OpKind DrawKind(Weights weights, const GenSpec& spec, Rng* rng) {
  if (!spec.faults) weights[static_cast<size_t>(OpKind::kFaults)] = 0;
  if (!spec.crashes) weights[static_cast<size_t>(OpKind::kCrash)] = 0;
  uint64_t total = 0;
  for (uint32_t w : weights) total += w;
  uint64_t pick = rng->NextBelow(total);
  for (size_t i = 0; i < kOpKinds; ++i) {
    if (pick < weights[i]) return static_cast<OpKind>(i);
    pick -= weights[i];
  }
  return OpKind::kGet;
}

/// Mostly narrow windows, with a steady trickle of the degenerate shapes
/// that break naive merges.
void DrawRange(Rng* rng, Key key_range, Key* lo, Key* hi) {
  uint64_t shape = rng->NextBelow(100);
  if (shape < 60) {  // Narrow window.
    *lo = rng->NextBelow(key_range);
    *hi = *lo + rng->NextBelow(64);
  } else if (shape < 75) {  // lo == hi.
    *lo = rng->NextBelow(key_range);
    *hi = *lo;
  } else if (shape < 85) {  // Empty gap past the populated domain.
    *lo = key_range + rng->NextBelow(key_range);
    *hi = *lo + rng->NextBelow(256);
  } else if (shape < 95) {  // Wide window.
    *lo = rng->NextBelow(key_range);
    *hi = *lo + rng->NextBelow(key_range);
  } else {  // Up to the top of the key space.
    *lo = rng->NextBelow(key_range);
    *hi = kMaxKey;
  }
}

/// Hits, duplicates, guaranteed misses past the key range, and the last
/// deleted key (a tombstone candidate). Half the duplicates repeat the last
/// written key instead of an earlier slot: earlier slots are mostly misses,
/// and a duplicate of a live key is what read coalescing must get right.
/// Every slot draws the same number of values either way, so the rest of
/// the stream does not depend on this choice.
std::vector<Key> DrawBatch(Rng* rng, Key key_range, Key last_deleted,
                           Key last_written) {
  uint64_t dice = rng->NextBelow(100);
  size_t n = dice < 35   ? 1
             : dice < 65 ? 2 + rng->NextBelow(7)
             : dice < 97 ? 9 + rng->NextBelow(56)
                         : 512;
  std::vector<Key> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t kind = rng->NextBelow(10);
    if (kind == 0 && !keys.empty()) {
      uint64_t slot = rng->NextBelow(2 * keys.size());
      keys.push_back(slot < keys.size() ? keys[slot] : last_written);
    } else if (kind == 1) {
      keys.push_back(key_range + rng->NextBelow(1000));
    } else if (kind == 2) {
      keys.push_back(last_deleted);
    } else {
      keys.push_back(rng->NextBelow(key_range));
    }
  }
  return keys;
}

// ------------------------------------------------------------------ Model

std::string Show(const Answer& a) {
  return a.has_value() ? std::to_string(*a) : std::string("absent");
}

/// A failure the method reported, as opposed to a wrong answer. Once data
/// may have been lost, an encoder refusing a block it no longer fits counts
/// too.
bool IsExplicit(Code code, bool damaged) {
  return code == Code::kIOError || code == Code::kCorruption ||
         code == Code::kUnavailable ||
         (damaged && code == Code::kResourceExhausted);
}

/// What the method may answer. Exact until data may have been lost. Then,
/// until a recovery re-anchors it, any key may be absent, and a present key
/// must carry its value at the last durable point or one attempted since:
/// never one written for another key, and never an older one -- unless a
/// mutation failed part-way, after which a merge it interrupted may have
/// resurfaced any version the key ever had.
class Model {
 public:
  bool lossy() const { return lossy_; }
  const std::map<Key, Value>& exact() const { return exact_; }
  const std::map<Key, std::vector<Answer>>& history() const {
    return history_;
  }

  Answer Current(Key key) const {
    auto it = exact_.find(key);
    return it == exact_.end() ? Answer() : Answer(it->second);
  }

  /// Before a mutation of `key` to `next` is attempted.
  void Attempt(Key key, const Answer& next) {
    auto [it, fresh] = history_.try_emplace(key);
    if (fresh) it->second.push_back(Current(key));
    it->second.push_back(next);
    if (next.has_value()) lifetime_[key].push_back(*next);
  }
  /// After the mutation was acknowledged.
  void Ack(Key key, const Answer& next) {
    if (next.has_value()) {
      exact_[key] = *next;
    } else {
      exact_.erase(key);
    }
  }
  /// `stale` when a mutation failed part-way (see the class comment).
  void MarkLossy(bool stale) {
    lossy_ = true;
    stale_ = stale_ || stale;
  }
  /// Everything so far reached the bottom of the stack.
  void MarkDurable() {
    if (!lossy_) history_.clear();
  }
  /// A recovered state that passed the resync checks becomes exact.
  void Adopt(std::map<Key, Value> state) {
    exact_ = std::move(state);
    lossy_ = false;
    stale_ = false;
  }

  bool Allows(Key key, const Answer& got) const {
    if (!lossy_) return got == Current(key);
    if (!got.has_value()) return true;
    auto it = history_.find(key);
    if (it == history_.end() ? got == Current(key)
                             : std::find(it->second.begin(), it->second.end(),
                                         got) != it->second.end()) {
      return true;
    }
    auto old = lifetime_.find(key);
    return stale_ && old != lifetime_.end() &&
           std::find(old->second.begin(), old->second.end(), *got) !=
               old->second.end();
  }

  std::string Describe(Key key) const {
    auto it = history_.find(key);
    if (!lossy_ || it == history_.end()) return Show(Current(key));
    std::string out = stale_ ? "absent, an older version, or one of {"
                             : "absent or one of {";
    for (size_t i = 0; i < it->second.size(); ++i) {
      out += (i ? ", " : "") + Show(it->second[i]);
    }
    return out + "}";
  }

 private:
  std::map<Key, Value> exact_;
  std::map<Key, std::vector<Answer>> history_;
  std::map<Key, std::vector<Value>> lifetime_;  ///< Every value attempted.
  bool lossy_ = false;
  bool stale_ = false;
};

/// Every returned entry lies in [lo, hi] and is allowed. Exact scans must
/// also be strictly ascending and complete; so must `ordered` ones (a
/// recovery candidate).
::testing::AssertionResult CheckScan(const Model& model, Key lo, Key hi,
                                     const std::vector<Entry>& got,
                                     bool ordered = false) {
  ordered = ordered || !model.lossy();
  for (size_t i = 0; i < got.size(); ++i) {
    const Entry& e = got[i];
    if (e.key < lo || e.key > hi) {
      return ::testing::AssertionFailure()
             << "Scan(" << lo << ", " << hi << ") returned key " << e.key
             << " outside the range";
    }
    if (ordered && i > 0 && e.key <= got[i - 1].key) {
      return ::testing::AssertionFailure()
             << "Scan(" << lo << ", " << hi << ") not strictly ascending at "
             << e.key;
    }
    if (!model.Allows(e.key, e.value)) {
      return ::testing::AssertionFailure()
             << "Scan(" << lo << ", " << hi << ") returned " << e.key << "="
             << e.value << ", model allows " << model.Describe(e.key);
    }
  }
  if (model.lossy()) return ::testing::AssertionSuccess();
  auto it = model.exact().lower_bound(lo);
  size_t expected = 0;
  for (; it != model.exact().end() && it->first <= hi; ++it) ++expected;
  if (got.size() != expected) {
    return ::testing::AssertionFailure()
           << "Scan(" << lo << ", " << hi << ") returned " << got.size()
           << " entries, model holds " << expected;
  }
  return ::testing::AssertionSuccess();
}

/// Every LSM tree inside a (possibly sharded) method.
void CollectTrees(AccessMethod* method, std::vector<LsmTree*>* out) {
  if (auto* sharded = dynamic_cast<ShardedMethod*>(method)) {
    for (size_t i = 0; i < sharded->partitions(); ++i) {
      CollectTrees(sharded->shard(i), out);
    }
  } else if (auto* tree = dynamic_cast<LsmTree*>(method)) {
    out->push_back(tree);
  }
}

/// The merge-policy bounds every policy restores before a flush returns.
::testing::AssertionResult PolicyBoundsHold(LsmTree* tree) {
  const CompactionPolicy& policy = tree->policy();
  for (size_t level = 0; level < tree->level_count(); ++level) {
    size_t max_runs = policy.MaxRunsAt(level, *tree);
    if (tree->runs_at(level) > max_runs) {
      return ::testing::AssertionFailure()
             << "level " << level << " holds " << tree->runs_at(level)
             << " runs, policy allows " << max_runs;
    }
    for (const auto& run : tree->levels()[level]) {
      if (run->record_count() > tree->LevelTarget(level)) {
        return ::testing::AssertionFailure()
               << "level " << level << " run holds " << run->record_count()
               << " records, capacity " << tree->LevelTarget(level);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ----------------------------------------------------------------- Runner

/// Applies ops to a subject and checks every step against the model and
/// the accounting identities.
class Runner {
 public:
  explicit Runner(Subject* subject) : s_(subject) {
    CollectTrees(m(), &trees_);
    suspect_.assign(trees_.size(), false);
    // An LSM tree buffers mutations in memory and installs a flushed or
    // merged run only once every page of it is written, so a failed
    // mutation leaves its pages and in-memory state in agreement. It can
    // still lose data: a merge retires its inputs before it builds its
    // output, so a flush whose build fails drops the sealed memtable and
    // every merge input (ROADMAP item 5). The lossy model allows that.
    atomic_ = !trees_.empty();
  }

  ::testing::AssertionResult Step(const Op& op) {
    last_failed_ = false;
    std::vector<uint64_t> flushes_before;
    for (LsmTree* tree : trees_) flushes_before.push_back(tree->flushes());
    ::testing::AssertionResult r = Apply(op);
    if (!r) return r;
    return CheckIdentities(flushes_before);
  }

  /// Arms a plan the generator does not know about (the crash sweep's
  /// FailAfter budget): errors become tolerated, as under any armed plan.
  void Arm(const FaultPlan& plan) {
    s_->faulty().SetPlan(plan);
    armed_ = true;
  }

  /// Disarms faults, recovers if data may have been lost, and compares the
  /// whole final state.
  ::testing::AssertionResult Finish() {
    if (armed_) {
      s_->faulty().ClearFaults();
      armed_ = false;
    }
    if (model_.lossy()) {
      if (auto r = Resync(); !r) return r;
    }
    if (s_->stacked()) {
      report_.faults_injected += s_->faulty().faults_injected();
    }
    if (model_.lossy()) return ::testing::AssertionSuccess();
    std::vector<Entry> all;
    Status st = Scan(0, kMaxKey, &all);
    if (!st.ok()) return Outcome(st, "final Scan");
    if (auto r = CheckScan(model_, 0, kMaxKey, all); !r) {
      return r << " (final state)";
    }
    report_.final_keys += all.size();
    return CheckIdentities({});
  }

  /// Keeps the model lossy after recoveries: later answers are held to the
  /// history only. A method without recovery logic can pass the recovery
  /// check yet keep in-memory state that disagrees with its recovered pages.
  void StayLossy() { adopt_ = false; }

  bool last_failed() const { return last_failed_; }
  const Report& report() const { return report_; }

 private:
  AccessMethod* m() const { return s_->method(); }

  /// An error status is acceptable only when it is explicit and something
  /// could have caused it: an armed plan, or damage an earlier fault or
  /// crash left on the device that no adopted recovery has cleared since.
  ::testing::AssertionResult Outcome(const Status& st, const char* what) {
    if (st.ok()) return ::testing::AssertionSuccess();
    if (IsExplicit(st.code(), damaged_) && (armed_ || damaged_)) {
      last_failed_ = true;
      ++report_.failed_ops;
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << what << " returned " << st.ToString()
           << (armed_ || damaged_ ? "" : " with no fault armed");
  }

  /// A mutation or flush failed part-way: anything it touched may be lost.
  void MarkLost() {
    model_.MarkLossy(/*stale=*/true);
    damaged_ = true;
    size_drift_ = true;
    partial_ = partial_ || !atomic_;
    suspect_.assign(trees_.size(), true);
  }

  /// The method may hold in-memory state its pages contradict, so a
  /// read-back that is not self-consistent is no violation.
  bool Unsound() const { return crash_lost_ || partial_; }

  ::testing::AssertionResult Apply(const Op& op) {
    switch (op.kind) {
      case OpKind::kInsert:
      case OpKind::kUpdate:
      case OpKind::kDelete:
        return Mutate(op);
      case OpKind::kGet:
        return PointGet(op.key);
      case OpKind::kMultiGet:
        return BatchGet(op.keys);
      case OpKind::kScan:
        return RangeScan(op.key, op.hi);
      case OpKind::kFlush:
        return DurableFlush();
      case OpKind::kCrash:
        return CrashStack();
      case OpKind::kResetStats:
        return ResetStats();
      case OpKind::kReplan:
        if (s_->arbiter() != nullptr) {
          s_->arbiter()->Replan();
          durable_ = false;  // A shrunk cache writes victims back.
        }
        return ::testing::AssertionSuccess();
      case OpKind::kFaults:
        if (!s_->stacked()) return ::testing::AssertionSuccess();
        s_->faulty().SetPlan(FaultPlanFor(op.plan));
        armed_ = op.plan != 0;
        if (!armed_ && model_.lossy()) return Resync();
        return ::testing::AssertionSuccess();
      case OpKind::kBulkLoad:
        return Load(op);
    }
    return ::testing::AssertionFailure() << "unknown op kind";
  }

  // The front door: each request goes to the scheduler when the subject
  // has one, else straight to the method. Either way it counts as issued.

  /// Submits `reqs` at the scheduler's current virtual time and serves
  /// until idle, so they drain before the next op. A burst is submitted in
  /// chunks no longer than a shard's queue, so none is shed for space.
  /// Results come back in submission order.
  std::vector<RequestResult> Serve(std::vector<Request> reqs) {
    RequestScheduler* scheduler = s_->scheduler();
    std::vector<RequestResult> results(reqs.size());
    const uint64_t first = scheduler->stats().submitted;
    scheduler->set_completion([&](const Request& req, const RequestResult& r) {
      results[req.seq - first] = r;
    });
    const size_t chunk = s_->options().service.queue_capacity;
    for (size_t i = 0; i < reqs.size(); ++i) {
      reqs[i].arrival_us = scheduler->now_us();
      scheduler->Submit(std::move(reqs[i]));
      if ((i + 1) % chunk == 0 || i + 1 == reqs.size()) {
        scheduler->RunUntilIdle();
      }
    }
    scheduler->set_completion(nullptr);  // It refers to this frame.
    return results;
  }

  static Request GetRequest(Key key) {
    Request req;
    req.op = RequestOp::kGet;
    req.key = key;
    return req;
  }

  Status Mutation(const Op& op) {
    ++requests_;
    if (s_->scheduler() == nullptr) {
      switch (op.kind) {
        case OpKind::kInsert:
          return m()->Insert(op.key, op.value);
        case OpKind::kUpdate:
          return m()->Update(op.key, op.value);
        default:
          return m()->Delete(op.key);
      }
    }
    Request req;
    req.op = op.kind == OpKind::kInsert   ? RequestOp::kInsert
             : op.kind == OpKind::kUpdate ? RequestOp::kUpdate
                                          : RequestOp::kDelete;
    req.key = op.key;
    req.value = op.value;
    return Serve({req})[0].status;
  }

  Result<Value> Get(Key key) {
    ++requests_;
    if (s_->scheduler() == nullptr) return m()->Get(key);
    RequestResult r = Serve({GetRequest(key)})[0];
    if (r.found) return r.value;
    return r.status;
  }

  /// A scheduled batch fails with the first failed request's status.
  Status MultiGet(const std::vector<Key>& keys, std::vector<Answer>* out) {
    requests_ += keys.size();
    if (s_->scheduler() == nullptr) return m()->MultiGet(keys, out);
    std::vector<Request> reqs;
    for (Key key : keys) reqs.push_back(GetRequest(key));
    out->clear();
    for (const RequestResult& r : Serve(std::move(reqs))) {
      if (!r.status.ok() && !r.status.IsNotFound()) return r.status;
      out->push_back(r.found ? Answer(r.value) : Answer());
    }
    return Status::OK();
  }

  Status Scan(Key lo, Key hi, std::vector<Entry>* out) {
    ++requests_;
    if (s_->scheduler() == nullptr) return m()->Scan(lo, hi, out);
    Request req;
    req.op = RequestOp::kScan;
    req.key = lo;
    req.scan_hi = hi;
    req.scan_out = out;
    return Serve({req})[0].status;
  }

  ::testing::AssertionResult Mutate(const Op& op) {
    Answer next =
        op.kind == OpKind::kDelete ? Answer() : Answer(op.value);
    model_.Attempt(op.key, next);
    durable_ = false;
    Status st = Mutation(op);
    if (st.ok()) {
      model_.Ack(op.key, next);
      return ::testing::AssertionSuccess();
    }
    auto r = Outcome(st, "mutation");
    if (r) MarkLost();
    return r;
  }

  /// Straight to the method: the scheduler takes no bulk loads.
  ::testing::AssertionResult Load(const Op& op) {
    std::vector<Entry> entries;
    for (Key k = op.key; k <= op.hi; ++k) {
      entries.push_back(Entry{k, op.value + (k - op.key)});
    }
    for (const Entry& e : entries) model_.Attempt(e.key, e.value);
    durable_ = false;
    Status st = m()->BulkLoad(entries);
    if (st.ok()) {
      for (const Entry& e : entries) model_.Ack(e.key, e.value);
      return ::testing::AssertionSuccess();
    }
    auto r = Outcome(st, "BulkLoad");
    if (r) MarkLost();
    return r;
  }

  ::testing::AssertionResult PointGet(Key key) {
    Result<Value> got = Get(key);
    if (!got.ok() && !got.status().IsNotFound()) {
      return Outcome(got.status(), "Get");
    }
    Answer answer = got.ok() ? Answer(got.value()) : Answer();
    if (!model_.Allows(key, answer)) {
      return ::testing::AssertionFailure()
             << "Get(" << key << ") returned " << Show(answer)
             << ", model allows " << model_.Describe(key);
    }
    return ::testing::AssertionSuccess();
  }

  /// Checks the batch against the model and, while no plan is armed,
  /// against the per-key Get loop on the same instance: the two read paths
  /// must agree exactly -- or both fail explicitly -- even on a damaged
  /// state the model can only bound.
  ::testing::AssertionResult BatchGet(const std::vector<Key>& keys) {
    std::vector<Answer> out;
    Status st = MultiGet(keys, &out);
    std::vector<Answer> loop;
    Status loop_st;
    if (!armed_) {
      for (Key key : keys) {
        Result<Value> got = Get(key);
        if (!got.ok() && !got.status().IsNotFound()) {
          loop_st = got.status();
          break;
        }
        loop.push_back(got.ok() ? Answer(got.value()) : Answer());
      }
      if (st.ok() != loop_st.ok()) {
        return ::testing::AssertionFailure()
               << "MultiGet returned " << st.ToString()
               << " but the Get loop " << loop_st.ToString();
      }
    }
    if (!st.ok()) return Outcome(st, "MultiGet");
    if (!armed_ && out != loop) {
      for (size_t i = 0; i < keys.size(); ++i) {
        if (i >= out.size() || out[i] != loop[i]) {
          return ::testing::AssertionFailure()
                 << "MultiGet slot " << i << " key " << keys[i] << " returned "
                 << (i < out.size() ? Show(out[i]) : "nothing")
                 << ", the Get loop " << Show(loop[i]);
        }
      }
    }
    if (out.size() != keys.size()) {
      return ::testing::AssertionFailure()
             << "MultiGet returned " << out.size() << " slots for "
             << keys.size() << " keys";
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!model_.Allows(keys[i], out[i])) {
        return ::testing::AssertionFailure()
               << "MultiGet slot " << i << " key " << keys[i] << " returned "
               << Show(out[i]) << ", model allows " << model_.Describe(keys[i]);
      }
    }
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult RangeScan(Key lo, Key hi) {
    std::vector<Entry> got;
    Status st = Scan(lo, hi, &got);
    if (!st.ok()) return Outcome(st, "Scan");
    return CheckScan(model_, lo, hi, got);
  }

  ::testing::AssertionResult DurableFlush() {
    Status st = m()->Flush();
    if (!st.ok()) {
      auto r = Outcome(st, "Flush");
      if (r) MarkLost();
      return r;
    }
    // A failed write-back keeps its page dirty in the cache: nothing is
    // lost, the state just is not durable yet.
    if (s_->stacked()) {
      st = s_->cache() != nullptr ? s_->cache()->FlushAll()
                                  : s_->faulty().FlushAll();
      if (!st.ok()) return Outcome(st, "FlushAll");
    }
    if (!model_.lossy()) {
      model_.MarkDurable();
      durable_ = true;
    }
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult CrashStack() {
    if (!s_->stacked()) return ::testing::AssertionSuccess();
    if (s_->cache() != nullptr) {
      s_->cache()->Crash();
      if (!durable_) {
        ++report_.lossy_crashes;
        model_.MarkLossy(/*stale=*/false);
        damaged_ = true;
        size_drift_ = true;
        crash_lost_ = true;
      }
    } else {
      s_->faulty().Crash();  // Nothing volatile below: a no-op for data.
    }
    if (!armed_ && model_.lossy()) return Resync();
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult ResetStats() {
    uint64_t space = m()->stats().total_space();
    m()->ResetStats();
    CounterSnapshot after = m()->stats();
    if (after.total_bytes_read() != 0 || after.total_bytes_written() != 0 ||
        after.total_space() != space) {
      return ::testing::AssertionFailure()
             << "ResetStats left traffic or moved space:\n"
             << after.ToString();
    }
    return ::testing::AssertionSuccess();
  }

  /// Re-anchors a lossy model: reads the whole state back and, when it is
  /// self-consistent -- ordered, allowed by the history, and agreeing with
  /// point Gets -- adopts it as exact. An entry the history rules out is a
  /// violation either way. A state that is not self-consistent is one too,
  /// unless the method may be Unsound(): a crash dropped dirty pages since
  /// the last adoption, or a mutation that is not failure-atomic failed
  /// part-way. Only then may it hold in-memory state its pages contradict
  /// (it has no recovery logic), and the model stays lossy. An adoption
  /// stops errors being tolerated, except after such a partial mutation:
  /// no read-back can vouch for in-memory state the pages do not show.
  ::testing::AssertionResult Resync() {
    std::vector<Entry> all;
    Status st = Scan(0, kMaxKey, &all);
    if (!st.ok()) return Outcome(st, "recovery Scan");
    if (auto r = CheckScan(model_, 0, kMaxKey, all); !r) {
      return r << " (recovered state)";
    }
    if (auto r = CheckScan(model_, 0, kMaxKey, all, /*ordered=*/true); !r) {
      if (Unsound()) return ::testing::AssertionSuccess();
      return r << " (recovered state)";
    }
    std::map<Key, Value> state;
    for (const Entry& e : all) state.emplace(e.key, e.value);
    std::set<Key> probes;
    for (const auto& [key, value] : state) probes.insert(key);
    for (const auto& [key, states] : model_.history()) probes.insert(key);
    for (Key key : probes) {
      Result<Value> got = Get(key);
      if (!got.ok() && !got.status().IsNotFound()) {
        return Outcome(got.status(), "recovery Get");
      }
      Answer answer = got.ok() ? Answer(got.value()) : Answer();
      if (!model_.Allows(key, answer)) {
        return ::testing::AssertionFailure()
               << "recovery Get(" << key << ") returned " << Show(answer)
               << ", model allows " << model_.Describe(key);
      }
      auto it = state.find(key);
      Answer scanned = it == state.end() ? Answer() : Answer(it->second);
      if (answer != scanned) {
        if (Unsound()) return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "recovered state: Scan holds " << key << "="
               << Show(scanned) << " but Get returns " << Show(answer);
      }
    }
    if (!adopt_) return ::testing::AssertionSuccess();
    model_.Adopt(std::move(state));
    damaged_ = partial_;
    crash_lost_ = false;
    ++report_.resyncs;
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult CheckIdentities(
      const std::vector<uint64_t>& flushes_before) {
    if (s_->stacked()) {
      size_t pinned = s_->faulty().pinned_pages();
      if (s_->cache() != nullptr) pinned += s_->cache()->pinned_pages();
      if (pinned != 0) {
        return ::testing::AssertionFailure()
               << pinned << " page pins outlived the operation";
      }
    }
    if (RequestScheduler* scheduler = s_->scheduler()) {
      // Closed loop with default admission: nothing may be shed or expire.
      const ServiceStats& stats = scheduler->stats();
      if (!stats.LedgerHolds() || stats.submitted != requests_ ||
          stats.completed != stats.submitted) {
        return ::testing::AssertionFailure()
               << "scheduler ledger: " << stats.submitted << " submitted and "
               << stats.completed << " completed for " << requests_
               << " requests issued, ledger "
               << (stats.LedgerHolds() ? "closes" : "does not close");
      }
    }
    if (MemoryArbiter* arbiter = s_->arbiter();
        arbiter != nullptr && arbiter->pool_count() > 0) {
      MemorySplit split = arbiter->split();
      if (split.assigned_total() != arbiter->config().budget_bytes) {
        return ::testing::AssertionFailure()
               << "arbiter assigned " << split.assigned_total() << " of a "
               << arbiter->config().budget_bytes << "-byte budget";
      }
    }
    if (auto r = CheckTrees(flushes_before); !r) return r;
    // A failed write may or may not have landed, so a method's entry count
    // is only exact until the first fault or crash damages it; an adopted
    // recovery does not re-anchor it.
    if (!size_drift_ && m()->size() != model_.exact().size()) {
      return ::testing::AssertionFailure()
             << "size() is " << m()->size() << ", model holds "
             << model_.exact().size();
    }
    return ::testing::AssertionSuccess();
  }

  /// The LSM aux-MO ledger (charged space is exactly the in-memory terms,
  /// and the device holds exactly the live runs' pages), plus the policy's
  /// structural bounds once a clean flush has restored them.
  ::testing::AssertionResult CheckTrees(
      const std::vector<uint64_t>& flushes_before) {
    if (trees_.empty() || !s_->stacked()) return ::testing::AssertionSuccess();
    uint64_t run_page_bytes = 0;
    for (size_t i = 0; i < trees_.size(); ++i) {
      LsmTree* tree = trees_[i];
      LsmMemoryFootprint fp = tree->MemoryFootprint();
      run_page_bytes += fp.run_page_bytes;
      uint64_t in_memory =
          fp.memtable_bytes + fp.fence_bytes + fp.filter_bytes + fp.index_bytes;
      if (tree->stats().total_space() != in_memory) {
        return ::testing::AssertionFailure()
               << "LSM ledger: tree " << i << " charges "
               << tree->stats().total_space() << " bytes, in-memory terms sum "
               << in_memory;
      }
      bool clean_flush = !flushes_before.empty() &&
                         tree->flushes() > flushes_before[i] && !armed_ &&
                         !last_failed_;
      if (clean_flush) suspect_[i] = false;
      if (!suspect_[i]) {
        if (auto r = PolicyBoundsHold(tree); !r) {
          return r << " (tree " << i << ")";
        }
      }
    }
    uint64_t device_space = s_->base_counters().snapshot().total_space();
    if (device_space != run_page_bytes) {
      return ::testing::AssertionFailure()
             << "LSM ledger: the device holds " << device_space
             << " bytes, live runs " << run_page_bytes;
    }
    return ::testing::AssertionSuccess();
  }

  Subject* s_;
  Model model_;
  std::vector<LsmTree*> trees_;
  std::vector<bool> suspect_;  ///< Policy bounds unchecked until a flush.
  uint64_t requests_ = 0;      ///< Front-door requests issued.
  bool armed_ = false;         ///< A fault plan is armed.
  bool damaged_ = false;       ///< Data may be lost; no adoption since.
  bool size_drift_ = false;    ///< Damaged at any point: size() unchecked.
  bool crash_lost_ = false;    ///< A crash dropped pages; no adoption since.
  bool atomic_ = false;        ///< Failed mutations leave no partial state.
  bool partial_ = false;       ///< A non-atomic mutation failed part-way.
  bool durable_ = true;        ///< Nothing volatile since the last flush.
  bool adopt_ = true;          ///< Recoveries may re-anchor the model.
  bool last_failed_ = false;
  Report report_;
};

/// The batching contract: from identical states, one MultiGet on `batched`
/// and the per-key Get loop on `looped` return identical results; one key
/// charges identically, more keys charge no more physical traffic and the
/// same logical work.
::testing::AssertionResult MultiGetMatchesGetLoop(
    AccessMethod* batched, AccessMethod* looped, const std::vector<Key>& keys) {
  CounterSnapshot before = batched->stats();
  std::vector<Answer> out;
  Status st = batched->MultiGet(keys, &out);
  if (!st.ok()) {
    return ::testing::AssertionFailure() << "MultiGet returned "
                                         << st.ToString();
  }
  CounterSnapshot multi = batched->stats() - before;
  before = looped->stats();
  for (size_t i = 0; i < keys.size(); ++i) {
    Result<Value> got = looped->Get(keys[i]);
    Answer answer = got.ok() ? Answer(got.value()) : Answer();
    if (i >= out.size() || answer != out[i]) {
      return ::testing::AssertionFailure()
             << "MultiGet slot " << i << " key " << keys[i] << " differs "
             << "from the Get loop's " << Show(answer);
    }
  }
  CounterSnapshot loop = looped->stats() - before;
  const bool ok =
      keys.size() == 1
          ? multi.ToString() == loop.ToString()
          : multi.point_queries == loop.point_queries &&
                multi.logical_bytes_read == loop.logical_bytes_read &&
                multi.bytes_read_base <= loop.bytes_read_base &&
                multi.bytes_read_aux <= loop.bytes_read_aux &&
                multi.blocks_read <= loop.blocks_read &&
                multi.bytes_written_base <= loop.bytes_written_base &&
                multi.bytes_written_aux <= loop.bytes_written_aux &&
                loop.batched_page_hits == 0;
  if (!ok) {
    return ::testing::AssertionFailure()
           << "MultiGet of " << keys.size() << " keys charged\n"
           << multi.ToString() << "\nagainst the Get loop's\n"
           << loop.ToString();
  }
  return ::testing::AssertionSuccess();
}

/// A run's verdict and the op it failed at (ops.size() for the final
/// check).
struct Verdict {
  ::testing::AssertionResult result = ::testing::AssertionSuccess();
  size_t failed_at = 0;
};

Verdict Replay(Subject* subject, std::span<const Op> ops, Report* report) {
  if (subject->method() == nullptr) {
    return {::testing::AssertionFailure() << "unknown method", 0};
  }
  Runner runner(subject);
  Verdict verdict;
  for (size_t i = 0; i < ops.size(); ++i) {
    ::testing::AssertionResult r = runner.Step(ops[i]);
    if (!r) {
      verdict.result = ::testing::AssertionFailure()
                       << "op " << i << " (" << FormatOps(ops.subspan(i, 1))
                       << "): " << r.message();
      verdict.failed_at = i;
      return verdict;
    }
  }
  verdict.failed_at = ops.size();
  if (::testing::AssertionResult r = runner.Finish(); !r) {
    verdict.result = ::testing::AssertionFailure()
                     << "after the last op: " << r.message();
  }
  if (report != nullptr) *report += runner.report();
  return verdict;
}

Verdict RunVerdict(std::string_view method, const Features& features,
                   std::span<const Op> ops, Report* report) {
  Subject subject(method, features);
  return Replay(&subject, ops, report);
}

/// The stream runs against the model on one private-device instance; then
/// up to kParityPoints of its MultiGets, spread over the stream, plus every
/// batch of kLargeBatch keys or more, each rerun on two fresh instances that
/// replayed the same prefix -- one answering with MultiGet, the other with
/// the Get loop -- so every comparison starts from identical state.
Verdict ParityVerdict(std::string_view method, const Features& features,
                      std::span<const Op> ops, Report* report) {
  constexpr size_t kParityPoints = 8;
  constexpr size_t kLargeBatch = 512;
  Subject subject(method, features, /*stacked=*/false);
  Verdict verdict = Replay(&subject, ops, report);
  if (!verdict.result) return verdict;
  std::vector<size_t> batches;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kMultiGet) batches.push_back(i);
  }
  const size_t stride = std::max<size_t>(1, batches.size() / kParityPoints);
  for (size_t b = 0; b < batches.size(); ++b) {
    const size_t at = batches[b];
    if (b % stride != 0 && ops[at].keys.size() < kLargeBatch) continue;
    Subject batched(method, features, /*stacked=*/false);
    Subject looped(method, features, /*stacked=*/false);
    Runner batched_runner(&batched), looped_runner(&looped);
    for (size_t i = 0; i < at; ++i) {
      (void)batched_runner.Step(ops[i]);  // Checked once, above.
      (void)looped_runner.Step(ops[i]);
    }
    if (report != nullptr) ++report->parity_checks;
    ::testing::AssertionResult r =
        MultiGetMatchesGetLoop(batched.method(), looped.method(), ops[at].keys);
    if (!r) {
      return {::testing::AssertionFailure()
                  << "op " << at << " (" << FormatOps(ops.subspan(at, 1))
                  << "): " << r.message(),
              at};
    }
  }
  return verdict;
}

/// Delta debugging over the op list: drop ever smaller chunks while the
/// stream still fails, within a bounded number of replays.
std::vector<Op> Shrink(std::vector<Op> ops,
                       const std::function<bool(std::span<const Op>)>& fails) {
  size_t budget = 400;
  size_t chunk = std::max<size_t>(1, ops.size() / 2);
  while (budget > 0) {
    bool removed = false;
    for (size_t start = 0; start < ops.size() && budget > 0;) {
      std::vector<Op> candidate(ops.begin(), ops.begin() + start);
      candidate.insert(candidate.end(),
                       ops.begin() + std::min(ops.size(), start + chunk),
                       ops.end());
      --budget;
      if (fails(candidate)) {
        ops = std::move(candidate);
        removed = true;
      } else {
        start += chunk;
      }
    }
    if (!removed) {
      if (chunk == 1) break;
      chunk /= 2;
    }
  }
  return ops;
}

/// Cuts a failing stream after its failing op, shrinks it, and reports it
/// with a replay line (`replay` is the call prefix up to ParseOps).
::testing::AssertionResult ShrinkFailure(
    Verdict verdict, std::span<const Op> ops, const std::string& replay,
    const std::function<Verdict(std::span<const Op>)>& run) {
  std::vector<Op> prefix(ops.begin(),
                         ops.begin() + std::min(ops.size(),
                                                verdict.failed_at + 1));
  std::vector<Op> shrunk = Shrink(
      std::move(prefix), [&](std::span<const Op> c) { return !run(c).result; });
  return ::testing::AssertionFailure()
         << verdict.result.message() << "\n  shrunk to " << shrunk.size()
         << " ops (" << run(shrunk).result.message() << ")\n  replay: "
         << replay << "ParseOps(\"" << FormatOps(shrunk) << "\"))";
}

}  // namespace

// ------------------------------------------------------------- Public API

FaultPlan FaultPlanFor(uint32_t plan) {
  constexpr uint64_t kSeed = 0xC4A05ULL;
  switch (plan) {
    case 1:
      return FaultPlan::Transient(kSeed + 1, 0.0)
          .WithRate(FaultOp::kRead, 0.2)
          .WithRate(FaultOp::kPin, 0.2);
    case 2:
      return FaultPlan::Transient(kSeed + 2, 0.0)
          .WithRate(FaultOp::kWrite, 0.08)
          .WithRate(FaultOp::kAllocate, 0.08);
    case 3:
      return FaultPlan::Transient(kSeed + 3, 0.05).WithTornWrites(0.5, 64);
    default:
      return FaultPlan::None();
  }
}

std::vector<Op> Generate(uint64_t seed, const GenSpec& spec) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(spec.ops + 1);
  // One stream in four opens with a bulk load of up to a quarter of the
  // key range, all inside [0, key_range): small enough that the stream's
  // own flushes cascade into an LSM's bulk-loaded run. The choice takes the
  // first draw's top two bits, the best-mixed bits of the generator's
  // output.
  Rng bulk(seed ^ 0xB17C10ADull);
  if (spec.bulk_load && bulk.Next() >> 62 == 0) {
    Op op;
    op.kind = OpKind::kBulkLoad;
    Key n = 1 + bulk.NextBelow(std::max<Key>(1, spec.key_range / 4));
    op.key = bulk.NextBelow(spec.key_range - n + 1);
    op.hi = op.key + n - 1;
    op.value = bulk.Next();
    ops.push_back(op);
  }
  Key last_deleted = 0;
  Key last_written = 0;
  size_t phase_left = 0;
  const Weights* weights = &kProfiles[0];
  for (size_t drawn = 0; drawn < spec.ops; ++drawn) {
    if (phase_left == 0) {
      weights = &kProfiles[rng.NextBelow(std::size(kProfiles))];
      phase_left = 100 + rng.NextBelow(200);
    }
    --phase_left;
    Op op;
    op.kind = DrawKind(*weights, spec, &rng);
    switch (op.kind) {
      case OpKind::kInsert:
      case OpKind::kUpdate:
        op.key = rng.NextBelow(spec.key_range);
        op.value = rng.Next();
        last_written = op.key;
        break;
      case OpKind::kDelete:
        op.key = rng.NextBelow(spec.key_range);
        last_deleted = op.key;
        break;
      case OpKind::kGet:
        op.key = rng.NextBelow(spec.key_range);
        break;
      case OpKind::kMultiGet:
        op.keys = DrawBatch(&rng, spec.key_range, last_deleted, last_written);
        break;
      case OpKind::kScan:
        DrawRange(&rng, spec.key_range, &op.key, &op.hi);
        break;
      case OpKind::kFaults:
        // Half the switches disarm; the rest pick one of the armed plans.
        op.plan = rng.NextBelow(2) == 0
                      ? 0
                      : 1 + static_cast<uint32_t>(
                                rng.NextBelow(kFaultPlans - 1));
        break;
      default:
        break;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

namespace {
/// One tag per OpKind, in declaration order.
constexpr std::string_view kOpTags = "IUDGMSFCRPXB";
}  // namespace

std::string FormatOps(std::span<const Op> ops) {
  std::ostringstream out;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    out << (i > 0 ? "; " : "") << kOpTags[static_cast<size_t>(op.kind)];
    switch (op.kind) {
      case OpKind::kInsert:
      case OpKind::kUpdate:
        out << ' ' << op.key << ' ' << op.value;
        break;
      case OpKind::kDelete:
      case OpKind::kGet:
        out << ' ' << op.key;
        break;
      case OpKind::kMultiGet:
        for (size_t k = 0; k < op.keys.size(); ++k) {
          out << (k > 0 ? ',' : ' ') << op.keys[k];
        }
        break;
      case OpKind::kScan:
        out << ' ' << op.key << ' ' << op.hi;
        break;
      case OpKind::kFaults:
        out << ' ' << op.plan;
        break;
      case OpKind::kBulkLoad:
        out << ' ' << op.key << ' ' << op.hi << ' ' << op.value;
        break;
      default:
        break;
    }
  }
  return out.str();
}

std::vector<Op> ParseOps(std::string_view text) {
  std::vector<Op> ops;
  std::istringstream in{std::string(text)};
  std::string item;
  while (std::getline(in, item, ';')) {
    std::istringstream fields(item);
    char tag = 0;
    if (!(fields >> tag)) continue;
    size_t kind = kOpTags.find(tag);
    if (kind == std::string_view::npos) {
      ADD_FAILURE() << "unknown op tag '" << tag << "' in \"" << item << '"';
      continue;
    }
    Op op;
    op.kind = static_cast<OpKind>(kind);
    switch (op.kind) {
      case OpKind::kInsert:
      case OpKind::kUpdate:
        fields >> op.key >> op.value;
        break;
      case OpKind::kDelete:
      case OpKind::kGet:
        fields >> op.key;
        break;
      case OpKind::kMultiGet:
        for (Key key; fields >> key;) {
          op.keys.push_back(key);
          fields.ignore(1, ',');
        }
        break;
      case OpKind::kScan:
        fields >> op.key >> op.hi;
        break;
      case OpKind::kFaults:
        fields >> op.plan;
        break;
      case OpKind::kBulkLoad:
        fields >> op.key >> op.hi >> op.value;
        break;
      default:
        break;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

namespace {
constexpr std::array<const char*, Features::kCount> kFeatureNames = {
    "service", "arbiter", "sharded", "index", "compress", "cache"};
}  // namespace

bool Features::bit(size_t i) const {
  const bool bits[kCount] = {service,         arbiter,  sharded,
                             cross_run_index, compress, cache};
  return bits[i];
}

std::string Features::Label() const {
  std::string label;
  for (size_t i = 0; i < kCount; ++i) {
    if (!bit(i)) continue;
    if (!label.empty()) label += '+';
    label += kFeatureNames[i];
  }
  return label.empty() ? "plain" : label;
}

Features ParseFeatures(std::string_view label) {
  Features f;
  bool* fields[Features::kCount] = {&f.service,  &f.arbiter,
                                    &f.sharded,  &f.cross_run_index,
                                    &f.compress, &f.cache};
  while (!label.empty()) {
    std::string_view name = label.substr(0, label.find('+'));
    label.remove_prefix(std::min(label.size(), name.size() + 1));
    if (name == "plain") continue;
    auto it = std::find(kFeatureNames.begin(), kFeatureNames.end(), name);
    if (it == kFeatureNames.end()) {
      ADD_FAILURE() << "unknown feature '" << name << "'";
      continue;
    }
    *fields[it - kFeatureNames.begin()] = true;
  }
  return f;
}

const std::vector<Features>& PairwiseFeatureRows() {
  // Row r of column c is set iff r is in c's 3-subset of {1..5}; row 0 is
  // all clear. Two distinct 3-subsets of a 5-set always intersect and never
  // nest, which yields all four combinations for every pair of columns.
  static const std::vector<Features> rows = {
      ParseFeatures("plain"),
      ParseFeatures("service+arbiter+compress"),
      ParseFeatures("service+sharded+cache"),
      ParseFeatures("service+index+compress+cache"),
      ParseFeatures("arbiter+sharded+index+cache"),
      ParseFeatures("arbiter+sharded+index+compress"),
  };
  return rows;
}

Subject::Subject(std::string_view method, const Features& features,
                 bool stacked)
    : name_(method),
      stacked_(stacked),
      base_(512, &counters_),
      faulty_(&base_),
      options_(testing_util::SmallOptions()) {
  options_.lsm.cross_run_index = features.cross_run_index;
  // Small segments: scans cross segment boundaries and relayouts happen at
  // test-sized key counts.
  options_.lsm.cross_run_segment_entries = 32;
  options_.lsm.compress_runs = features.compress;
  if (features.arbiter) {
    arbiter_ = std::make_unique<MemoryArbiter>(
        MemoryArbiter::Config{.budget_bytes = 64 << 10, .epoch_ops = 256});
    options_.memory.enabled = true;
    options_.memory.arbiter = arbiter_.get();
  }
  if (features.sharded && name_.rfind("sharded-", 0) != 0) {
    name_ = "sharded-" + name_;
  }
  Device* top = nullptr;
  if (stacked_) {
    top = &faulty_;
    if (features.cache) {
      // Tiny on purpose: evictions and write-backs keep crossing the faulty
      // layer.
      cache_ = std::make_unique<CachingDevice>(&faulty_, 8, arbiter_.get());
      top = cache_.get();
    }
  }
  method_ = MakeAccessMethod(name_, options_, top);
  if (features.service && method_ != nullptr) {
    scheduler_ = std::make_unique<RequestScheduler>(method_.get(), options_);
  }
}

Subject::Subject(std::string_view method, const Options& options)
    : name_(method),
      stacked_(false),
      base_(512, &counters_),
      faulty_(&base_),
      options_(options),
      method_(MakeAccessMethod(name_, options_)) {}

Subject::~Subject() = default;

Report& Report::operator+=(const Report& other) {
  failed_ops += other.failed_ops;
  faults_injected += other.faults_injected;
  lossy_crashes += other.lossy_crashes;
  resyncs += other.resyncs;
  parity_checks += other.parity_checks;
  final_keys += other.final_keys;
  return *this;
}

::testing::AssertionResult Run(std::string_view method,
                               const Features& features,
                               std::span<const Op> ops, Report* report) {
  Verdict v = RunVerdict(method, features, ops, report);
  if (v.result) return v.result;
  std::string replay = "Run(\"" + std::string(method) + "\", ParseFeatures(\"" +
                       features.Label() + "\"), ";
  return ShrinkFailure(std::move(v), ops, replay,
                       [&](std::span<const Op> c) {
                         return RunVerdict(method, features, c, nullptr);
                       })
         << "\n  (" << method << " [" << features.Label() << "])";
}

::testing::AssertionResult RunWithOptions(std::string_view method,
                                          const Options& options,
                                          std::span<const Op> ops) {
  auto run = [&](std::span<const Op> c) {
    Subject subject(method, options);
    return Replay(&subject, c, nullptr);
  };
  Verdict v = run(ops);
  if (v.result) return v.result;
  return ShrinkFailure(std::move(v), ops,
                       "RunWithOptions(\"" + std::string(method) +
                           "\", options, ",
                       run);
}

::testing::AssertionResult RunParity(std::string_view method,
                                     const Features& features,
                                     std::span<const Op> ops,
                                     Report* report) {
  Verdict v = ParityVerdict(method, features, ops, report);
  if (v.result) return v.result;
  std::string replay = "RunParity(\"" + std::string(method) +
                       "\", ParseFeatures(\"" + features.Label() + "\"), ";
  return ShrinkFailure(std::move(v), ops, replay,
                       [&](std::span<const Op> c) {
                         return ParityVerdict(method, features, c, nullptr);
                       })
         << "\n  (" << method << " [parity " << features.Label() << "])";
}

::testing::AssertionResult CrashPointSweep(std::string_view method,
                                           const Features& features,
                                           std::span<const Op> prefix,
                                           std::span<const Op> suffix,
                                           size_t* points) {
  constexpr size_t kMaxPoints = 100000;
  for (size_t k = 0; k < kMaxPoints; ++k) {
    auto fail = [&](size_t at, const ::testing::AssertionResult& r) {
      return ::testing::AssertionFailure()
             << method << " [" << features.Label() << "] crash at I/O " << k
             << ", suffix op " << at << ": " << r.message();
    };
    Subject subject(method, features);
    if (subject.method() == nullptr) {
      return ::testing::AssertionFailure() << "unknown method " << method;
    }
    Runner runner(&subject);
    for (const Op& op : prefix) {
      if (auto r = runner.Step(op); !r) return fail(0, r << " (in the prefix)");
    }
    runner.Arm(FaultPlan::FailAfter(k));
    runner.StayLossy();
    size_t i = 0;
    bool lost = false;
    while (i < suffix.size() && !lost) {
      if (auto r = runner.Step(suffix[i]); !r) return fail(i, r);
      lost = runner.last_failed();
      ++i;
    }
    const bool survived = !lost && subject.faulty().faults_injected() == 0;
    // Power loss: the stack crashes, faults disarm, and recovery is checked
    // before the rest of the suffix runs.
    Op crash, disarm;
    crash.kind = OpKind::kCrash;
    disarm.kind = OpKind::kFaults;
    if (auto r = runner.Step(crash); !r) return fail(i, r << " (crash)");
    if (auto r = runner.Step(disarm); !r) return fail(i, r << " (recovery)");
    for (; i < suffix.size(); ++i) {
      if (auto r = runner.Step(suffix[i]); !r) {
        return fail(i, r << " (after recovery)");
      }
    }
    if (auto r = runner.Finish(); !r) return fail(suffix.size(), r);
    if (survived) {
      *points = k + 1;
      return ::testing::AssertionSuccess();
    }
  }
  return ::testing::AssertionFailure()
         << method << ": more than " << kMaxPoints << " crash points";
}

}  // namespace harness
}  // namespace rum
