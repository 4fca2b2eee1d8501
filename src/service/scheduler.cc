#include "service/scheduler.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "core/trace.h"

namespace rum {

namespace {

/// Batch run classes: a dispatch window holds one kind of work, so group
/// commit batches mutation runs and read runs separately.
enum BatchClass : int { kClassMutation = 0, kClassGet = 1, kClassScan = 2 };

int ClassOf(RequestOp op) {
  if (IsMutation(op)) return kClassMutation;
  return op == RequestOp::kGet ? kClassGet : kClassScan;
}

}  // namespace

RequestScheduler::RequestScheduler(AccessMethod* method,
                                   const Options& options,
                                   ErrorMode error_mode)
    : method_(method),
      partitioned_(dynamic_cast<const KeyPartitioned*>(method)),
      opts_(options.service),
      gate_(error_mode),
      bucket_(opts_.rate_ops_per_sec, opts_.rate_burst_ops) {
  size_t shard_count =
      partitioned_ != nullptr ? partitioned_->partitions() : 1;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) shards_.emplace_back(opts_);

  metrics_.Init("scheduler");
  metrics_.Gauge("queue_depth",
                 [this] { return static_cast<uint64_t>(queue_depth()); });
  metrics_.Gauge("submitted", [this] { return stats_.submitted; });
  metrics_.Gauge("shed", [this] { return stats_.shed; });
  metrics_.Gauge("deadline_missed", [this] { return stats_.deadline_missed; });
  metrics_.Gauge("batches", [this] { return stats_.batches; });
  metrics_.Gauge("batched_ops", [this] { return stats_.batched_ops; });
  metrics_.Gauge("coalesced_reads", [this] { return stats_.coalesced_reads; });
  metrics_.Gauge("batched_reads", [this] { return stats_.batched_reads; });
  metrics_.Gauge("max_queue_depth", [this] { return stats_.max_queue_depth; });
  metrics_.Histogram("queue_delay_us",
                     [this] { return stats_.queue_delay_us; });
  metrics_.Histogram("total_us", [this] { return stats_.total_us; });
}

size_t RequestScheduler::ShardOf(const Request& req) const {
  if (partitioned_ == nullptr) return 0;
  // Scans queue on their lower bound's shard: the shard choice only decides
  // which virtual server's queue the request waits in; the method call
  // itself spans whatever partitions the range covers.
  return partitioned_->PartitionOf(req.key);
}

uint64_t RequestScheduler::NextStart(const Shard& s) const {
  uint64_t earliest = std::numeric_limits<uint64_t>::max();
  for (const auto& q : s.queue) {
    if (!q.empty() && q.front().arrival_us < earliest) {
      earliest = q.front().arrival_us;
    }
  }
  if (earliest == std::numeric_limits<uint64_t>::max()) return earliest;
  return earliest > s.busy_until_us ? earliest : s.busy_until_us;
}

size_t RequestScheduler::queue_depth() const {
  size_t depth = 0;
  for (const auto& s : shards_) depth += s.depth();
  return depth;
}

bool RequestScheduler::Submit(Request req) {
  // Serve everything that starts strictly before this arrival: at equal
  // times the arrival wins and may join the forming batch (group commit).
  ServeUntil(req.arrival_us);
  if (req.arrival_us > now_us_) now_us_ = req.arrival_us;
  req.seq = next_seq_++;
  ++stats_.submitted;
  if (opts_.deadline_us != 0 && req.deadline_us == 0) {
    req.deadline_us = req.arrival_us + opts_.deadline_us;
  }

  if (opts_.admission && !bucket_.TryAcquire(req.arrival_us)) {
    ++stats_.shed;
    ++stats_.shed_rate_gate;
    Trace::Emit(TraceKind::kSchedShed, TraceOp::kNone, kInvalidPageId,
                DataClass::kBase, 0);
    RequestResult r;
    r.outcome = RequestOutcome::kShed;
    r.status = Status::ResourceExhausted("rate gate shed");
    r.completion_us = req.arrival_us;
    Complete(req, r);
    return false;
  }

  Shard& s = shards_[ShardOf(req)];
  if (s.depth() >= opts_.queue_capacity) {
    ++stats_.shed;
    ++stats_.shed_queue_full;
    Trace::Emit(TraceKind::kSchedShed, TraceOp::kNone, kInvalidPageId,
                DataClass::kBase, s.depth());
    RequestResult r;
    r.outcome = RequestOutcome::kShed;
    r.status = Status::ResourceExhausted("queue full");
    r.completion_us = req.arrival_us;
    Complete(req, r);
    return false;
  }

  ++stats_.accepted;
  size_t cls = req.priority > 0 ? 1 : 0;
  s.queue[cls].push_back(std::move(req));
  if (s.depth() > stats_.max_queue_depth) stats_.max_queue_depth = s.depth();
  return true;
}

void RequestScheduler::ServeUntil(uint64_t t_us) {
  while (true) {
    size_t best = shards_.size();
    uint64_t best_start = std::numeric_limits<uint64_t>::max();
    for (size_t i = 0; i < shards_.size(); ++i) {
      uint64_t start = NextStart(shards_[i]);
      if (start < best_start) {  // Ties break toward the lowest shard index.
        best_start = start;
        best = i;
      }
    }
    if (best == shards_.size() || best_start >= t_us) return;
    DispatchBatch(&shards_[best], best_start);
  }
}

void RequestScheduler::RunUntilIdle() {
  ServeUntil(std::numeric_limits<uint64_t>::max());
  stats_.end_us = now_us_;
}

void RequestScheduler::DispatchBatch(Shard* s, uint64_t start) {
  // Pick the source queue: high priority first, if its head has arrived by
  // the batch start; otherwise the normal queue. One batch drains one
  // priority class, so priority inversion is bounded by a single window.
  size_t p = 0;
  if (s->queue[0].empty() || s->queue[0].front().arrival_us > start) p = 1;

  std::vector<Request> batch;
  int batch_class = -1;
  while (batch.size() < opts_.batch_max_ops) {
    std::deque<Request>& q = s->queue[p];
    if (q.empty()) break;
    const Request& head = q.front();
    // Group commit only batches work already queued at dispatch time, and
    // only runs of the same class.
    if (head.arrival_us > start) break;
    if (batch_class >= 0 && ClassOf(head.op) != batch_class) break;

    Request req = std::move(q.front());
    q.pop_front();
    uint64_t sojourn = start - req.arrival_us;

    if (req.deadline_us != 0 && start > req.deadline_us) {
      // Expired in queue: complete without touching the device, costing the
      // server nothing -- the whole point of deadlines under overload.
      ++stats_.deadline_missed;
      stats_.queue_delay_us.Record(sojourn);
      Trace::Emit(TraceKind::kSchedDeadlineMiss, TraceOp::kNone,
                  kInvalidPageId, DataClass::kBase, sojourn);
      RequestResult r;
      r.outcome = RequestOutcome::kDeadlineExceeded;
      r.status = Status::DeadlineExceeded("expired in queue");
      r.completion_us = start;
      Complete(req, r);
      continue;
    }

    if (opts_.admission && s->codel.ShouldShed(sojourn, start)) {
      ++stats_.shed;
      ++stats_.shed_codel;
      Trace::Emit(TraceKind::kSchedShed, TraceOp::kNone, kInvalidPageId,
                  DataClass::kBase, sojourn);
      RequestResult r;
      r.outcome = RequestOutcome::kShed;
      r.status = Status::ResourceExhausted("codel head drop");
      r.completion_us = start;
      Complete(req, r);
      continue;
    }

    if (batch_class < 0) batch_class = ClassOf(req.op);
    batch.push_back(std::move(req));
  }
  if (batch.empty()) return;  // Everything at the head expired or shed.

  // Read coalescing: duplicate-key Gets in one window share one method
  // call; only unique keys pay service time.
  std::vector<int> dup_of(batch.size(), -1);
  size_t calls = batch.size();
  if (batch_class == kClassGet && opts_.coalesce_reads) {
    for (size_t i = 1; i < batch.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (batch[j].key == batch[i].key && dup_of[j] < 0) {
          dup_of[i] = static_cast<int>(j);
          --calls;
          break;
        }
      }
    }
  }

  uint64_t per_op =
      batch_class == kClassScan ? opts_.scan_cost_us : opts_.op_cost_us;
  uint64_t cost = opts_.dispatch_overhead_us + calls * per_op;
  uint64_t completion = start + cost;
  s->busy_until_us = completion;
  if (completion > now_us_) now_us_ = completion;
  ++stats_.batches;
  stats_.batched_ops += batch.size();
  Trace::Emit(TraceKind::kSchedDispatch, TraceOp::kNone, kInvalidPageId,
              DataClass::kBase, batch.size());

  std::vector<RequestResult> results(batch.size());

  // A drained Get window becomes ONE MultiGet over its unique keys: the
  // method sees the whole batch at once (sharing descents/pages), while the
  // scheduler's cost model, coalescing, and ledger are untouched. A
  // non-benign batch error falls back to the per-key loop below so every
  // request still gets its own status.
  bool used_multiget = false;
  if (batch_class == kClassGet) {
    std::vector<Key> unique;
    std::vector<size_t> unique_pos;
    unique.reserve(calls);
    unique_pos.reserve(calls);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (dup_of[i] < 0) {
        unique.push_back(batch[i].key);
        unique_pos.push_back(i);
      }
    }
    std::vector<std::optional<Value>> values;
    Status s = method_->MultiGet(unique, &values);
    if (s.ok()) {
      used_multiget = true;
      ++stats_.batched_reads;
      stats_.batch_size.Record(unique.size());
      for (size_t j = 0; j < unique_pos.size(); ++j) {
        RequestResult& r = results[unique_pos[j]];
        if (values[j].has_value()) {
          r.found = true;
          r.value = *values[j];
        } else {
          r.status = Status::NotFound();
        }
      }
    }
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    RequestResult& r = results[i];
    if (dup_of[i] >= 0) {
      r = results[static_cast<size_t>(dup_of[i])];
      ++stats_.coalesced_reads;
    } else if (!used_multiget) {
      Execute(batch[i], &r);
    }
    r.outcome = RequestOutcome::kCompleted;
    r.completion_us = completion;
    ++stats_.completed;
    if (IsFailure(batch[i].op, r.status)) {
      r.failed = true;
      ++stats_.failed;
      gate_.OnFailure();
    }
    uint64_t total = completion - batch[i].arrival_us;
    stats_.queue_delay_us.Record(start - batch[i].arrival_us);
    stats_.service_us.Record(cost);
    stats_.total_us.Record(total);
    // A coalesced duplicate that outlived its own deadline still completes
    // (the shared call's result is delivered), but it is not goodput: keep
    // it out of the SLO gauge.
    bool missed_own_deadline = dup_of[i] >= 0 && batch[i].deadline_us != 0 &&
                               completion > batch[i].deadline_us;
    if ((opts_.slo_us == 0 || total <= opts_.slo_us) && !missed_own_deadline) {
      ++stats_.completed_within_slo;
    }
    Complete(batch[i], r);
  }
}

void RequestScheduler::Execute(const Request& req, RequestResult* r) {
  if (gate_.Withholds(req.op)) {
    // Degraded service: the structure may be mid-reorganization after a
    // failure, so mutations are withheld before storage is touched.
    r->degraded_skip = true;
    ++stats_.degraded_skips;
    return;
  }
  std::vector<Entry>* out = req.scan_out;
  if (out == nullptr) {
    scan_scratch_.clear();
    out = &scan_scratch_;
  }
  r->status = ExecuteOp(method_, Op{req.op, req.key, req.value, req.scan_hi},
                        out, &r->value);
  r->found = req.op == RequestOp::kGet && r->status.ok();
}

void RequestScheduler::Complete(const Request& req,
                                const RequestResult& result) {
  if (completion_) completion_(req, result);
}

}  // namespace rum
