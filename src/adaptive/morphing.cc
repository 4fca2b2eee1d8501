#include "adaptive/morphing.h"

#include <algorithm>

#include "methods/btree/btree.h"
#include "methods/diff/stepped_merge.h"
#include "methods/lsm/lsm_tree.h"
#include "methods/zonemap/zonemap.h"

namespace rum {

std::string_view MorphShapeName(MorphShape shape) {
  switch (shape) {
    case MorphShape::kWriteLog:
      return "write-log";
    case MorphShape::kBalanced:
      return "balanced";
    case MorphShape::kReadTree:
      return "read-tree";
    case MorphShape::kSpaceDense:
      return "space-dense";
  }
  return "unknown";
}

MorphShape MorphingAccessMethod::ChooseShape(double read, double write,
                                             double space) {
  double sum = read + write + space;
  if (sum <= 0) return MorphShape::kBalanced;
  double r = read / sum;
  double u = write / sum;
  double m = space / sum;
  if (m > r && m > u) return MorphShape::kSpaceDense;
  // Read and write within 25% of each other: balanced shape.
  if (std::max(r, u) <= 1.25 * std::min(r, u)) return MorphShape::kBalanced;
  return u > r ? MorphShape::kWriteLog : MorphShape::kReadTree;
}

MorphingAccessMethod::MorphingAccessMethod(const Options& options)
    : options_(options),
      shape_(ChooseShape(options.morphing.read_priority,
                         options.morphing.write_priority,
                         options.morphing.space_priority)),
      delegate_(MakeDelegate(shape_)) {}

std::unique_ptr<AccessMethod> MorphingAccessMethod::MakeDelegate(
    MorphShape shape) const {
  Options opts = options_;
  switch (shape) {
    case MorphShape::kWriteLog: {
      opts.stepped.buffer_entries = kBatchEntries;
      return std::make_unique<SteppedMergeTree>(opts);
    }
    case MorphShape::kBalanced: {
      opts.lsm.policy = LsmPolicy::kLeveled;
      opts.lsm.memtable_entries = kBatchEntries;
      return std::make_unique<LsmTree>(opts);
    }
    case MorphShape::kReadTree:
      return std::make_unique<BTree>(opts);
    case MorphShape::kSpaceDense:
      return std::make_unique<ZoneMapColumn>(opts);
  }
  return nullptr;
}

Status MorphingAccessMethod::Morph(MorphShape next) {
  if (next == shape_ && delegate_ != nullptr) return Status::OK();
  // Drain the old shape through a full scan (charged reads) and bulk-load
  // the new one (charged writes).
  std::vector<Entry> everything;
  if (delegate_ != nullptr && delegate_->size() > 0) {
    Status s = delegate_->Scan(kMinKey, kMaxKey, &everything);
    if (!s.ok()) return s;
  }
  if (delegate_ != nullptr) {
    carried_ += delegate_->stats();
    // Space of the retired delegate disappears with it.
    carried_.space_base = 0;
    carried_.space_aux = 0;
  }
  shape_ = next;
  delegate_ = MakeDelegate(next);
  if (!everything.empty()) {
    Status s = delegate_->BulkLoad(everything);
    if (!s.ok()) return s;
    s = delegate_->Flush();
    if (!s.ok()) return s;
  }
  ++morph_count_;
  return Status::OK();
}

Status MorphingAccessMethod::SetPriorities(double read, double write,
                                           double space) {
  options_.morphing.read_priority = read;
  options_.morphing.write_priority = write;
  options_.morphing.space_priority = space;
  MorphShape next = ChooseShape(read, write, space);
  if (next != shape_) {
    return Morph(next);
  }
  return Status::OK();
}

Status MorphingAccessMethod::Insert(Key key, Value value) {
  return delegate_->Insert(key, value);
}
Status MorphingAccessMethod::Update(Key key, Value value) {
  return delegate_->Update(key, value);
}
Status MorphingAccessMethod::Delete(Key key) { return delegate_->Delete(key); }
Result<Value> MorphingAccessMethod::Get(Key key) {
  return delegate_->Get(key);
}
Status MorphingAccessMethod::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  return delegate_->Scan(lo, hi, out);
}
Status MorphingAccessMethod::BulkLoad(std::span<const Entry> entries) {
  return delegate_->BulkLoad(entries);
}
Status MorphingAccessMethod::Flush() { return delegate_->Flush(); }
size_t MorphingAccessMethod::size() const { return delegate_->size(); }

CounterSnapshot MorphingAccessMethod::stats() const {
  CounterSnapshot snap = delegate_->stats();
  snap += carried_;
  return snap;
}

void MorphingAccessMethod::ResetStats() {
  AccessMethod::ResetStats();
  delegate_->ResetStats();
  carried_ = CounterSnapshot();
}

}  // namespace rum
