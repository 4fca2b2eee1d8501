#include "workload/op.h"

#include <utility>

namespace rum {

namespace {

/// The mix draw: the kind a uniform `dice` in [0, 1) selects.
OpKind DrawKind(const WorkloadSpec& spec, double dice) {
  double bound = spec.insert_fraction;
  if (dice < bound) return OpKind::kInsert;
  bound += spec.update_fraction;
  if (dice < bound) return OpKind::kUpdate;
  bound += spec.delete_fraction;
  if (dice < bound) return OpKind::kDelete;
  bound += spec.scan_fraction;
  if (dice < bound) return OpKind::kScan;
  return OpKind::kGet;
}

}  // namespace

OpGenerator::OpGenerator(const WorkloadSpec& spec, uint64_t seed,
                         std::function<bool(Key)> owns)
    : spec_(spec),
      keys_(spec.distribution, spec.key_range, seed + 1, spec.zipf_theta),
      mix_(seed + 2),
      values_(seed + 3),
      scan_width_(static_cast<Key>(static_cast<double>(spec.key_range) *
                                   spec.scan_selectivity)),
      owns_(std::move(owns)) {
  if (scan_width_ == 0) scan_width_ = 1;
}

Key OpGenerator::NextKey() {
  if (owns_) {
    for (int attempt = 0; attempt < 4096; ++attempt) {
      Key key = keys_.Next();
      if (owns_(key)) return key;
    }
  }
  return keys_.Next();
}

Op OpGenerator::Next() {
  Op op;
  op.kind = DrawKind(spec_, mix_.NextDouble());
  op.key = NextKey();
  if (op.kind == OpKind::kInsert || op.kind == OpKind::kUpdate) {
    op.value = values_.Next();
  } else if (op.kind == OpKind::kScan) {
    op.scan_hi =
        op.key > kMaxKey - scan_width_ ? kMaxKey : op.key + scan_width_;
  }
  return op;
}

Status ExecuteOp(AccessMethod* method, const Op& op,
                 std::vector<Entry>* scan_out, Value* value) {
  switch (op.kind) {
    case OpKind::kInsert:
      return method->Insert(op.key, op.value);
    case OpKind::kUpdate:
      return method->Update(op.key, op.value);
    case OpKind::kDelete:
      return method->Delete(op.key);
    case OpKind::kScan:
      return method->Scan(op.key, op.scan_hi, scan_out);
    case OpKind::kGet:
      break;
  }
  Result<Value> got = method->Get(op.key);
  if (got.ok() && value != nullptr) *value = got.value();
  return got.status();
}

bool IsFailure(OpKind kind, const Status& s) {
  if (s.ok()) return false;
  switch (kind) {
    case OpKind::kGet:
      return s.code() != Code::kNotFound && s.code() != Code::kOutOfRange;
    case OpKind::kScan:
      return true;
    default:
      return s.code() != Code::kOutOfRange;
  }
}

}  // namespace rum
