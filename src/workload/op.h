#ifndef RUMLAB_WORKLOAD_OP_H_
#define RUMLAB_WORKLOAD_OP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/access_method.h"
#include "core/status.h"
#include "core/types.h"
#include "workload/distribution.h"
#include "workload/spec.h"

namespace rum {

/// The operation vocabulary of both request paths: the closed-loop
/// WorkloadRunner and the RequestScheduler (whose RequestOp is this type)
/// draw, dispatch, classify and degrade operations through the pieces below,
/// so the paper's per-operation denominators mean the same thing on both
/// paths. Bulk creation is setup traffic and has no kind here.
enum class OpKind : uint8_t {
  kGet = 0,
  kScan,
  kInsert,
  kUpdate,
  kDelete,
};

inline bool IsMutation(OpKind kind) {
  return kind == OpKind::kInsert || kind == OpKind::kUpdate ||
         kind == OpKind::kDelete;
}

/// One operation of a workload.
struct Op {
  OpKind kind = OpKind::kGet;
  Key key = 0;
  Value value = 0;  ///< Payload for kInsert/kUpdate.
  Key scan_hi = 0;  ///< Inclusive upper bound for kScan.
};

/// A spec's seeded operation stream. Keys come from `seed + 1`, the mix
/// from `seed + 2` and values from `seed + 3`, drawn only for inserts and
/// updates; the mix lays the spec's fractions out as insert, update,
/// delete, scan, then Get, and a scan spans scan_selectivity of the key
/// range (at least one key). So the runner and the open loop, given one
/// spec and seed, run one op sequence.
class OpGenerator {
 public:
  /// With `owns` set, a key it rejects is redrawn, up to 4096 times; after
  /// that the next key is taken as drawn (a guard against pathological
  /// partition hashes).
  OpGenerator(const WorkloadSpec& spec, uint64_t seed,
              std::function<bool(Key)> owns = nullptr);

  Op Next();

 private:
  Key NextKey();

  WorkloadSpec spec_;
  KeyGenerator keys_;
  Rng mix_;
  Rng values_;
  Key scan_width_;
  std::function<bool(Key)> owns_;
};

/// The executor: applies `op` to `method` and returns the method's status.
/// A Get hit stores its value in `*value` (when non-null); a Scan appends
/// its entries to `*scan_out`.
Status ExecuteOp(AccessMethod* method, const Op& op,
                 std::vector<Entry>* scan_out, Value* value = nullptr);

/// The benign-status rule: a Get that misses (kNotFound) and a point op a
/// bounded-domain method refuses (kOutOfRange) are normal service. Every
/// other non-OK status is a failure, a Scan's included.
bool IsFailure(OpKind kind, const Status& s);

/// The ErrorMode::kDegrade gate: after the first failure, mutations are
/// withheld (degraded service) and reads go on. Inert under other modes.
class DegradeGate {
 public:
  explicit DegradeGate(ErrorMode mode) : armed_(mode == ErrorMode::kDegrade) {}

  /// True when an op of `kind` must be withheld before storage is touched.
  bool Withholds(OpKind kind) const { return degraded_ && IsMutation(kind); }
  void OnFailure() { degraded_ = degraded_ || armed_; }
  bool degraded() const { return degraded_; }

 private:
  bool armed_;
  bool degraded_ = false;
};

}  // namespace rum

#endif  // RUMLAB_WORKLOAD_OP_H_
