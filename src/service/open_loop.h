#ifndef RUMLAB_SERVICE_OPEN_LOOP_H_
#define RUMLAB_SERVICE_OPEN_LOOP_H_

#include <string>

#include "core/access_method.h"
#include "core/counters.h"
#include "core/options.h"
#include "core/status.h"
#include "service/request.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace rum {

/// Everything one open-loop phase produced: the scheduler's ledger and
/// latency record, the workload-level error tally (sheds, degraded skips,
/// absorbed failures), and the method's RUM accounting delta. Fully
/// deterministic for a fixed seed -- same-seed replays compare ToJson()
/// byte-for-byte (saturation_test pins this).
struct ServiceReport {
  ServiceStats stats;
  ErrorTally errors;
  CounterSnapshot rum;  ///< method->stats() delta across the phase.

  std::string ToJson() const;
};

/// Drives `spec` through a RequestScheduler open-loop: arrivals are stamped
/// by the spec's arrival process (Poisson or bursty, at
/// spec.offered_ops_per_sec) on the scheduler's virtual clock, *regardless
/// of completions* -- the only shape under which offered load can exceed
/// capacity, which is what admission control exists to survive.
///
/// The operations are the closed-loop WorkloadRunner's: the same
/// OpGenerator stream for the spec and seed, run through the same executor,
/// benign-status rule and degrade gate (workload/op.h), with
/// kSkipAndCount/kDegrade tallies. Sheds land in ErrorTally::shed;
/// degraded-service mutation withholding happens inside the scheduler,
/// before storage is touched. Under kAbort the first failure aborts the
/// phase and returns that error.
///
/// Requires a spec that passes ValidateSpec(spec, /*open_loop=*/true) and
/// options that pass ValidateOptions; their error is returned otherwise.
Result<ServiceReport> RunOpenLoop(AccessMethod* method,
                                  const WorkloadSpec& spec,
                                  const Options& options);

}  // namespace rum

#endif  // RUMLAB_SERVICE_OPEN_LOOP_H_
