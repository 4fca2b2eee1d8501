#include "service/open_loop.h"

#include <cmath>
#include <cstdio>

#include "service/scheduler.h"
#include "workload/distribution.h"
#include "workload/op.h"

namespace rum {

namespace {

/// Instantaneous arrival rate at virtual time `t_us` for the spec's arrival
/// process. Bursty modulation is on/off within each period: the on-window
/// runs at burst_factor times the base rate, the off-window slower so the
/// long-run average stays at offered_ops_per_sec (clamped at 1% of base
/// when the on-window alone exceeds the average).
double RateAt(const WorkloadSpec& spec, double t_us) {
  double base = spec.offered_ops_per_sec;
  if (spec.arrival != ArrivalProcess::kBursty) return base;
  double period = static_cast<double>(spec.burst_period_us);
  double phase = std::fmod(t_us, period) / period;
  double on = spec.burst_on_fraction;
  if (phase < on) return base * spec.burst_factor;
  double off = base * (1.0 - on * spec.burst_factor) / (1.0 - on);
  double floor = 0.01 * base;
  return off > floor ? off : floor;
}

}  // namespace

std::string ServiceReport::ToJson() const {
  std::string out = "{\"stats\":" + stats.ToJson();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      ",\"errors\":{\"io_errors\":%llu,\"corruption\":%llu,\"other\":%llu,"
      "\"degraded_skips\":%llu},"
      "\"rum\":{\"bytes_read\":%llu,\"bytes_written\":%llu,"
      "\"logical_bytes_read\":%llu,\"logical_bytes_written\":%llu,"
      "\"point_queries\":%llu,\"range_queries\":%llu,\"inserts\":%llu,"
      "\"updates\":%llu,\"deletes\":%llu,\"io_errors\":%llu,"
      "\"retries\":%llu}}",
      static_cast<unsigned long long>(errors.io_errors),
      static_cast<unsigned long long>(errors.corruption),
      static_cast<unsigned long long>(errors.other),
      static_cast<unsigned long long>(errors.degraded_skips),
      static_cast<unsigned long long>(rum.total_bytes_read()),
      static_cast<unsigned long long>(rum.total_bytes_written()),
      static_cast<unsigned long long>(rum.logical_bytes_read),
      static_cast<unsigned long long>(rum.logical_bytes_written),
      static_cast<unsigned long long>(rum.point_queries),
      static_cast<unsigned long long>(rum.range_queries),
      static_cast<unsigned long long>(rum.inserts),
      static_cast<unsigned long long>(rum.updates),
      static_cast<unsigned long long>(rum.deletes),
      static_cast<unsigned long long>(rum.io_errors),
      static_cast<unsigned long long>(rum.retries));
  out += buf;
  return out;
}

Result<ServiceReport> RunOpenLoop(AccessMethod* method,
                                  const WorkloadSpec& spec,
                                  const Options& options) {
  if (Status s = ValidateSpec(spec, /*open_loop=*/true); !s.ok()) return s;
  // A zero batch_max_ops would make every dispatch pop nothing and the
  // drain loop spin forever.
  if (Status s = ValidateOptions(options); !s.ok()) return s;

  // The closed-loop runner's op stream for the same spec and seed, plus one
  // stream for arrival gaps.
  OpGenerator ops(spec, spec.seed);
  Rng arrival_rng(spec.seed + 4);

  RequestScheduler scheduler(method, options, spec.error_mode);
  ErrorTally tally;
  Status abort_error = Status::OK();
  scheduler.set_completion([&](const Request&, const RequestResult& r) {
    // Sheds and deadline misses are service-level outcomes: they live in
    // the scheduler's ledger, not in the tally.
    if (r.outcome != RequestOutcome::kCompleted) return;
    if (r.degraded_skip) {
      ++tally.degraded_skips;
    } else if (r.failed) {
      if (spec.error_mode == ErrorMode::kAbort) {
        if (abort_error.ok()) abort_error = r.status;
      } else {
        tally.Count(r.status);
      }
    }
  });

  CounterSnapshot before = method->stats();
  double t_us = 0;
  for (uint64_t i = 0; i < spec.operations; ++i) {
    double u = arrival_rng.NextDouble();
    if (u >= 1.0) u = 0.9999999999;
    double rate = RateAt(spec, t_us);
    t_us += -std::log(1.0 - u) * 1e6 / rate;

    Op op = ops.Next();
    Request req;
    req.op = op.kind;
    req.key = op.key;
    req.value = op.value;
    req.scan_hi = op.scan_hi;
    req.arrival_us = static_cast<uint64_t>(t_us);
    scheduler.Submit(std::move(req));
    if (!abort_error.ok()) return abort_error;
  }
  scheduler.RunUntilIdle();
  if (!abort_error.ok()) return abort_error;

  ServiceReport report;
  report.stats = scheduler.stats();
  report.errors = tally;
  report.rum = method->stats() - before;
  return report;
}

}  // namespace rum
