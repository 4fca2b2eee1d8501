#include "workload/spec.h"

#include <cstdio>

namespace rum {

WorkloadSpec WorkloadSpec::ReadOnly(uint64_t ops, Key key_range) {
  WorkloadSpec spec;
  spec.operations = ops;
  spec.key_range = key_range;
  return spec;
}

WorkloadSpec WorkloadSpec::WriteOnly(uint64_t ops, Key key_range) {
  WorkloadSpec spec;
  spec.operations = ops;
  spec.key_range = key_range;
  spec.insert_fraction = 1.0;
  return spec;
}

WorkloadSpec WorkloadSpec::ReadMostly(uint64_t ops, Key key_range) {
  WorkloadSpec spec;
  spec.operations = ops;
  spec.key_range = key_range;
  spec.insert_fraction = 0.05;
  spec.update_fraction = 0.05;
  return spec;
}

WorkloadSpec WorkloadSpec::Mixed(uint64_t ops, Key key_range) {
  WorkloadSpec spec;
  spec.operations = ops;
  spec.key_range = key_range;
  spec.insert_fraction = 0.25;
  spec.update_fraction = 0.15;
  spec.delete_fraction = 0.05;
  spec.scan_fraction = 0.05;
  return spec;
}

WorkloadSpec WorkloadSpec::ScanHeavy(uint64_t ops, Key key_range) {
  WorkloadSpec spec;
  spec.operations = ops;
  spec.key_range = key_range;
  spec.scan_fraction = 0.5;
  spec.insert_fraction = 0.1;
  return spec;
}

std::string WorkloadSpec::ToString() const {
  double reads = 1.0 - insert_fraction - update_fraction - delete_fraction -
                 scan_fraction;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ops=%llu keys=%llu get=%.2f ins=%.2f upd=%.2f del=%.2f "
                "scan=%.2f(sel=%.4f) conc=%u",
                static_cast<unsigned long long>(operations),
                static_cast<unsigned long long>(key_range), reads,
                insert_fraction, update_fraction, delete_fraction,
                scan_fraction, scan_selectivity, concurrency);
  return std::string(buf);
}

Status ValidateSpec(const WorkloadSpec& spec, bool open_loop) {
  if (spec.key_range == 0) {
    return Status::InvalidArgument("key_range must be >= 1");
  }
  const double fractions[] = {spec.insert_fraction, spec.update_fraction,
                              spec.delete_fraction, spec.scan_fraction};
  double sum = 0;
  for (double f : fractions) {
    if (!(f >= 0)) {
      return Status::InvalidArgument("mix fractions must be >= 0: " +
                                     spec.ToString());
    }
    sum += f;
  }
  // The slack absorbs rounding: 0.15 + 0.55 + 0.2 + 0.1 sums to 1 + 2^-52.
  if (sum > 1 + 1e-9) {
    return Status::InvalidArgument("mix fractions must sum to <= 1: " +
                                   spec.ToString());
  }
  if (!open_loop) {
    if (spec.arrival != ArrivalProcess::kClosedLoop) {
      return Status::InvalidArgument(
          "WorkloadRunner runs only closed-loop specs (use RunOpenLoop for "
          "open-loop arrivals)");
    }
    return Status::OK();
  }
  if (spec.arrival == ArrivalProcess::kClosedLoop) {
    return Status::InvalidArgument(
        "RunOpenLoop requires an open-loop arrival process "
        "(use WorkloadRunner for closed loop)");
  }
  if (!(spec.offered_ops_per_sec > 0)) {
    return Status::InvalidArgument(
        "open-loop specs need offered_ops_per_sec > 0");
  }
  if (spec.arrival == ArrivalProcess::kBursty &&
      (spec.burst_on_fraction <= 0 || spec.burst_on_fraction >= 1 ||
       spec.burst_factor < 1 || spec.burst_period_us < 1)) {
    return Status::InvalidArgument(
        "bursty arrivals need burst_on_fraction in (0,1), burst_factor >= 1 "
        "and burst_period_us >= 1");
  }
  return Status::OK();
}

}  // namespace rum
