#include "service/admission.h"

#include <cmath>

namespace rum {

bool CoDelController::OkToDrop(uint64_t sojourn_us, uint64_t now_us) {
  if (sojourn_us < target_us_) {
    first_above_us_ = 0;
    return false;
  }
  if (first_above_us_ == 0) {
    // First dequeue above target: arm the interval timer. Dropping only
    // starts if we are *still* above target an interval from now.
    first_above_us_ = now_us + interval_us_;
    return false;
  }
  return now_us >= first_above_us_;
}

uint64_t CoDelController::ControlLaw(uint64_t t) const {
  double denom = std::sqrt(static_cast<double>(drop_count_));
  if (denom < 1.0) denom = 1.0;
  return t + static_cast<uint64_t>(static_cast<double>(interval_us_) / denom);
}

bool CoDelController::ShouldShed(uint64_t sojourn_us, uint64_t now_us) {
  bool ok_to_drop = OkToDrop(sojourn_us, now_us);
  if (dropping_) {
    if (!ok_to_drop) {
      // Sojourn recovered (or dipped below target): leave dropping state.
      dropping_ = false;
      last_drop_count_ = drop_count_;
      return false;
    }
    if (now_us >= drop_next_us_) {
      ++drop_count_;
      drop_next_us_ = ControlLaw(drop_next_us_);
      return true;
    }
    return false;
  }
  if (!ok_to_drop) return false;
  // Enter dropping state and shed immediately. Resume near the previous
  // drop rate if overload returned quickly (the standard CoDel refinement:
  // a queue that re-congests within a couple of intervals has not really
  // recovered, so restart the control law where it left off).
  dropping_ = true;
  if (now_us < drop_next_us_ + 16 * interval_us_ && last_drop_count_ > 2) {
    drop_count_ = last_drop_count_ - 2;
  } else {
    drop_count_ = 1;
  }
  drop_next_us_ = ControlLaw(now_us);
  return true;
}

}  // namespace rum
