#ifndef RUMLAB_SERVICE_ADMISSION_H_
#define RUMLAB_SERVICE_ADMISSION_H_

#include <cstdint>

namespace rum {

/// The CoDel AQM (Nichols & Jacobson) on the scheduler's virtual clock, one
/// controller per shard. CoDel watches the *sojourn time* of each request it
/// dequeues: when sojourn stays above `target_us` for a full `interval_us`,
/// the shard enters a dropping state and sheds the head request on the
/// standard sqrt control-law schedule -- each successive drop comes sooner
/// (interval / sqrt(drop_count)) -- until a dequeue sees sojourn back under
/// target. Shedding from the *head* (oldest request) is what distinguishes
/// CoDel from tail drop: the clients whose requests have already waited
/// longest learn about overload first, and standing-queue delay converges to
/// the target instead of to the queue bound.
///
/// Deterministic: pure integer state driven by virtual time.
class CoDelController {
 public:
  CoDelController(uint64_t target_us, uint64_t interval_us)
      : target_us_(target_us), interval_us_(interval_us) {}

  /// Called for each request as it is popped for dispatch, with its queue
  /// sojourn and the current virtual time. Returns true when CoDel says to
  /// shed this request instead of serving it.
  bool ShouldShed(uint64_t sojourn_us, uint64_t now_us);

 private:
  /// True when the sojourn signal has stayed above target for an interval.
  bool OkToDrop(uint64_t sojourn_us, uint64_t now_us);

  /// Next drop time under the sqrt control law.
  uint64_t ControlLaw(uint64_t t) const;

  uint64_t target_us_;
  uint64_t interval_us_;
  uint64_t first_above_us_ = 0;  ///< 0 = sojourn currently below target.
  bool dropping_ = false;
  uint64_t drop_next_us_ = 0;
  uint64_t drop_count_ = 0;       ///< Drops in the current dropping state.
  uint64_t last_drop_count_ = 0;  ///< drop_count_ when dropping last ended.
};

}  // namespace rum

#endif  // RUMLAB_SERVICE_ADMISSION_H_
