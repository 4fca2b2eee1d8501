#ifndef RUMLAB_ADAPTIVE_MEMORY_ARBITER_H_
#define RUMLAB_ADAPTIVE_MEMORY_ARBITER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/memory_budget.h"

namespace rum {

/// The global adaptive memory arbiter -- one byte budget, dynamically split
/// across every registered MemoryPool (cache capacities, memtable
/// thresholds, filter bits).
///
/// The RUM conjecture's Figure 2 reading: memory overhead spent at one
/// hierarchy level buys down read or update overhead at the level below it.
/// A static split fixes that trade at configuration time; the arbiter
/// re-fits it to the observed workload, epoch by epoch, from each kind's
/// marginal benefit:
///
///   benefit delta[k] = bytes of downstream traffic kind k's scarcity cost
///                      this epoch (cache miss bytes, flush+merge bytes,
///                      filter false-positive page bytes)
///   utility u[k]     = delta[k] / max(1, assigned[k])
///                      -- traffic avoided per byte already spent, the
///                      discrete marginal-benefit estimate
///   share[k]         = min_share + (1 - n*min_share) * u[k] / sum(u)
///
/// Movement per replan is clamped to step_fraction * budget so one noisy
/// epoch cannot slam a pool to its floor, and every kind keeps a min_share
/// so its benefit signal stays measurable (a starved pool generates no
/// evidence it deserves more). Within a kind the bytes split equally across
/// pools in registration order (remainder bytes to the earliest), which is
/// what makes sharded stacks symmetric.
///
/// Determinism: the replan is pure integer/double arithmetic over the
/// signal deltas -- same registration order + same metrics trajectory +
/// same epoch boundaries gives byte-identical splits (pinned by
/// memory_arbiter_test's determinism tier).
///
/// Thread safety: one internal mutex serializes registration and replans;
/// the op clock is a lock-free atomic so NotePoolOps stays cheap off the
/// epoch boundary. Pools must never call back into the arbiter from their
/// MemoryPool methods (see core/memory_budget.h); components tick the clock
/// only with their own locks released.
///
/// Lifetime: declare the arbiter before the stack it arbitrates -- pools
/// unregister in their destructors.
class MemoryArbiter : public MemoryRegistrar {
 public:
  struct Config {
    /// The one global byte budget split across all registered pools.
    uint64_t budget_bytes = 0;
    /// Logical ops (summed over all components) per replan epoch (>= 1).
    uint64_t epoch_ops = 8192;
    /// Floor share each *present* kind keeps, so a cold component is never
    /// starved to zero and can show fresh pressure. Clamped to [0, 1/3]:
    /// three kinds share the budget, so higher floors cannot all hold.
    double min_share = 0.05;
    /// Cap on total bytes moved per replan, as a fraction of the budget
    /// (hysteresis against alternating signals); clamped to (0, 1].
    double step_fraction = 0.25;
  };

  explicit MemoryArbiter(const Config& config);
  ~MemoryArbiter() override;

  // MemoryRegistrar:
  /// Registering (or unregistering) a pool re-seeds the split: the budget
  /// is redistributed across the now-registered pools proportionally to
  /// their current pool_bytes (equal split when all report zero), so the
  /// arbitrated stack starts from a scaled version of its static shape.
  void RegisterPool(MemoryPool* pool) override;
  void UnregisterPool(MemoryPool* pool) override;
  void NotePoolOps(uint64_t ops) override;
  MemorySplit split() const override;

  /// Forces a replan now (tests drive epochs explicitly through this).
  void Replan();

  const Config& config() const { return config_; }
  size_t pool_count() const;
  /// Replans executed (epoch-triggered + explicit) since construction.
  uint64_t replans() const;

 private:
  struct PoolState {
    MemoryPool* pool = nullptr;
    /// Bytes this arbiter last assigned via SetPoolBytes.
    uint64_t assigned = 0;
    /// The pool's registration-time (static-configuration) size; seeding
    /// splits the budget proportionally to these.
    uint64_t configured = 0;
    /// BenefitSignal value at the last replan (deltas, not levels, drive
    /// the utilities).
    uint64_t last_signal = 0;
  };

  /// Redistributes the budget proportionally to current pool_bytes and
  /// applies it. Call with mu_ held.
  void SeedSplitLocked();
  /// The marginal-benefit replan described above. Call with mu_ held.
  void ReplanLocked();
  /// Applies per-kind byte targets: exact-integer renormalization to the
  /// budget, then equal within-kind division in registration order.
  void ApplyKindTargetsLocked(const uint64_t kind_bytes[3]);

  const Config config_;
  mutable std::mutex mu_;
  std::vector<PoolState> pools_;  // Registration order (determinism).
  uint64_t replans_ = 0;
  /// Lock-free epoch clock; the thread whose add crosses an epoch_ops
  /// multiple runs the replan.
  std::atomic<uint64_t> ops_{0};
};

}  // namespace rum

#endif  // RUMLAB_ADAPTIVE_MEMORY_ARBITER_H_
