#ifndef RUMLAB_CORE_TRACE_H_
#define RUMLAB_CORE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/counters.h"
#include "core/types.h"

namespace rum {

/// What happened. Kinds cover the full device stack plus the LSM background
/// machinery, so a drained trace replays a run's physical story: cache
/// dynamics, pin lifetimes, injected faults, retries, crashes, compactions.
enum class TraceKind : uint8_t {
  kCacheHit = 0,
  kCacheMiss,
  kCacheEvict,
  kCacheWriteBack,
  kCacheWriteBackFail,
  kPinAcquire,
  kPinRelease,
  kFaultInjected,
  kTornWrite,
  kRetryAttempt,
  kCrash,
  kRecovery,
  kLsmFlush,
  kLsmCompaction,
  // -- Request-scheduler service layer (src/service/).
  kSchedDispatch,      ///< One batch window dispatched (detail = batch ops).
  kSchedShed,          ///< A request shed by admission control or overflow.
  kSchedDeadlineMiss,  ///< A request expired in queue; device untouched.
};
inline constexpr size_t kTraceKindCount =
    static_cast<size_t>(TraceKind::kSchedDeadlineMiss) + 1;

/// Which device operation class the event occurred under (mirrors FaultOp,
/// plus kNone for events outside any single op and kFree for deallocation).
enum class TraceOp : uint8_t {
  kNone = 0,
  kRead,
  kWrite,
  kPin,
  kAllocate,
  kFree,
  kFlush,
};

std::string_view TraceKindName(TraceKind kind);
std::string_view TraceOpName(TraceOp op);

/// One trace record. `detail` is kind-specific:
///   kPinRelease    -> held duration in nanoseconds (wall-clock, so the
///                     determinism contract masks it)
///   kRetryAttempt  -> attempt number (2 = first re-attempt)
///   kLsmFlush      -> records flushed
///   kLsmCompaction -> destination level
///   kCacheEvict    -> 1 if the victim was dirty (written back), else 0
///   kCrash         -> cache entries dropped / pins abandoned at that layer
///   everything else -> 0
struct TraceEvent {
  uint64_t seq = 0;    ///< Global monotonic order across all threads.
  uint64_t detail = 0;
  PageId page = kInvalidPageId;
  TraceKind kind = TraceKind::kCacheHit;
  TraceOp op = TraceOp::kNone;
  DataClass cls = DataClass::kBase;
};

namespace trace_internal {
/// Read by the inline Emit guard; written only by Enable/Disable.
extern std::atomic<bool> g_enabled;
}  // namespace trace_internal

/// Process-wide structured trace: fixed-capacity per-thread ring buffers
/// behind a global registry, because a ShardedMethod's shards (their LSM
/// flushes, say) emit from several threads under no common lock. When
/// disabled -- the default -- Emit() is a single relaxed load and branch; no
/// ring is touched, no sequence number is drawn. When enabled, each thread
/// appends to its own ring (plain stores, no locks after first-touch
/// registration) and draws a global sequence number with one relaxed
/// fetch_add, the only cross-thread traffic on the hot path.
///
/// Rings hold the *newest* `events_per_thread` events per thread: wraparound
/// overwrites the oldest slot and bumps the dropped-event count.
///
/// Synchronization contract: threads may Emit concurrently with each other
/// (unlike RumCounters recorders, which are serialized), but
/// Enable/Disable/Drain require external synchronization with emitters (a
/// join or barrier). Drain() merges every ring by sequence number and clears
/// them.
class Trace {
 public:
  /// True when tracing is on. Inline relaxed load: this is the whole
  /// disabled-path cost, per the overhead contract in DESIGN.md §3e.
  static bool enabled() {
    return trace_internal::g_enabled.load(std::memory_order_relaxed);
  }

  /// Clears all rings, resizes them to `events_per_thread` slots, resets the
  /// sequence and dropped counts, and turns tracing on. Existing rings are
  /// reshaped in place so thread-cached ring pointers stay valid.
  static void Enable(size_t events_per_thread);

  /// Turns tracing off. Ring contents survive for a later Drain().
  static void Disable();

  /// Records one event (no-op when disabled).
  static void Emit(TraceKind kind, TraceOp op, PageId page, DataClass cls,
                   uint64_t detail = 0) {
    if (!enabled()) return;
    EmitActive(kind, op, page, cls, detail);
  }

  /// Merges all rings into one sequence-ordered vector and clears them.
  /// Sequence numbers in the result are unique and increasing, with gaps
  /// where wraparound dropped older events.
  static std::vector<TraceEvent> Drain();

  /// Events overwritten by ring wraparound since Enable().
  static uint64_t dropped_events();

 private:
  static void EmitActive(TraceKind kind, TraceOp op, PageId page,
                         DataClass cls, uint64_t detail);
};

}  // namespace rum

#endif  // RUMLAB_CORE_TRACE_H_
