#include "core/trace.h"

#include <algorithm>
#include <memory>
#include <mutex>

namespace rum {

std::string_view TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kCacheHit: return "cache_hit";
    case TraceKind::kCacheMiss: return "cache_miss";
    case TraceKind::kCacheEvict: return "cache_evict";
    case TraceKind::kCacheWriteBack: return "cache_write_back";
    case TraceKind::kCacheWriteBackFail: return "cache_write_back_fail";
    case TraceKind::kPinAcquire: return "pin_acquire";
    case TraceKind::kPinRelease: return "pin_release";
    case TraceKind::kFaultInjected: return "fault_injected";
    case TraceKind::kTornWrite: return "torn_write";
    case TraceKind::kRetryAttempt: return "retry_attempt";
    case TraceKind::kCrash: return "crash";
    case TraceKind::kRecovery: return "recovery";
    case TraceKind::kLsmFlush: return "lsm_flush";
    case TraceKind::kLsmCompaction: return "lsm_compaction";
    case TraceKind::kSchedDispatch: return "sched_dispatch";
    case TraceKind::kSchedShed: return "sched_shed";
    case TraceKind::kSchedDeadlineMiss: return "sched_deadline_miss";
  }
  return "unknown";
}

std::string_view TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kNone: return "none";
    case TraceOp::kRead: return "read";
    case TraceOp::kWrite: return "write";
    case TraceOp::kPin: return "pin";
    case TraceOp::kAllocate: return "allocate";
    case TraceOp::kFree: return "free";
    case TraceOp::kFlush: return "flush";
  }
  return "unknown";
}

namespace trace_internal {
std::atomic<bool> g_enabled{false};
}  // namespace trace_internal

namespace {

/// One thread's private ring. Cache-line aligned so two threads' hot fields
/// never share a line.
struct alignas(64) Ring {
  std::vector<TraceEvent> slots;
  size_t head = 0;          ///< Next slot to write.
  uint64_t written = 0;     ///< Total events appended since Enable().
  uint64_t overwritten = 0; ///< Events lost to wraparound since Enable().
};

struct TraceState {
  std::mutex mu;  ///< Guards ring registration and Enable/Drain sweeps.
  std::vector<std::unique_ptr<Ring>> rings;
  size_t capacity = size_t{1} << 14;
  std::atomic<uint64_t> seq{0};
};

TraceState& State() {
  static TraceState* state = new TraceState();
  return *state;
}

Ring& LocalRing() {
  // The trace is a process singleton, so one cached pointer per thread
  // finds the ring. Rings are never destroyed, so the cache can never
  // dangle.
  thread_local Ring* cached = nullptr;
  if (cached != nullptr) return *cached;
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.rings.push_back(std::make_unique<Ring>());
  cached = state.rings.back().get();
  cached->slots.resize(state.capacity);
  return *cached;
}

}  // namespace

void Trace::Enable(size_t events_per_thread) {
  if (events_per_thread == 0) events_per_thread = 1;
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.capacity = events_per_thread;
  for (auto& ring : state.rings) {
    ring->slots.assign(events_per_thread, TraceEvent{});
    ring->head = 0;
    ring->written = 0;
    ring->overwritten = 0;
  }
  state.seq.store(0, std::memory_order_relaxed);
  trace_internal::g_enabled.store(true, std::memory_order_release);
}

void Trace::Disable() {
  trace_internal::g_enabled.store(false, std::memory_order_release);
}

void Trace::EmitActive(TraceKind kind, TraceOp op, PageId page, DataClass cls,
                       uint64_t detail) {
  Ring& ring = LocalRing();
  TraceState& state = State();
  TraceEvent& slot = ring.slots[ring.head];
  if (ring.written >= ring.slots.size()) ++ring.overwritten;
  slot.seq = state.seq.fetch_add(1, std::memory_order_relaxed);
  slot.detail = detail;
  slot.page = page;
  slot.kind = kind;
  slot.op = op;
  slot.cls = cls;
  ring.head = (ring.head + 1) % ring.slots.size();
  ++ring.written;
}

std::vector<TraceEvent> Trace::Drain() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<TraceEvent> out;
  for (auto& ring : state.rings) {
    size_t cap = ring->slots.size();
    size_t live = ring->written < cap ? static_cast<size_t>(ring->written) : cap;
    // Oldest surviving event first: when full, that's the slot at head
    // (about to be overwritten next); when partial, slot 0.
    size_t start = ring->written < cap ? 0 : ring->head;
    for (size_t i = 0; i < live; ++i) {
      out.push_back(ring->slots[(start + i) % cap]);
    }
    ring->head = 0;
    ring->written = 0;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

uint64_t Trace::dropped_events() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  uint64_t dropped = 0;
  for (const auto& ring : state.rings) dropped += ring->overwritten;
  return dropped;
}

}  // namespace rum
