#ifndef RUMBENCH_TIMED_H_
#define RUMBENCH_TIMED_H_

// Benchmark-only timing decorators for the --trace run. Each wraps one rung
// of the stack, forwards every call unchanged, and adds the wall time and
// call count of what it forwarded to a BoundaryTimes, split by the op class
// the harness is serving. None of them touches RUM counters, so a traced
// stack charges exactly what the untraced one does (the transparency check
// in rumbench.cc holds the harness to that).

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/access_method.h"
#include "storage/device.h"

namespace rumbench {

/// Steady-clock nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What the outermost method call in flight is doing. Device time is
/// charged to the class current when the device call starts.
enum class OpClass : uint8_t {
  kGet = 0,
  kMultiGet,
  kScan,
  kInsert,
  kUpdate,
  kDelete,
  kOther,  ///< Outside any timed method call.
};
inline constexpr size_t kOpClasses = 7;

/// The op class in flight on this (the only) harness thread.
OpClass& CurrentOpClass();

/// Accumulated wall time and calls across one boundary between rungs.
struct BoundaryTimes {
  std::array<uint64_t, kOpClasses> ns{};
  std::array<uint64_t, kOpClasses> calls{};
  /// Device boundaries: PinForRead calls (page pins taken for reading).
  std::array<uint64_t, kOpClasses> read_pins{};
  /// Method boundaries: keys passed to MultiGet.
  std::array<uint64_t, kOpClasses> keys{};

  uint64_t ns_of(OpClass c) const { return ns[static_cast<size_t>(c)]; }
  uint64_t calls_of(OpClass c) const { return calls[static_cast<size_t>(c)]; }
  uint64_t total_ns() const;
  uint64_t total_calls() const;
  void Reset() { *this = BoundaryTimes{}; }
  void Add(OpClass c, uint64_t elapsed_ns) {
    ns[static_cast<size_t>(c)] += elapsed_ns;
    ++calls[static_cast<size_t>(c)];
  }
};

/// Device decorator that times every call into `inner`. Like FaultyDevice
/// it hands out its own pin guards over the inner ones, so the release of
/// a pin is timed at this boundary too.
class TimedDevice : public rum::Device {
 public:
  /// `inner` and `times` are borrowed and must outlive the decorator.
  TimedDevice(rum::Device* inner, BoundaryTimes* times)
      : inner_(inner), times_(times) {}

  rum::Status Allocate(rum::DataClass cls, rum::PageId* out) override;
  rum::Status Free(rum::PageId page) override;
  rum::Status Read(rum::PageId page, std::vector<uint8_t>* out) override;
  rum::Status Write(rum::PageId page,
                    const std::vector<uint8_t>& data) override;
  rum::Status FlushAll() override;
  rum::Status PinForRead(rum::PageId page, rum::PageReadGuard* out) override;
  rum::Status PinForWrite(rum::PageId page,
                          rum::PageWriteGuard* out) override;
  void Crash() override;
  size_t block_size() const override { return inner_->block_size(); }
  size_t live_pages() const override { return inner_->live_pages(); }

 protected:
  void UnpinRead(rum::PageId page) override;
  rum::Status UnpinWrite(rum::PageId page, bool dirty) override;

 private:
  template <typename F>
  auto Timed(F&& f) {
    OpClass cls = CurrentOpClass();
    uint64_t start = NowNs();
    auto result = f();
    times_->Add(cls, NowNs() - start);
    return result;
  }

  rum::Device* inner_;
  BoundaryTimes* times_;
  /// Inner pins backing this decorator's outstanding guards. Few are open
  /// at once (a root-to-leaf path, one per merge cursor), so a vector
  /// searched from the back beats a map.
  std::vector<std::pair<rum::PageId, rum::PageReadGuard>> read_pins_;
  std::vector<std::pair<rum::PageId, rum::PageWriteGuard>> write_pins_;
};

/// AccessMethod decorator that times every call into `inner` and marks the
/// op class for the device boundaries below it. Forwards KeyPartitioned, so
/// a scheduler in front of a timed ShardedMethod still sees every shard.
class TimedMethod : public rum::AccessMethod, public rum::KeyPartitioned {
 public:
  /// `times` is borrowed and must outlive the decorator.
  TimedMethod(std::unique_ptr<rum::AccessMethod> inner, BoundaryTimes* times);

  std::string_view name() const override { return inner_->name(); }
  rum::Status Insert(rum::Key key, rum::Value value) override;
  rum::Status Update(rum::Key key, rum::Value value) override;
  rum::Status Delete(rum::Key key) override;
  rum::Result<rum::Value> Get(rum::Key key) override;
  rum::Status MultiGet(std::span<const rum::Key> keys,
                       std::vector<std::optional<rum::Value>>* out) override;
  rum::Status Scan(rum::Key lo, rum::Key hi,
                   std::vector<rum::Entry>* out) override;
  rum::Status BulkLoad(std::span<const rum::Entry> entries) override;
  rum::Status Flush() override;
  size_t size() const override { return inner_->size(); }
  rum::CounterSnapshot stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  size_t partitions() const override;
  size_t PartitionOf(rum::Key key) const override;

 private:
  template <typename F>
  auto Timed(OpClass cls, F&& f) {
    OpClass& current = CurrentOpClass();
    OpClass saved = current;
    current = cls;
    uint64_t start = NowNs();
    auto result = f();
    times_->Add(cls, NowNs() - start);
    current = saved;
    return result;
  }

  std::unique_ptr<rum::AccessMethod> inner_;
  const rum::KeyPartitioned* partitioned_;  ///< Null when inner is unsharded.
  BoundaryTimes* times_;
};

/// What timing one nested call costs, measured on this host before a run.
struct TimerCost {
  /// Clock overhead inside one measured interval.
  double inner_ns = 0;
  /// Time a timed call adds to the interval of the boundary above it.
  double nested_ns = 0;
};

/// Times a TimedDevice over a do-nothing device, medians of several passes.
TimerCost CalibrateTimers();

/// Self time of a boundary: its own time minus its children's, with the
/// timer overhead (measured by CalibrateTimers) taken out of both.
double SelfNs(double own_ns, double own_calls, double child_ns,
              double child_calls, const TimerCost& cost);

}  // namespace rumbench

#endif  // RUMBENCH_TIMED_H_
