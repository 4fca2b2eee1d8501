#ifndef RUMLAB_CORE_COUNTERS_H_
#define RUMLAB_CORE_COUNTERS_H_

#include <cstdint>
#include <string>

namespace rum {

/// Tags every physical access and every resident byte as belonging to the
/// *base data* (the logical dataset itself) or to *auxiliary data* (indexes,
/// filters, logs, fence pointers, ... anything an access method adds on top).
///
/// The paper's three overheads are ratios over this split (Section 2):
///  - Read Overhead  (read amplification):  total bytes read / bytes of
///    base data the operation logically retrieved.
///  - Update Overhead (write amplification): total bytes physically written
///    / bytes of the logical update.
///  - Memory Overhead (space amplification): total resident bytes / resident
///    base-data bytes.
enum class DataClass {
  kBase = 0,
  kAux = 1,
};

/// An immutable snapshot of RUM accounting state; also usable as a delta
/// (snapshot_after - snapshot_before) to measure a single operation or a
/// whole workload phase.
struct CounterSnapshot {
  // -- Physical traffic, in bytes, split by data class.
  uint64_t bytes_read_base = 0;
  uint64_t bytes_read_aux = 0;
  uint64_t bytes_written_base = 0;
  uint64_t bytes_written_aux = 0;

  // -- Physical traffic, in device blocks (0 for purely in-memory methods
  //    that account at byte granularity only).
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;

  // -- Resident space, in bytes, split by data class. These are levels, not
  //    accumulations: a snapshot records the space in use at that instant.
  uint64_t space_base = 0;
  uint64_t space_aux = 0;

  // -- Logical denominators.
  /// Bytes of base data the caller logically asked for and received
  /// (point-query hits and scan results).
  uint64_t logical_bytes_read = 0;
  /// Bytes of base data the caller logically changed (inserts, updates,
  /// deletes; one entry each).
  uint64_t logical_bytes_written = 0;

  // -- Operation counts (for reporting per-op averages).
  uint64_t point_queries = 0;
  uint64_t range_queries = 0;
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;

  // -- Batched-read accounting. Page pins a MultiGet avoided relative to
  //    the equivalent per-key Get loop (k keys resolved from one pinned
  //    page record k-1 hits). Traffic-like: reset with the other
  //    accumulators, zero whenever no batched path ran.
  uint64_t batched_page_hits = 0;

  // -- Robustness accounting (the fault/recovery substrate). Failed I/O is
  //    never charged as traffic (a faulted block moves no bytes), so errors
  //    and retries get their own pair: `io_errors` counts device operations
  //    that returned kIOError, `retries` counts the re-attempts a retry
  //    policy issued in response.
  uint64_t io_errors = 0;
  uint64_t retries = 0;

  /// Total physical bytes read (base + auxiliary).
  uint64_t total_bytes_read() const { return bytes_read_base + bytes_read_aux; }
  /// Total physical bytes written (base + auxiliary).
  uint64_t total_bytes_written() const {
    return bytes_written_base + bytes_written_aux;
  }
  /// Total resident bytes (base + auxiliary).
  uint64_t total_space() const { return space_base + space_aux; }

  /// Read amplification: total bytes read / logical bytes retrieved.
  /// Returns 0 when nothing was logically read.
  double read_amplification() const;
  /// Write amplification: total bytes written / logical bytes updated.
  /// Returns 0 when nothing was logically written.
  double write_amplification() const;
  /// Space amplification: total space / base space. Returns 0 when no base
  /// data is resident.
  double space_amplification() const;

  /// Component-wise difference; space fields are taken from *this (they are
  /// levels, not accumulators).
  CounterSnapshot operator-(const CounterSnapshot& rhs) const;
  CounterSnapshot& operator+=(const CounterSnapshot& rhs);

  /// Multi-line human-readable rendering for logs and examples.
  std::string ToString() const;
};

/// Running totals of the physical traffic the *calling thread* has charged
/// to any RumCounters instance, ever. Two plain thread-local adds per
/// charge, no locks, no merging. This is the cheap sampling path the
/// workload runner uses for per-op cost deltas: on a serial run every
/// charge lands on the sampling thread, so deltas of this tally equal
/// deltas of a full `stats()` across every counters instance in the stack
/// -- without locking every ShardedMethod partition and summing its inner
/// stats per operation (the pathology trace_test's sampling-regression
/// check pins).
struct ThreadIoTally {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

/// The calling thread's tally (monotone; never reset -- sample deltas).
inline ThreadIoTally& ThisThreadIo() {
  thread_local ThreadIoTally tally;
  return tally;
}

/// Mutable accumulator fed by devices, memory trackers, and access methods:
/// one plain CounterSnapshot, read and written in place.
///
/// Synchronization contract (the one BlockDevice states; DESIGN.md §3b):
/// the recorders of one instance are serialized -- one thread, a lock every
/// recorder takes (ShardedMethod's per-shard mutex for inner methods,
/// CachingDevice's mutex for the stack beneath it), or a join (as
/// WorkloadRunner does around a phase) -- and `snapshot()` reads it at
/// quiescence. Threads may charge *different* instances at once; two
/// threads charging one instance with no common lock is a data race, which
/// the ThreadSanitizer tier reports.
class RumCounters {
 public:
  RumCounters() = default;

  RumCounters(const RumCounters&) = delete;
  RumCounters& operator=(const RumCounters&) = delete;

  /// Records `bytes` physically read from data of class `cls`.
  void OnRead(DataClass cls, uint64_t bytes) {
    ThisThreadIo().bytes_read += bytes;
    if (cls == DataClass::kBase) {
      totals_.bytes_read_base += bytes;
    } else {
      totals_.bytes_read_aux += bytes;
    }
  }

  /// Records `bytes` physically written to data of class `cls`.
  void OnWrite(DataClass cls, uint64_t bytes) {
    ThisThreadIo().bytes_written += bytes;
    if (cls == DataClass::kBase) {
      totals_.bytes_written_base += bytes;
    } else {
      totals_.bytes_written_aux += bytes;
    }
  }

  /// Records a whole-block device read/write (granularity accounting).
  void OnBlockRead() { ++totals_.blocks_read; }
  void OnBlockWrite() { ++totals_.blocks_written; }

  /// Adjusts resident space of class `cls` by `delta` bytes (may shrink).
  void AdjustSpace(DataClass cls, int64_t delta) {
    // A two's-complement add; snapshot() asserts the level stays real.
    space(cls) += static_cast<uint64_t>(delta);
  }
  /// Sets resident space of class `cls` to an absolute level.
  void SetSpace(DataClass cls, uint64_t bytes) { space(cls) = bytes; }

  /// Records that the caller logically retrieved `bytes` of base data.
  void OnLogicalRead(uint64_t bytes) { totals_.logical_bytes_read += bytes; }
  /// Records that the caller logically updated `bytes` of base data.
  void OnLogicalWrite(uint64_t bytes) {
    totals_.logical_bytes_written += bytes;
  }

  /// Rebooks the most recent insert as an update (used by the default
  /// AccessMethod::Update, which delegates to Insert). A no-op when no
  /// insert is on the books (a ResetTraffic came in between).
  void ReclassifyInsertAsUpdate() {
    if (totals_.inserts == 0) return;
    --totals_.inserts;
    ++totals_.updates;
  }

  void OnPointQuery() { ++totals_.point_queries; }
  void OnRangeQuery() { ++totals_.range_queries; }
  void OnInsert() { ++totals_.inserts; }
  void OnUpdate() { ++totals_.updates; }
  void OnDelete() { ++totals_.deletes; }

  /// Records page pins a batched read avoided versus the per-key loop.
  void OnBatchedPageHits(uint64_t n) { totals_.batched_page_hits += n; }

  /// Records one device operation that failed with kIOError.
  void OnIoError() { ++totals_.io_errors; }
  /// Records one retry attempt issued by a retry policy.
  void OnRetry() { ++totals_.retries; }

  /// Returns the accounting state.
  CounterSnapshot snapshot() const;

  /// Zeroes all accumulators but preserves the space levels (resident data
  /// does not disappear when stats are reset).
  void ResetTraffic();

 private:
  uint64_t& space(DataClass cls) {
    return cls == DataClass::kBase ? totals_.space_base : totals_.space_aux;
  }

  CounterSnapshot totals_;
};

}  // namespace rum

#endif  // RUMLAB_CORE_COUNTERS_H_
