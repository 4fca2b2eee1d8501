#ifndef RUMLAB_STORAGE_APPEND_LOG_H_
#define RUMLAB_STORAGE_APPEND_LOG_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/counters.h"
#include "core/status.h"
#include "core/types.h"
#include "storage/device.h"

namespace rum {

/// Operation carried by one log record.
enum class LogOp : uint8_t {
  kPut = 0,
  kDelete = 1,
};

/// One record of an append-only log: an upsert or a tombstone.
struct LogRecord {
  Key key = 0;
  Value value = 0;
  LogOp op = LogOp::kPut;

  /// On-device footprint of one record: key + value + op byte.
  static constexpr size_t kWireSize = sizeof(Key) + sizeof(Value) + 1;
};

/// An append-only log of records on a Device -- the substrate for the
/// paper's Proposition-2 structure (min UO = 1.0) and for every
/// differential/write-optimized method built here.
///
/// Records are buffered in a tail image and each device block is written
/// exactly once, when it fills (or on Flush), so the amortized write
/// amplification of appending approaches 1.0 -- the paper's lower bound.
class AppendLog {
 public:
  /// Creates a log storing pages of class `cls` on `device`. `counters`
  /// (borrowed) is charged for reads served from the buffered tail.
  AppendLog(Device* device, DataClass cls, RumCounters* counters);

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  ~AppendLog();

  /// Appends one record. Writes a device block only when the tail fills.
  Status Append(const LogRecord& record);

  /// Writes the partially-filled tail block (if any) to the device.
  Status Flush();

  /// Iterates all records in append order, charging device reads for full
  /// blocks and tail-byte reads to the counters. Stops early on non-OK.
  Status ForEach(
      const std::function<Status(const LogRecord&)>& visit) const;

  /// Frees every page and clears the tail (log truncation).
  Status Clear();

  /// Total records appended and still in the log.
  uint64_t record_count() const { return record_count_; }
  /// Full device pages currently held.
  size_t page_count() const { return pages_.size(); }
  /// Records per device block.
  size_t records_per_block() const { return records_per_block_; }

 private:
  static void EncodeRecord(const LogRecord& r, uint8_t* dst);
  static LogRecord DecodeRecord(const uint8_t* src);

  Device* device_;  // Not owned.
  DataClass cls_;
  RumCounters* counters_;  // Not owned.
  size_t records_per_block_;
  std::vector<PageId> pages_;          // Sealed, full pages.
  std::vector<LogRecord> tail_;        // Buffered records not yet sealed.
  PageId tail_page_ = kInvalidPageId;  // Allocated lazily for the tail.
  uint64_t record_count_ = 0;
};

}  // namespace rum

#endif  // RUMLAB_STORAGE_APPEND_LOG_H_
