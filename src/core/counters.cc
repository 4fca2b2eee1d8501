#include "core/counters.h"

#include <cassert>
#include <cstdio>

namespace rum {

double CounterSnapshot::read_amplification() const {
  if (logical_bytes_read == 0) return 0.0;
  return static_cast<double>(total_bytes_read()) /
         static_cast<double>(logical_bytes_read);
}

double CounterSnapshot::write_amplification() const {
  if (logical_bytes_written == 0) return 0.0;
  return static_cast<double>(total_bytes_written()) /
         static_cast<double>(logical_bytes_written);
}

double CounterSnapshot::space_amplification() const {
  if (space_base == 0) return 0.0;
  return static_cast<double>(total_space()) / static_cast<double>(space_base);
}

CounterSnapshot CounterSnapshot::operator-(const CounterSnapshot& rhs) const {
  CounterSnapshot out = *this;
  out.bytes_read_base -= rhs.bytes_read_base;
  out.bytes_read_aux -= rhs.bytes_read_aux;
  out.bytes_written_base -= rhs.bytes_written_base;
  out.bytes_written_aux -= rhs.bytes_written_aux;
  out.blocks_read -= rhs.blocks_read;
  out.blocks_written -= rhs.blocks_written;
  out.logical_bytes_read -= rhs.logical_bytes_read;
  out.logical_bytes_written -= rhs.logical_bytes_written;
  out.point_queries -= rhs.point_queries;
  out.range_queries -= rhs.range_queries;
  out.inserts -= rhs.inserts;
  out.updates -= rhs.updates;
  out.deletes -= rhs.deletes;
  out.batched_page_hits -= rhs.batched_page_hits;
  out.io_errors -= rhs.io_errors;
  out.retries -= rhs.retries;
  // Space fields stay as the left-hand (current) levels.
  return out;
}

CounterSnapshot& CounterSnapshot::operator+=(const CounterSnapshot& rhs) {
  bytes_read_base += rhs.bytes_read_base;
  bytes_read_aux += rhs.bytes_read_aux;
  bytes_written_base += rhs.bytes_written_base;
  bytes_written_aux += rhs.bytes_written_aux;
  blocks_read += rhs.blocks_read;
  blocks_written += rhs.blocks_written;
  space_base += rhs.space_base;
  space_aux += rhs.space_aux;
  logical_bytes_read += rhs.logical_bytes_read;
  logical_bytes_written += rhs.logical_bytes_written;
  point_queries += rhs.point_queries;
  range_queries += rhs.range_queries;
  inserts += rhs.inserts;
  updates += rhs.updates;
  deletes += rhs.deletes;
  batched_page_hits += rhs.batched_page_hits;
  io_errors += rhs.io_errors;
  retries += rhs.retries;
  return *this;
}

std::string CounterSnapshot::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "read: %llu B base + %llu B aux (%llu blocks)\n"
      "write: %llu B base + %llu B aux (%llu blocks)\n"
      "space: %llu B base + %llu B aux\n"
      "logical: %llu B read, %llu B written\n"
      "batched: %llu page hits\n"
      "errors: %llu io, %llu retries\n"
      "RO=%.3f UO=%.3f MO=%.3f",
      static_cast<unsigned long long>(bytes_read_base),
      static_cast<unsigned long long>(bytes_read_aux),
      static_cast<unsigned long long>(blocks_read),
      static_cast<unsigned long long>(bytes_written_base),
      static_cast<unsigned long long>(bytes_written_aux),
      static_cast<unsigned long long>(blocks_written),
      static_cast<unsigned long long>(space_base),
      static_cast<unsigned long long>(space_aux),
      static_cast<unsigned long long>(logical_bytes_read),
      static_cast<unsigned long long>(logical_bytes_written),
      static_cast<unsigned long long>(batched_page_hits),
      static_cast<unsigned long long>(io_errors),
      static_cast<unsigned long long>(retries),
      read_amplification(), write_amplification(), space_amplification());
  return std::string(buf);
}

CounterSnapshot RumCounters::snapshot() const {
  // Space must be a real level; a set top bit means frees outran
  // allocations.
  assert(!(totals_.space_base >> 63) && "base space accounting went negative");
  assert(!(totals_.space_aux >> 63) && "aux space accounting went negative");
  return totals_;
}

void RumCounters::ResetTraffic() {
  CounterSnapshot reset;
  reset.space_base = totals_.space_base;
  reset.space_aux = totals_.space_aux;
  totals_ = reset;
}

}  // namespace rum
