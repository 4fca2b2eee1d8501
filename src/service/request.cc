#include "service/request.h"

#include <cstdio>

namespace rum {

std::string ServiceStats::ToJson() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"submitted\":%llu,\"accepted\":%llu,\"completed\":%llu,"
      "\"failed\":%llu,\"degraded_skips\":%llu,\"deadline_missed\":%llu,"
      "\"shed\":%llu,\"shed_queue_full\":%llu,\"shed_codel\":%llu,"
      "\"batches\":%llu,\"batched_ops\":%llu,"
      "\"coalesced_reads\":%llu,\"batched_reads\":%llu,"
      "\"completed_within_slo\":%llu,"
      "\"max_queue_depth\":%llu,\"end_us\":%llu,"
      "\"goodput_ops_per_sec\":%.3f,\"ledger_holds\":%s",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(degraded_skips),
      static_cast<unsigned long long>(deadline_missed),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(shed_queue_full),
      static_cast<unsigned long long>(shed_codel),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(batched_ops),
      static_cast<unsigned long long>(coalesced_reads),
      static_cast<unsigned long long>(batched_reads),
      static_cast<unsigned long long>(completed_within_slo),
      static_cast<unsigned long long>(max_queue_depth),
      static_cast<unsigned long long>(end_us), goodput_ops_per_sec(),
      LedgerHolds() ? "true" : "false");
  std::string out(buf);
  out += ",\"queue_delay_us\":" + queue_delay_us.ToJson();
  out += ",\"service_us\":" + service_us.ToJson();
  out += ",\"total_us\":" + total_us.ToJson();
  out += ",\"batch_size\":" + batch_size.ToJson();
  out += "}";
  return out;
}

}  // namespace rum
