#include "timed.h"

#include <algorithm>
#include <iterator>
#include <numeric>

namespace rumbench {

using rum::DataClass;
using rum::PageId;
using rum::PageReadGuard;
using rum::PageWriteGuard;
using rum::Status;

OpClass& CurrentOpClass() {
  static OpClass current = OpClass::kOther;
  return current;
}

uint64_t BoundaryTimes::total_ns() const {
  return std::accumulate(ns.begin(), ns.end(), uint64_t{0});
}

uint64_t BoundaryTimes::total_calls() const {
  return std::accumulate(calls.begin(), calls.end(), uint64_t{0});
}

// ---------------------------------------------------------------- TimedDevice

Status TimedDevice::Allocate(DataClass cls, PageId* out) {
  return Timed([&] { return inner_->Allocate(cls, out); });
}

Status TimedDevice::Free(PageId page) {
  return Timed([&] { return inner_->Free(page); });
}

Status TimedDevice::Read(PageId page, std::vector<uint8_t>* out) {
  return Timed([&] { return inner_->Read(page, out); });
}

Status TimedDevice::Write(PageId page, const std::vector<uint8_t>& data) {
  return Timed([&] { return inner_->Write(page, data); });
}

Status TimedDevice::FlushAll() {
  return Timed([&] { return inner_->FlushAll(); });
}

Status TimedDevice::PinForRead(PageId page, PageReadGuard* out) {
  ++times_->read_pins[static_cast<size_t>(CurrentOpClass())];
  return Timed([&] {
    PageReadGuard inner;
    Status s = inner_->PinForRead(page, &inner);
    if (!s.ok()) return s;
    std::span<const uint8_t> bytes = inner.bytes();
    read_pins_.emplace_back(page, std::move(inner));
    *out = MakeReadGuard(this, page, bytes.data(), bytes.size());
    return s;
  });
}

Status TimedDevice::PinForWrite(PageId page, PageWriteGuard* out) {
  return Timed([&] {
    PageWriteGuard inner;
    Status s = inner_->PinForWrite(page, &inner);
    if (!s.ok()) return s;
    std::span<uint8_t> bytes = inner.bytes();
    write_pins_.emplace_back(page, std::move(inner));
    *out = MakeWriteGuard(this, page, bytes.data(), bytes.size());
    return s;
  });
}

void TimedDevice::UnpinRead(PageId page) {
  Timed([&] {
    auto it = std::find_if(read_pins_.rbegin(), read_pins_.rend(),
                           [&](const auto& p) { return p.first == page; });
    if (it == read_pins_.rend()) return 0;  // Abandoned by a Crash().
    PageReadGuard inner = std::move(it->second);
    read_pins_.erase(std::next(it).base());
    inner.Release();
    return 0;
  });
}

Status TimedDevice::UnpinWrite(PageId page, bool dirty) {
  return Timed([&] {
    auto it = std::find_if(write_pins_.rbegin(), write_pins_.rend(),
                           [&](const auto& p) { return p.first == page; });
    if (it == write_pins_.rend()) return Status::OK();  // Abandoned.
    PageWriteGuard inner = std::move(it->second);
    write_pins_.erase(std::next(it).base());
    if (dirty) inner.MarkDirty();
    return inner.Release();
  });
}

void TimedDevice::Crash() {
  read_pins_.clear();
  write_pins_.clear();
  inner_->Crash();
}

// ---------------------------------------------------------------- TimedMethod

TimedMethod::TimedMethod(std::unique_ptr<rum::AccessMethod> inner,
                         BoundaryTimes* times)
    : inner_(std::move(inner)),
      partitioned_(dynamic_cast<const rum::KeyPartitioned*>(inner_.get())),
      times_(times) {}

Status TimedMethod::Insert(rum::Key key, rum::Value value) {
  return Timed(OpClass::kInsert, [&] { return inner_->Insert(key, value); });
}

Status TimedMethod::Update(rum::Key key, rum::Value value) {
  return Timed(OpClass::kUpdate, [&] { return inner_->Update(key, value); });
}

Status TimedMethod::Delete(rum::Key key) {
  return Timed(OpClass::kDelete, [&] { return inner_->Delete(key); });
}

rum::Result<rum::Value> TimedMethod::Get(rum::Key key) {
  return Timed(OpClass::kGet, [&] { return inner_->Get(key); });
}

Status TimedMethod::MultiGet(std::span<const rum::Key> keys,
                             std::vector<std::optional<rum::Value>>* out) {
  times_->keys[static_cast<size_t>(OpClass::kMultiGet)] += keys.size();
  return Timed(OpClass::kMultiGet,
               [&] { return inner_->MultiGet(keys, out); });
}

Status TimedMethod::Scan(rum::Key lo, rum::Key hi,
                         std::vector<rum::Entry>* out) {
  return Timed(OpClass::kScan, [&] { return inner_->Scan(lo, hi, out); });
}

Status TimedMethod::BulkLoad(std::span<const rum::Entry> entries) {
  return Timed(OpClass::kOther, [&] { return inner_->BulkLoad(entries); });
}

Status TimedMethod::Flush() {
  return Timed(OpClass::kOther, [&] { return inner_->Flush(); });
}

size_t TimedMethod::partitions() const {
  return partitioned_ != nullptr ? partitioned_->partitions() : 1;
}

size_t TimedMethod::PartitionOf(rum::Key key) const {
  return partitioned_ != nullptr ? partitioned_->PartitionOf(key) : 0;
}

// ---------------------------------------------------------------- Calibration

namespace {

/// A device that does nothing: the calibration target.
class NullDevice : public rum::Device {
 public:
  Status Allocate(DataClass, PageId*) override { return Status::OK(); }
  Status Free(PageId) override { return Status::OK(); }
  Status Read(PageId, std::vector<uint8_t>*) override { return Status::OK(); }
  Status Write(PageId, const std::vector<uint8_t>&) override {
    return Status::OK();
  }
  Status FlushAll() override { return Status::OK(); }
  Status PinForRead(PageId, PageReadGuard*) override { return Status::OK(); }
  Status PinForWrite(PageId, PageWriteGuard*) override { return Status::OK(); }
  size_t block_size() const override { return 4096; }
  size_t live_pages() const override { return 0; }

 protected:
  void UnpinRead(PageId) override {}
  Status UnpinWrite(PageId, bool) override { return Status::OK(); }
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Calls Free on `device` `n` times; returns the elapsed ns. The pointer
/// is read through a volatile so the calls stay virtual, as in a stack.
uint64_t CallLoop(rum::Device* device, size_t n) {
  rum::Device* volatile target = device;
  uint64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) (void)target->Free(0);
  return NowNs() - start;
}

}  // namespace

TimerCost CalibrateTimers() {
  constexpr size_t kCalls = 200000;
  constexpr int kPasses = 7;
  NullDevice null;
  BoundaryTimes times;
  TimedDevice timed(&null, &times);
  std::vector<double> inner;
  std::vector<double> nested;
  for (int pass = 0; pass < kPasses; ++pass) {
    times.Reset();
    double plain = static_cast<double>(CallLoop(&null, kCalls)) / kCalls;
    double outer = static_cast<double>(CallLoop(&timed, kCalls)) / kCalls;
    double measured = static_cast<double>(times.total_ns()) / kCalls;
    inner.push_back(measured - plain);
    nested.push_back(outer - plain);
  }
  return TimerCost{Median(inner), Median(nested)};
}

double SelfNs(double own_ns, double own_calls, double child_ns,
              double child_calls, const TimerCost& cost) {
  return own_ns - own_calls * cost.inner_ns - child_ns -
         child_calls * (cost.nested_ns - cost.inner_ns);
}

}  // namespace rumbench
