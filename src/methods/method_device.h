#ifndef RUMLAB_METHODS_METHOD_DEVICE_H_
#define RUMLAB_METHODS_METHOD_DEVICE_H_

#include <cstddef>
#include <memory>

#include "core/counters.h"
#include "storage/block_device.h"
#include "storage/device.h"

namespace rum {

/// The device a device-backed access method stores its pages on. Given a
/// caller's device (borrowed; must outlive the method), it is that device;
/// given none, it is a private BlockDevice of `block_size` bytes that
/// charges `counters` -- the method's own, so its stats() include the block
/// traffic.
class MethodDevice {
 public:
  MethodDevice(Device* device, size_t block_size, RumCounters* counters)
      : owned_(device != nullptr
                   ? nullptr
                   : std::make_unique<BlockDevice>(block_size, counters)),
        device_(device != nullptr ? device : owned_.get()) {}

  Device* get() const { return device_; }
  Device* operator->() const { return device_; }

 private:
  std::unique_ptr<BlockDevice> owned_;
  Device* device_;
};

}  // namespace rum

#endif  // RUMLAB_METHODS_METHOD_DEVICE_H_
