#pragma once

#include "common/types.h"

namespace hb {

/// Host nanoseconds on the steady clock since the first call.
[[nodiscard]] hw::TimeNs host_ns() noexcept;

/// CPU time of the calling thread in nanoseconds. Unlike host_ns(), it
/// stops while the thread waits for a CPU, so time the scheduler gives to
/// other processes (or the hypervisor to other guests) is not counted.
[[nodiscard]] hw::TimeNs thread_cpu_ns() noexcept;

}  // namespace hb
