#include "clock.h"

#include <time.h>

#include <chrono>

namespace hb {

hw::TimeNs host_ns() noexcept {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<hw::TimeNs>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

hw::TimeNs thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<hw::TimeNs>(ts.tv_sec) * 1'000'000'000 +
         static_cast<hw::TimeNs>(ts.tv_nsec);
}

}  // namespace hb
