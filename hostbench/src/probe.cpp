#include "probe.h"

#include <algorithm>
#include <array>

#include "clock.h"

namespace hb {

using hw::TimeNs;
namespace {

/// Both add blocks take about 10k cycles when the core is not shared.
constexpr int kDependentRounds = 100;    // 100 dependent adds each
constexpr int kIndependentRounds = 625;  // 8 chains x 10 adds each
constexpr int kProbeRepeats = 3;

#define HB_REP10(x) x x x x x x x x x x

double elapsed_ns(TimeNs begin) {
  return static_cast<double>(host_ns() - begin);
}

}  // namespace

ProbeReading CoreProbe::read() {
  std::uint64_t one = 1;
  std::uint64_t x = sink_;
  std::uint64_t a = x, b = 1, c = 2, d = 3, e = 4, f = 5, g = 6, h = 7;
  double dependent_ns = 0;
  std::array<double, kProbeRepeats> ratios{};
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    TimeNs begin = host_ns();
    for (int i = 0; i < kDependentRounds; ++i) {
#if defined(__x86_64__)
      asm volatile(HB_REP10(HB_REP10("add %1, %0\n\t")) : "+r"(x) : "r"(one));
#else
      for (int k = 0; k < 100; ++k) {
        asm volatile("" : "+r"(x));
        x += one;
      }
#endif
    }
    const double dep = elapsed_ns(begin);

    begin = host_ns();
    for (int i = 0; i < kIndependentRounds; ++i) {
#if defined(__x86_64__)
      asm volatile(HB_REP10("add %8, %0\n\tadd %8, %1\n\tadd %8, %2\n\t"
                            "add %8, %3\n\tadd %8, %4\n\tadd %8, %5\n\t"
                            "add %8, %6\n\tadd %8, %7\n\t")
                   : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f),
                     "+r"(g), "+r"(h)
                   : "r"(one));
#else
      for (int k = 0; k < 10; ++k) {
        asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e),
                     "+r"(f), "+r"(g), "+r"(h));
        a += one, b += one, c += one, d += one;
        e += one, f += one, g += one, h += one;
      }
#endif
    }
    const double ind = elapsed_ns(begin);
    dependent_ns = rep == 0 ? dep : std::min(dependent_ns, dep);
    ratios[rep] = ind / dep;
  }
  sink_ = x ^ a ^ b ^ c ^ d ^ e ^ f ^ g ^ h;
  std::sort(ratios.begin(), ratios.end());
  return {kDependentRounds * 100.0 / dependent_ns, ratios[kProbeRepeats / 2]};
}

}  // namespace hb
