#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/sampler.h"

/// \file sampler_test.cpp
/// STATISTICAL PROPERTY TESTS for the workload samplers (docs/WORKLOADS.md).
/// Every test draws from a fixed seed, so the empirical statistics are
/// bit-for-bit reproducible across builds (scalar/ASan/TSan alike) and the
/// chi-square / tolerance thresholds are deterministic gates, not flaky
/// probabilistic ones. The thresholds themselves are still chosen
/// statistically (99.9th-percentile critical values, ~6-sigma bands) so a
/// regression in the samplers — not an unlucky stream — is what trips them.

namespace hw {
namespace {

/// Pearson chi-square goodness-of-fit of `draws` Zipf(s) samples over
/// [0, n): the first `kHeadBins` ranks are individual bins and the rest
/// pool into one tail bin, keeping every expected count comfortably >= 5.
double zipf_chi_square(double s, std::uint64_t n, std::uint64_t draws,
                       std::uint64_t seed) {
  constexpr std::uint64_t kHeadBins = 50;
  Rng rng(seed);
  ZipfSampler zipf(s);
  std::vector<std::uint64_t> observed(kHeadBins + 1, 0);
  for (std::uint64_t i = 0; i < draws; ++i) {
    const std::uint64_t rank = zipf.draw(rng, n);
    EXPECT_LT(rank, n);
    ++observed[rank < kHeadBins ? rank : kHeadBins];
  }
  const double h_n = ZipfSampler::harmonic(n, s);
  double stat = 0.0;
  double head_mass = 0.0;
  for (std::uint64_t k = 0; k < kHeadBins; ++k) {
    const double p = std::pow(static_cast<double>(k + 1), -s) / h_n;
    head_mass += p;
    const double expected = p * static_cast<double>(draws);
    const double diff = static_cast<double>(observed[k]) - expected;
    stat += diff * diff / expected;
  }
  const double tail_expected =
      (1.0 - head_mass) * static_cast<double>(draws);
  const double tail_diff =
      static_cast<double>(observed[kHeadBins]) - tail_expected;
  stat += tail_diff * tail_diff / tail_expected;
  return stat;
}

/// 99.9th-percentile chi-square critical value for 50 degrees of freedom
/// (51 bins - 1). A correct sampler lands under this ~999 times in 1000;
/// with fixed seeds the comparison is fully deterministic.
constexpr double kChiSqCrit50Df999 = 86.66;

TEST(ZipfSamplerTest, ChiSquareGoodnessOfFit_s09) {
  EXPECT_LT(zipf_chi_square(0.9, 1024, 200'000, 0x51f001), kChiSqCrit50Df999);
}

TEST(ZipfSamplerTest, ChiSquareGoodnessOfFit_s11) {
  EXPECT_LT(zipf_chi_square(1.1, 1024, 200'000, 0x51f002), kChiSqCrit50Df999);
}

TEST(ZipfSamplerTest, ChiSquareGoodnessOfFit_s13) {
  EXPECT_LT(zipf_chi_square(1.3, 1024, 200'000, 0x51f003), kChiSqCrit50Df999);
}

TEST(ZipfSamplerTest, DrawStaysInRangeForDegenerateAndHugeN) {
  Rng rng(0x51f010);
  ZipfSampler zipf(1.1);
  EXPECT_EQ(zipf.draw(rng, 0), 0u);
  EXPECT_EQ(zipf.draw(rng, 1), 0u);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(zipf.draw(rng, 2), 2u);
    EXPECT_LT(zipf.draw(rng, 1'000'000), 1'000'000u);
  }
}

TEST(ZipfSamplerTest, HeadMassMatchesAnalyticTopKForMillionFlows) {
  // At n = 1M, as in the 1M-flow bench config, the fraction of draws
  // landing in the top-64 ranks must match the analytic top-k mass (the
  // same quantity the smoke gate bounds).
  constexpr std::uint64_t kN = 1'000'000;
  Rng rng(0x51f020);
  ZipfSampler zipf(1.1);
  constexpr std::uint64_t kDraws = 100'000;
  std::uint64_t head = 0;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    if (zipf.draw(rng, kN) < 64) ++head;
  }
  const double expected = ZipfSampler::top_k_mass(64, kN, 1.1);
  const double measured =
      static_cast<double>(head) / static_cast<double>(kDraws);
  // ~6 sigma for a binomial proportion at this sample size.
  EXPECT_NEAR(measured, expected, 0.01);
}

TEST(ZipfSamplerTest, WordBoundsDrawTheSameRanksAsTheFloatingPointPath) {
  // A fixed population draws through bounded_step(), a churning one
  // through the floating-point step(). On one seed both must return the
  // same rank on every draw and leave the Rng in the same state. n runs
  // from the smallest bounded population to the largest.
  constexpr std::uint64_t kNs[] = {2,    3,    5,      64,    1000,
                                   8191, 8192, 65'535, 65'536};
  for (const double s : {0.9, 1.0, 1.1, 1.3, 1.5}) {  // 1.0: the log branch
    for (const std::uint64_t n : kNs) {
      const ZipfSampler fixed = ZipfSampler::fixed_population(s, n);
      ASSERT_EQ(fixed.bounded_ranks(), n);
      const ZipfSampler churning(s);
      Rng fixed_rng(0x51f050 + n);
      Rng churning_rng(0x51f050 + n);
      std::uint64_t mismatches = 0;
      for (int i = 0; i < 100'000; ++i) {
        if (fixed.draw(fixed_rng, n) != churning.draw(churning_rng, n)) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "s=" << s << " n=" << n;
      EXPECT_EQ(fixed_rng.next(), churning_rng.next())
          << "s=" << s << " n=" << n
          << ": the paths consumed different variates";
    }
  }
}

TEST(ZipfSamplerTest, WordBoundsMatchTheFloatingPointStepAtEveryEdge) {
  // Each word bound is where a test of step() changes its answer:
  // clear_lo and clear_end where clear_of_guard() on envelope_point()
  // does, accept_end where accepts() does. At each rank's bounds and the
  // word on either side, the stored interval must give that test's
  // answer, and bounded_step() must return step()'s rank, so a bound
  // moved by one word fails.
  constexpr std::uint64_t kEnd = ZipfSampler::kWordEnd;
  const auto around = [](std::uint64_t edge) {
    std::vector<std::uint64_t> words;
    for (const std::uint64_t w : {edge - 1, edge, edge + 1}) {
      if (w < kEnd) words.push_back(w);  // edge - 1 wraps at edge 0
    }
    return words;
  };
  for (const double s : {0.9, 1.0, 1.1, 1.3, 1.5}) {
    for (const std::uint64_t n : {2, 3, 1000, 65'536}) {
      const ZipfSampler fixed = ZipfSampler::fixed_population(s, n);
      const ZipfSampler churning(s);
      const double h_lo = fixed.envelope(0.5);
      const double h_hi = fixed.envelope(static_cast<double>(n) + 0.5);
      std::uint64_t zone_mismatches = 0;
      std::uint64_t accept_mismatches = 0;
      std::uint64_t step_mismatches = 0;
      for (std::uint64_t k = 1; k <= n; ++k) {
        const ZipfSampler::WordBounds& bounds = fixed.word_bounds(k);
        // Every cell here is far wider than its two guard zones.
        ASSERT_LT(bounds.clear_lo, bounds.clear_end) << "k=" << k;
        const double lo = fixed.envelope(static_cast<double>(k) - 0.5);
        const double hi = fixed.envelope(static_cast<double>(k) + 0.5);
        const double pk = std::pow(static_cast<double>(k), -s);
        std::vector<std::uint64_t> as = around(bounds.clear_lo);
        for (const std::uint64_t a : around(bounds.clear_end)) {
          as.push_back(a);
        }
        const std::vector<std::uint64_t> bs = around(bounds.accept_end);
        for (const std::uint64_t a : as) {
          const bool clear = bounds.clear_lo <= a && a < bounds.clear_end;
          const double u = ZipfSampler::envelope_point(h_lo, h_hi, a);
          if (clear != fixed.clear_of_guard(u, lo, hi)) ++zone_mismatches;
          for (const std::uint64_t b : bs) {
            if (fixed.bounded_step(a, b) !=
                churning.step(h_lo, h_hi, n, a, b)) {
              ++step_mismatches;
            }
          }
        }
        for (const std::uint64_t b : bs) {
          if ((b < bounds.accept_end) != ZipfSampler::accepts(b, hi - lo, pk)) {
            ++accept_mismatches;
          }
        }
      }
      EXPECT_EQ(zone_mismatches, 0u) << "s=" << s << " n=" << n;
      EXPECT_EQ(accept_mismatches, 0u) << "s=" << s << " n=" << n;
      EXPECT_EQ(step_mismatches, 0u) << "s=" << s << " n=" << n;
    }
  }
}

TEST(ZipfSamplerTest, FixedPopulationBoundsOnlyItsOwnSize) {
  // Word bounds cover only a fixed population of 2 to kMaxTableRanks
  // ranks; draw() at any other n takes the floating-point path.
  EXPECT_EQ(ZipfSampler::fixed_population(1.1, 1).bounded_ranks(), 0u);
  const ZipfSampler fixed = ZipfSampler::fixed_population(1.1, 8192);
  EXPECT_EQ(fixed.bounded_ranks(), 8192u);
  EXPECT_EQ(ZipfSampler::fixed_population(1.1, 1'048'576).bounded_ranks(),
            0u);

  const ZipfSampler plain(1.1);
  Rng fixed_rng(0x51f060);
  Rng plain_rng(0x51f060);
  for (const std::uint64_t n : {0, 1, 2, 100, 8191, 8193, 100'000}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(fixed.draw(fixed_rng, n), plain.draw(plain_rng, n))
          << "n=" << n;
    }
  }
  EXPECT_EQ(fixed_rng.next(), plain_rng.next());
}

TEST(ZipfSamplerTest, HarmonicMatchesBruteForceSum) {
  // The Euler–Maclaurin tail must agree with the exact sum well past the
  // 4096-term exact head, for every exponent the suite uses.
  for (const double s : {0.9, 1.0, 1.1, 1.3}) {
    double exact = 0.0;
    constexpr std::uint64_t kN = 100'000;
    for (std::uint64_t k = 1; k <= kN; ++k) {
      exact += std::pow(static_cast<double>(k), -s);
    }
    const double approx = ZipfSampler::harmonic(kN, s);
    EXPECT_NEAR(approx / exact, 1.0, 1e-8) << "s=" << s;
  }
}

TEST(ZipfSamplerTest, TopKMassIsMonotoneAndSkewSensitive) {
  // More head ranks always carry more mass ...
  double prev = 0.0;
  for (std::uint64_t k = 1; k <= 512; k *= 2) {
    const double mass = ZipfSampler::top_k_mass(k, 4096, 1.1);
    EXPECT_GT(mass, prev);
    prev = mass;
  }
  EXPECT_EQ(ZipfSampler::top_k_mass(4096, 4096, 1.1), 1.0);
  EXPECT_EQ(ZipfSampler::top_k_mass(9999, 4096, 1.1), 1.0);
  // ... and a heavier skew concentrates more of it in the same head.
  EXPECT_LT(ZipfSampler::top_k_mass(64, 4096, 0.9),
            ZipfSampler::top_k_mass(64, 4096, 1.1));
  EXPECT_LT(ZipfSampler::top_k_mass(64, 4096, 1.1),
            ZipfSampler::top_k_mass(64, 4096, 1.3));
}

TEST(PoissonProcessTest, InterArrivalGapsHaveExponentialMean) {
  constexpr TimeNs kMean = 1000;
  constexpr std::uint64_t kDraws = 100'000;
  Rng rng(0x90155001);
  PoissonProcess proc(kMean);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const TimeNs gap = proc.next_gap(rng);
    ASSERT_GE(gap, 1);
    sum += static_cast<double>(gap);
    sum_sq += static_cast<double>(gap) * static_cast<double>(gap);
  }
  const double mean = sum / static_cast<double>(kDraws);
  // Std error of the mean is mean/sqrt(N) ~ 3.2 ns; 20 ns is ~6 sigma.
  EXPECT_NEAR(mean, static_cast<double>(kMean), 20.0);
  // Exponential signature: the standard deviation equals the mean (a
  // fixed-gap or uniform-gap generator would flunk this immediately).
  const double var = sum_sq / static_cast<double>(kDraws) - mean * mean;
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(PoissonProcessTest, ClampsDegenerateMeansAndAdvancesTime) {
  Rng rng(0x90155002);
  PoissonProcess proc(0);  // mean clamps to 1 so time always advances
  EXPECT_EQ(proc.mean_gap_ns(), 1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(proc.next_gap(rng), 1);
  }
}

TEST(OnOffGateTest, SymmetricPhasesGiveHalfDutyCycle) {
  constexpr TimeNs kPhase = 10'000;
  Rng rng(0x00f0ff01);
  OnOffGate gate(kPhase, kPhase);
  std::uint64_t on = 0;
  constexpr std::uint64_t kSteps = 2'000'000;
  constexpr TimeNs kStep = 97;  // odd stride, no phase aliasing
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    if (gate.is_on(static_cast<TimeNs>(i) * kStep, rng)) ++on;
  }
  const double duty = static_cast<double>(on) / static_cast<double>(kSteps);
  EXPECT_NEAR(duty, 0.5, 0.05);
  // ~194 ms over ~10 us mean phases: thousands of transitions.
  EXPECT_GT(gate.transitions(), 1000u);
}

TEST(OnOffGateTest, AsymmetricPhasesGiveProportionalDutyCycle) {
  Rng rng(0x00f0ff02);
  OnOffGate gate(30'000, 10'000);  // expect ON 3/4 of the time
  std::uint64_t on = 0;
  constexpr std::uint64_t kSteps = 2'000'000;
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    if (gate.is_on(static_cast<TimeNs>(i) * 97, rng)) ++on;
  }
  const double duty = static_cast<double>(on) / static_cast<double>(kSteps);
  EXPECT_NEAR(duty, 0.75, 0.05);
}

TEST(OnOffGateTest, StartsOnAndTogglesDeterministically) {
  Rng rng1(0x00f0ff03);
  Rng rng2(0x00f0ff03);
  OnOffGate a(5'000, 5'000);
  OnOffGate b(5'000, 5'000);
  EXPECT_TRUE(a.is_on(0, rng1));  // first poll opens the gate
  EXPECT_TRUE(b.is_on(0, rng2));
  for (TimeNs t = 0; t < 200'000; t += 131) {
    EXPECT_EQ(a.is_on(t, rng1), b.is_on(t, rng2)) << "t=" << t;
  }
  EXPECT_EQ(a.transitions(), b.transitions());
}

TEST(RngTest, NextDoubleIsUniformInUnitInterval) {
  Rng rng(0xd0b1e);
  double sum = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.005);
}

}  // namespace
}  // namespace hw
