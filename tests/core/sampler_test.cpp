#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
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
  // At n = 1M the rank table is capped, so draws mix tabulated and inline
  // ranks, as in the 1M-flow bench config: the fraction of draws landing
  // in the top-64 ranks must match the analytic top-k mass (the same
  // quantity the smoke gate bounds).
  constexpr std::uint64_t kN = 1'000'000;
  Rng rng(0x51f020);
  ZipfSampler zipf(1.1, kN);
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

TEST(ZipfSamplerTest, RankTableLeavesEveryDrawUnchanged) {
  // Each table entry is the expression draw() evaluates inline, on the
  // same input, so a tabulated and an untabulated sampler on the same
  // stream must return the same rank on every draw. n runs below, at and
  // above the table, so draws cross from tabulated to inline ranks.
  constexpr std::uint64_t kTable = 1000;
  constexpr std::uint64_t kNs[] = {300, kTable, 4 * kTable};
  constexpr std::uint64_t kDraws = 1'000'000;
  for (const double s : {0.9, 1.0, 1.1, 1.3}) {  // 1.0 takes the log branch
    const ZipfSampler plain(s);
    const ZipfSampler tabulated(s, kTable);
    ASSERT_EQ(tabulated.table_ranks(), kTable);
    Rng plain_rng(0x51f030);
    Rng table_rng(0x51f030);
    std::uint64_t mismatches = 0;
    for (std::uint64_t i = 0; i < kDraws; ++i) {
      const std::uint64_t n = kNs[i % 3];
      if (plain.draw(plain_rng, n) != tabulated.draw(table_rng, n)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "s=" << s;
    EXPECT_EQ(plain_rng.next(), table_rng.next())
        << "s=" << s << ": the samplers consumed different variates";
  }
}

TEST(ZipfSamplerTest, GuideLookupMatchesThePowPathAtEveryCellBound) {
  // propose() answers from the guide table only well inside a cell. At a
  // bound the tabulated H(k+0.5) and the pow path's H^-1 round
  // independently and can name neighbouring ranks, so there it must
  // defer to envelope_rank(). Checked at every bound of an 8,192-rank
  // table and the doubles on either side of it, for n at, below and
  // above the table, plus uniform points that mostly take the guide.
  constexpr std::uint64_t kTable = 8192;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double s : {0.9, 1.0, 1.1, 1.3}) {  // 1.0 takes the log branch
    const ZipfSampler zipf(s, kTable);
    ASSERT_EQ(zipf.table_ranks(), kTable);
    for (const std::uint64_t n : {kTable, kTable / 3, 4 * kTable}) {
      std::uint64_t mismatches = 0;
      for (std::uint64_t k = 0; k <= kTable; ++k) {
        const double bound = zipf.envelope(static_cast<double>(k) + 0.5);
        for (const double u : {std::nextafter(bound, -kInf), bound,
                               std::nextafter(bound, kInf)}) {
          if (zipf.propose(u, n) != zipf.envelope_rank(u, n)) ++mismatches;
        }
      }
      const double lo = zipf.envelope(0.5);
      const double hi = zipf.envelope(static_cast<double>(n) + 0.5);
      Rng rng(0x51f040);
      for (int i = 0; i < 200'000; ++i) {
        const double u = lo + rng.next_double() * (hi - lo);
        if (zipf.propose(u, n) != zipf.envelope_rank(u, n)) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u) << "s=" << s << " n=" << n;
    }
  }
}

TEST(ZipfSamplerTest, RankTableIsOptionalAndCapped) {
  EXPECT_EQ(ZipfSampler(1.1).table_ranks(), 0u);
  EXPECT_EQ(ZipfSampler(1.1, 8192).table_ranks(), 8192u);
  EXPECT_EQ(ZipfSampler(1.1, 1'048'576).table_ranks(),
            ZipfSampler::kMaxTableRanks);
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
