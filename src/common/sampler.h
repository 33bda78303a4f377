#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

/// \file sampler.h
/// Random-variate samplers for the workload library: Zipfian rank
/// selection, Poisson arrival processes, and ON-OFF burst gating. The
/// Poisson and ON-OFF state is O(1); a Zipf sampler for a fixed
/// population keeps 24 B of word bounds per rank, at most 65,536 ranks,
/// and one for a churning or larger population keeps none, so a
/// generator can offer millions of distinct flows without per-flow state.
/// Every sampler draws from an explicit Rng, so runs are bit-for-bit
/// reproducible.

namespace hw {

/// Samples ranks in [0, n) with P(rank k) proportional to (k+1)^-s — an
/// exact Zipf(s) draw via rejection from the integral envelope
/// H(x) = ((x^(1-s)) - 1) / (1-s)  (ln x when s == 1).
///
/// By convexity of x^-s, the envelope mass of the unit cell around k,
/// q_k = H(k+0.5) - H(k-0.5), satisfies q_k >= k^-s, so accepting a
/// candidate k with probability k^-s / q_k yields the exact Zipf pmf.
/// Acceptance is > 70% for all s in (0, 2].
///
/// A rejection step reads two 53-bit words, a and b, the top bits of two
/// Rng::next() calls. It proposes the rank whose cell [H(k-0.5), H(k+0.5))
/// holds u = envelope_point(a), and accepts it when b / 2^53 * q_k <= k^-s
/// (accepts()). step() takes it in floating point, for any n, as a
/// churning population needs: envelope_rank() proposes round(H^-1(u)),
/// one pow (exp when s == 1), plus two more for q_k and one for k^-s.
///
/// fixed_population() serves a population whose size never changes, up
/// to kMaxTableRanks ranks, with word bounds: per rank k, the a whose u
/// lies more than a guard zone inside k's cell (clear_of_guard()),
/// [clear_lo, clear_end), and the b that accept k, [0, accept_end). u,
/// both guard tests and the acceptance test are monotone in the words, so
/// each set is an interval, and the build finds its ends by searching the
/// very functions step() evaluates. bounded_step() then costs shifts, one
/// load from a guide over the words and integer compares. The cell bounds
/// and envelope_rank()'s H^-1 round independently, so within a few ulps of
/// a bound they can name neighbouring ranks: an a in a guard zone still
/// asks envelope_rank(). 24 B per rank and at most 2 B of guide.
///
/// Ranks drawn with and without the word bounds are identical, draw for
/// draw, and leave the Rng in the same state.
class ZipfSampler {
 public:
  /// Ranks a fixed population's word bounds cover at most: 65,536 ranks,
  /// 1.63 MB.
  static constexpr std::uint64_t kMaxTableRanks = 65'536;
  /// One past the largest 53-bit word.
  static constexpr std::uint64_t kWordEnd = std::uint64_t{1} << 53;

  /// Draws every rank in floating point; draw() accepts any n.
  explicit ZipfSampler(double s) noexcept : s_(s) {}

  /// For a population of exactly n: word bounds when 2 <= n <=
  /// kMaxTableRanks, else ZipfSampler(s). draw() still accepts any n;
  /// only n itself takes the bounds.
  [[nodiscard]] static ZipfSampler fixed_population(double s,
                                                    std::uint64_t n) {
    ZipfSampler zipf(s);
    if (n >= 2 && n <= kMaxTableRanks) zipf.build_bounds(n);
    return zipf;
  }

  [[nodiscard]] double s() const noexcept { return s_; }
  /// The population the word bounds cover (0 = none).
  [[nodiscard]] std::uint64_t bounded_ranks() const noexcept {
    return bounded_n_;
  }

  /// Draws a rank in [0, n). Rank 0 is the most popular. n == 0 returns 0.
  [[nodiscard]] std::uint64_t draw(Rng& rng, std::uint64_t n) const noexcept {
    if (n <= 1) return 0;
    if (n == bounded_n_) {
      for (;;) {
        const std::uint64_t a = word(rng);
        const std::uint64_t b = word(rng);
        if (const std::uint64_t k = bounded_step(a, b)) return k - 1;
      }
    }
    const double h_lo = envelope(0.5);
    const double h_hi = envelope(static_cast<double>(n) + 0.5);
    for (;;) {
      const std::uint64_t a = word(rng);
      const std::uint64_t b = word(rng);
      if (const std::uint64_t k = step(h_lo, h_hi, n, a, b)) return k - 1;
    }
  }

  /// One rejection step in floating point over ranks [1, n], whose
  /// envelope runs from h_lo = H(0.5) to h_hi = H(n + 0.5): the rank
  /// proposed for word a if word b accepts it, else 0.
  [[nodiscard]] std::uint64_t step(double h_lo, double h_hi, std::uint64_t n,
                                   std::uint64_t a,
                                   std::uint64_t b) const noexcept {
    const std::uint64_t k = envelope_rank(envelope_point(h_lo, h_hi, a), n);
    const double qk = envelope(static_cast<double>(k) + 0.5) -
                      envelope(static_cast<double>(k) - 0.5);
    const double pk = std::pow(static_cast<double>(k), -s_);
    return accepts(b, qk, pk) ? k : 0;
  }

  /// step() at n = bounded_ranks(), on the word bounds: the same rank,
  /// or 0, for every pair of words.
  [[nodiscard]] std::uint64_t bounded_step(std::uint64_t a,
                                           std::uint64_t b) const noexcept {
    std::size_t i = word_guide_[a >> word_shift_];
    while (bounds_[i].clear_end <= a) ++i;  // the sentinel ends the walk
    std::uint64_t k = i + 1;
    if (a < bounds_[i].clear_lo) {  // a guard zone, or past the last rank
      k = envelope_rank(envelope_point(h_lo_, h_hi_, a), bounded_n_);
    }
    return b < bounds_[k - 1].accept_end ? k : 0;
  }

  /// round(H^-1(u)) clamped to [1, n] (n >= 1): step()'s proposal, one
  /// pow (exp when s == 1).
  [[nodiscard]] std::uint64_t envelope_rank(double u,
                                            std::uint64_t n) const noexcept {
    const double x = envelope_inverse(u) + 0.5;
    // Clamp while still a double: casting NaN, a negative or a value of
    // 2^64 or more to an integer is undefined.
    if (!(x >= 1.0)) return 1;
    if (x >= 0x1p64) return n;
    const auto k = static_cast<std::uint64_t>(x);
    return k < n ? k : n;
  }

  /// Whether u lies more than guard_ inside the cell [lo, hi): what the
  /// word bounds tabulate.
  [[nodiscard]] bool clear_of_guard(double u, double lo,
                                    double hi) const noexcept {
    return clear_above(u, lo) && clear_below(u, hi);
  }

  /// The envelope value that step() proposes from for word a:
  /// h_lo + (a / 2^53)(h_hi - h_lo), where a / 2^53 is the double
  /// Rng::next_double() returns for the same next().
  [[nodiscard]] static double envelope_point(double h_lo, double h_hi,
                                             std::uint64_t a) noexcept {
    return h_lo + unit(a) * (h_hi - h_lo);
  }

  /// step()'s acceptance test for word b, rank mass qk and weight pk.
  [[nodiscard]] static bool accepts(std::uint64_t b, double qk,
                                    double pk) noexcept {
    return unit(b) * qk <= pk;
  }

  /// Rank k's word bounds, 1 <= k <= bounded_ranks(): an a in
  /// [clear_lo, clear_end) proposes k without envelope_rank(), a b below
  /// accept_end accepts k. clear_lo is kNever when no a is clear.
  struct WordBounds {
    std::uint64_t clear_lo = 0;
    std::uint64_t clear_end = 0;
    std::uint64_t accept_end = 0;
  };
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  [[nodiscard]] const WordBounds& word_bounds(std::uint64_t k) const noexcept {
    return bounds_[k - 1];
  }

  /// Analytic generalized harmonic number H_{n,s} = sum_{k=1..n} k^-s.
  /// O(min(n, 4096)) exact head plus an Euler–Maclaurin tail; used by the
  /// statistical tests and the bench smoke gates for expected top-k mass.
  [[nodiscard]] static double harmonic(std::uint64_t n, double s) noexcept {
    if (n == 0) return 0.0;
    constexpr std::uint64_t kExactHead = 4096;
    const std::uint64_t head = n < kExactHead ? n : kExactHead;
    double sum = 0.0;
    for (std::uint64_t k = 1; k <= head; ++k) {
      sum += std::pow(static_cast<double>(k), -s);
    }
    if (head < n) {
      // Euler–Maclaurin: integral + boundary correction, error O(head^-s-2).
      const double a = static_cast<double>(head);
      const double b = static_cast<double>(n);
      double integral;
      if (s == 1.0) {
        integral = std::log(b / a);
      } else {
        integral = (std::pow(b, 1.0 - s) - std::pow(a, 1.0 - s)) / (1.0 - s);
      }
      sum += integral +
             0.5 * (std::pow(b, -s) - std::pow(a, -s));
    }
    return sum;
  }

  /// Fraction of offered load carried by the k most popular of n flows.
  [[nodiscard]] static double top_k_mass(std::uint64_t k, std::uint64_t n,
                                         double s) noexcept {
    if (n == 0) return 0.0;
    if (k >= n) return 1.0;
    return harmonic(k, s) / harmonic(n, s);
  }

  /// The envelope H(x); H(k + 0.5) bounds the cells of ranks k and k + 1.
  [[nodiscard]] double envelope(double x) const noexcept {
    if (s_ == 1.0) return std::log(x);
    return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
  }

 private:
  [[nodiscard]] double envelope_inverse(double h) const noexcept {
    if (s_ == 1.0) return std::exp(h);
    return std::pow(1.0 + h * (1.0 - s_), 1.0 / (1.0 - s_));
  }

  /// The top 53 bits of the next Rng word.
  [[nodiscard]] static std::uint64_t word(Rng& rng) noexcept {
    return rng.next() >> 11;
  }
  /// Word w as a double in [0, 1), exact.
  [[nodiscard]] static double unit(std::uint64_t w) noexcept {
    return static_cast<double>(w) * 0x1.0p-53;
  }

  /// clear_of_guard()'s two halves; each is monotone in u.
  [[nodiscard]] bool clear_above(double u, double lo) const noexcept {
    return u - lo >= guard_;
  }
  [[nodiscard]] bool clear_below(double u, double hi) const noexcept {
    return hi - u > guard_;
  }

  /// Sets guard_ for cell bounds running from lo to hi. The cell bounds
  /// and envelope_rank() each err by a few ulps of max(|u|, 1/|1-s|): H^-1
  /// raises 1 + u(1-s) to 1/(1-s), which scales that sum's rounding by
  /// 1/|1-s|. The guard is 2^16 such ulps. At 65,536 ranks and s from 0.3
  /// to 1.9 the two disagreed at most 7 ulps from a bound, under 2e-5 of
  /// the guard.
  void set_guard(double lo, double hi) noexcept {
    const double scale =
        std::max(std::fabs(lo), std::fabs(hi)) +
        (s_ == 1.0 ? 1.0 : 1.0 / std::fabs(1.0 - s_));
    guard_ = scale * 0x1p-36;
  }

  /// Builds the word bounds of ranks [1, n], 2 <= n <= kMaxTableRanks;
  /// see the class comment.
  void build_bounds(std::uint64_t n) {
    bounded_n_ = n;
    h_lo_ = envelope(0.5);
    h_hi_ = envelope(static_cast<double>(n) + 0.5);
    set_guard(h_lo_, h_hi_);
    const auto u_of = [this](std::uint64_t a) {
      return envelope_point(h_lo_, h_hi_, a);
    };
    // Where u reaches x in exact arithmetic: the searches' first guess.
    const double words_per_unit = 0x1p53 / (h_hi_ - h_lo_);
    const auto word_near = [&](double x) {
      return clamp_word((x - h_lo_) * words_per_unit);
    };
    bounds_.resize(n + 1);
    double lo = h_lo_;
    std::uint64_t prev_end = 0;
    for (std::uint64_t k = 1; k <= n; ++k) {
      const double hi = envelope(static_cast<double>(k) + 0.5);
      const double qk = hi - lo;
      const double pk = std::pow(static_cast<double>(k), -s_);
      WordBounds& w = bounds_[k - 1];
      w.clear_lo = first_word(word_near(lo + guard_), [&](std::uint64_t a) {
        return clear_above(u_of(a), lo);
      });
      w.clear_end = first_word(word_near(hi - guard_), [&](std::uint64_t a) {
        return !clear_below(u_of(a), hi);
      });
      // Zones never overlap, so the walk in bounded_step() meets them in
      // order; an empty one keeps the previous end and is never entered.
      w.clear_lo = std::max(w.clear_lo, prev_end);
      if (w.clear_lo >= w.clear_end) {
        w.clear_lo = kNever;
        w.clear_end = prev_end;
      }
      w.accept_end = first_word(clamp_word(pk / qk * 0x1p53),
                                [&](std::uint64_t b) {
                                  return !accepts(b, qk, pk);
                                });
      prev_end = w.clear_end;
      lo = hi;
    }
    bounds_[n] = {kNever, kNever, 0};
    // One guide slot per 2^word_shift_ words, between n/2 and n slots.
    const std::uint64_t slots = std::bit_floor(n);
    word_shift_ = 53 - static_cast<unsigned>(std::countr_zero(slots));
    word_guide_.resize(slots);
    std::size_t i = 0;
    for (std::uint64_t slot = 0; slot < slots; ++slot) {
      while (bounds_[i].clear_end <= (slot << word_shift_)) ++i;
      // At most n - 1 (fits 16 bits): the walk steps on to the sentinel.
      word_guide_[slot] = static_cast<std::uint16_t>(std::min(i, n - 1));
    }
  }

  /// x rounded down to a word in [0, kWordEnd], clamped while still a
  /// double (casting NaN, a negative or a value past the range to an
  /// integer is undefined).
  [[nodiscard]] static std::uint64_t clamp_word(double x) noexcept {
    if (!(x > 0.0)) return 0;
    if (x >= 0x1p53) return kWordEnd;
    return static_cast<std::uint64_t>(x);
  }

  /// The least word w in [0, kWordEnd] with past(w), for a past() that is
  /// false up to some word and true from it on (kWordEnd: true at none).
  /// Gallops out from `guess`, then bisects, so a guess a few words off
  /// costs a few calls.
  template <typename Past>
  [[nodiscard]] static std::uint64_t first_word(std::uint64_t guess,
                                                Past past) {
    guess = std::min(guess, kWordEnd - 1);
    std::uint64_t lo = 0;         // past() is false below lo
    std::uint64_t hi = kWordEnd;  // past(hi) holds, or hi == kWordEnd
    if (past(guess)) {
      hi = guess;
      for (std::uint64_t stride = 1; hi > 0; stride *= 2) {
        const std::uint64_t w = hi > stride ? hi - stride : 0;
        if (!past(w)) {
          lo = w + 1;
          break;
        }
        hi = w;
      }
    } else {
      lo = guess + 1;
      for (std::uint64_t stride = 1; lo < kWordEnd; stride *= 2) {
        const std::uint64_t w = std::min(lo + stride - 1, kWordEnd - 1);
        if (past(w)) {
          hi = w;
          break;
        }
        lo = w + 1;
      }
    }
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (past(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  double s_;
  double guard_ = 0.0;           ///< see set_guard()
  std::uint64_t bounded_n_ = 0;  ///< 0: no word bounds
  double h_lo_ = 0.0;            ///< H(0.5)
  double h_hi_ = 0.0;            ///< H(bounded_n_ + 0.5)
  /// Rank k's bounds at k - 1, then a sentinel whose zone never ends.
  std::vector<WordBounds> bounds_;
  /// Per slot of 2^word_shift_ words, the index of the first zone that
  /// ends past the slot's first word, capped at n - 1.
  std::vector<std::uint16_t> word_guide_;
  unsigned word_shift_ = 0;
};

/// Homogeneous Poisson process: exponentially distributed inter-arrival
/// gaps with the configured mean (virtual nanoseconds).
class PoissonProcess {
 public:
  explicit PoissonProcess(TimeNs mean_gap_ns) noexcept
      : mean_gap_ns_(mean_gap_ns < 1 ? 1 : mean_gap_ns) {}

  /// Draws the gap to the next arrival (>= 1 ns so time always advances).
  [[nodiscard]] TimeNs next_gap(Rng& rng) const noexcept {
    // Inverse CDF; 1-u avoids log(0).
    const double u = rng.next_double();
    const double gap =
        -static_cast<double>(mean_gap_ns_) * std::log(1.0 - u);
    if (gap < 1.0) return 1;
    constexpr double kMaxGap = 9.0e18;
    if (gap > kMaxGap) return static_cast<TimeNs>(kMaxGap);
    return static_cast<TimeNs>(gap);
  }

  [[nodiscard]] TimeNs mean_gap_ns() const noexcept { return mean_gap_ns_; }

 private:
  TimeNs mean_gap_ns_;
};

/// Two-state ON-OFF gate with exponentially distributed phase durations
/// (the classic interrupted-Poisson burst model). Advance with the current
/// virtual time; `is_on` consumes no randomness unless a phase expired.
class OnOffGate {
 public:
  OnOffGate(TimeNs on_mean_ns, TimeNs off_mean_ns) noexcept
      : on_(on_mean_ns), off_(off_mean_ns) {}

  /// Advances phase state to `now` and reports whether the gate is open.
  [[nodiscard]] bool is_on(TimeNs now, Rng& rng) noexcept {
    if (phase_end_ == 0) {  // first call: start in the ON phase
      on_now_ = true;
      phase_end_ = now + on_.next_gap(rng);
      ++transitions_;
    }
    while (phase_end_ <= now) {
      on_now_ = !on_now_;
      phase_end_ += (on_now_ ? on_ : off_).next_gap(rng);
      ++transitions_;
    }
    return on_now_;
  }

  [[nodiscard]] std::uint64_t transitions() const noexcept {
    return transitions_;
  }

 private:
  PoissonProcess on_;
  PoissonProcess off_;
  TimeNs phase_end_ = 0;
  bool on_now_ = false;
  std::uint64_t transitions_ = 0;
};

}  // namespace hw
