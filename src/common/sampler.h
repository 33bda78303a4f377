#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

/// \file sampler.h
/// Random-variate samplers for the workload library: Zipfian rank
/// selection, Poisson arrival processes, and ON-OFF burst gating. The
/// Poisson and ON-OFF state is O(1); the Zipf sampler may cache 20 B per
/// rank for the hottest ranks, capped at 1.25 MB, so a generator can
/// offer millions of distinct flows without per-flow state. Every
/// sampler draws from an explicit Rng, so runs are bit-for-bit
/// reproducible.

namespace hw {

/// Samples ranks in [0, n) with P(rank k) proportional to (k+1)^-s — an
/// exact Zipf(s) draw via rejection from the integral envelope
/// H(x) = ((x^(1-s)) - 1) / (1-s)  (ln x when s == 1).
///
/// By convexity of x^-s, the envelope mass of the unit cell around k,
/// q_k = H(k+0.5) - H(k-0.5), satisfies q_k >= k^-s, so accepting a
/// candidate k with probability k^-s / q_k yields the exact Zipf pmf.
/// Acceptance is > 70% for all s in (0, 2], and `n` may differ on every
/// call (needed when the active flow set churns).
///
/// Each rejection step draws u uniformly from the envelope's range and
/// proposes the rank whose cell [H(k-0.5), H(k+0.5)) holds it,
/// envelope_rank(): round(H^-1(u)), one pow (exp when s == 1), plus two
/// more for q_k and one for k^-s.
///
/// Given a population bound, the constructor tabulates the ranks up to
/// min(bound, kMaxTableRanks) so a step inside them costs no pow:
/// - H(k+0.5) and k^-s, 16 B per rank. Each entry is the expression
///   draw() would otherwise evaluate, on the same input, so it is the same
///   double.
/// - A guide table, 4 B per rank: the range of H over the table split
///   into one equal slot per rank, each holding the rank of the slot's
///   lowest u or the one below it. propose() jumps to u's slot and steps
///   forward to its cell, under one step on average (u is uniform in H,
///   and there are as many slots as cells).
///
/// The pow path and the cell bounds round independently, so within a few
/// ulps of a bound they can name neighbouring ranks. propose() therefore
/// answers from the guide table only when u lies more than guard_ (2^-36
/// of the table's scale, see build_guide()) inside its cell, and from
/// envelope_rank() otherwise, and when u lies past the table. Ranks drawn
/// with and without the table are identical, draw for draw.
class ZipfSampler {
 public:
  /// Ranks tabulated at most: 65,536 ranks, 1.25 MB.
  static constexpr std::uint64_t kMaxTableRanks = 65'536;

  /// Tabulates ranks up to min(max_n, kMaxTableRanks); pass the largest
  /// n draw() will see, or 0 for no table. draw() accepts any n either way.
  explicit ZipfSampler(double s, std::uint64_t max_n = 0) : s_(s) {
    const std::uint64_t ranks =
        max_n < kMaxTableRanks ? max_n : kMaxTableRanks;
    if (ranks == 0) return;
    table_.resize(ranks + 1);
    table_[0].h_hi = envelope(0.5);
    for (std::uint64_t k = 1; k <= ranks; ++k) {
      table_[k].h_hi = envelope(static_cast<double>(k) + 0.5);
      table_[k].p = std::pow(static_cast<double>(k), -s_);
    }
    build_guide();
  }

  [[nodiscard]] double s() const noexcept { return s_; }
  /// Ranks covered by the table (0 = untabulated).
  [[nodiscard]] std::uint64_t table_ranks() const noexcept {
    return table_.empty() ? 0 : table_.size() - 1;
  }

  /// Draws a rank in [0, n). Rank 0 is the most popular. n == 0 returns 0.
  [[nodiscard]] std::uint64_t draw(Rng& rng, std::uint64_t n) const noexcept {
    if (n <= 1) return 0;
    const std::uint64_t tabulated = table_ranks();
    const double h_lo = tabulated != 0 ? table_[0].h_hi : envelope(0.5);
    const double h_hi = n <= tabulated
                            ? table_[n].h_hi
                            : envelope(static_cast<double>(n) + 0.5);
    for (;;) {
      const double u = h_lo + rng.next_double() * (h_hi - h_lo);
      const std::uint64_t k = propose(u, n);
      double qk;
      double pk;
      if (k <= tabulated) {
        // (k-1)+0.5 == k-0.5 exactly for any k below 2^52.
        qk = table_[k].h_hi - table_[k - 1].h_hi;
        pk = table_[k].p;
      } else {
        qk = envelope(static_cast<double>(k) + 0.5) -
             envelope(static_cast<double>(k) - 0.5);
        pk = std::pow(static_cast<double>(k), -s_);
      }
      if (rng.next_double() * qk <= pk) return k - 1;
    }
  }

  /// The rank in [1, n] that draw() proposes for the envelope value u:
  /// the guide table's cell when u lies more than guard_ inside it and
  /// the cell is at most n, envelope_rank(u, n) otherwise. The two agree
  /// wherever the guide answers.
  [[nodiscard]] std::uint64_t propose(double u,
                                      std::uint64_t n) const noexcept {
    if (u < guide_hi_) {
      std::uint64_t k = guide_[guide_slot(u)];
      // Ends inside the table: table_.back().h_hi > guide_hi_ > u.
      while (table_[k].h_hi <= u) ++k;
      if (u - table_[k - 1].h_hi >= guard_ && table_[k].h_hi - u > guard_ &&
          k <= n) {
        return k;
      }
    }
    return envelope_rank(u, n);
  }

  /// round(H^-1(u)) clamped to [1, n] (n >= 1): the proposal without a
  /// table, one pow (exp when s == 1).
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

  /// Fills the guide table over table_'s cell bounds; see the class
  /// comment.
  void build_guide() {
    const std::size_t ranks = table_.size() - 1;
    const double lo = table_[0].h_hi;
    const double hi = table_[ranks].h_hi;
    guide_scale_ = static_cast<double>(ranks) / (hi - lo);
    // Both paths err by a few ulps of max(|u|, 1/|1-s|): H^-1 raises
    // 1 + u(1-s) to 1/(1-s), which scales that sum's rounding by
    // 1/|1-s|. The guard is 2^16 such ulps. At 65,536 ranks and s from
    // 0.3 to 1.9 the paths disagreed at most 7 ulps from a bound, under
    // 2e-5 of the guard.
    const double scale =
        std::max(std::fabs(lo), std::fabs(hi)) +
        (s_ == 1.0 ? 1.0 : 1.0 / std::fabs(1.0 - s_));
    guard_ = scale * 0x1p-36;
    guide_hi_ = hi - guard_;
    guide_.resize(ranks);
    std::uint32_t k = 1;
    for (std::size_t slot = 0; slot < ranks; ++slot) {
      // Cell k + 1 starts at table_[k].h_hi. Stop at the last cell that
      // starts in an earlier slot: no u in this slot lies below it.
      while (k < ranks && guide_slot(table_[k].h_hi) < slot) ++k;
      guide_[slot] = k;
    }
  }

  /// The guide slot of u, monotone in u, clamped before the cast.
  [[nodiscard]] std::size_t guide_slot(double u) const noexcept {
    const double slot = (u - table_[0].h_hi) * guide_scale_;
    if (!(slot > 0.0)) return 0;
    const std::size_t last = guide_.size() - 1;
    return slot < static_cast<double>(last) ? static_cast<std::size_t>(slot)
                                            : last;
  }


  struct Rank {
    double h_hi = 0.0;  ///< H(k + 0.5)
    double p = 0.0;     ///< k^-s (unused at k = 0)
  };

  double s_;
  std::vector<Rank> table_;  ///< ranks 0..table_ranks(); empty = untabulated
  /// Per guide slot, the last rank whose cell starts in an earlier slot
  /// (1 for slot 0): no u in the slot lies in a lower cell.
  std::vector<std::uint32_t> guide_;
  double guide_scale_ = 0.0;  ///< guide slots per unit of H
  double guard_ = 0.0;
  /// Past this u, the guide table does not answer (-inf: no table).
  double guide_hi_ = -std::numeric_limits<double>::infinity();
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
