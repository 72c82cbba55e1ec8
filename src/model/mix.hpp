// mix.hpp — the competing-application workload mix and its Poisson-binomial
// concurrency probabilities (pcomp_i / pcomm_i).
//
// §3.2.1: each of the p competing applications alternates computing and
// communicating; app k communicates a fraction f_k of the time. pcomm_i is
// the probability that exactly i of them are communicating simultaneously
// (and pcomp_i that exactly i are computing) — a Poisson-binomial
// distribution over the f_k. The paper's complexity claims are implemented
// literally: the full build is O(p²) dynamic programming, adding an
// application is O(p), and removal triggers an O(p²) regeneration (with an
// O(p) in-place deconvolution fast path when it is numerically safe).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace contend::model {

/// One application competing with the task being predicted.
struct CompetingApp {
  /// Fraction of time spent communicating with the back-end, in [0, 1].
  /// The application computes the remaining 1 - commFraction.
  double commFraction = 0.0;
  /// Message size it transfers, used to select the j bin of
  /// delay_comm^{i,j} ("j should reflect the maximum message size used in
  /// the system"). Zero for purely CPU-bound applications.
  Words messageWords = 0;
  /// Fraction of time spent in disk I/O (the §4 extension's third
  /// dimension), in [0, 1 - commFraction]. The application computes the
  /// remaining 1 - commFraction - ioFraction.
  double ioFraction = 0.0;
  /// Disk requests per I/O cycle; selects nothing today but is part of the
  /// application's identity (mix signatures and journal records carry it).
  /// Zero for applications that perform no I/O.
  std::int64_t ioOps = 0;
};

class WorkloadMix {
 public:
  WorkloadMix() = default;
  explicit WorkloadMix(std::span<const CompetingApp> apps);

  /// Adds an application, updating both distributions in O(p).
  void add(const CompetingApp& app);

  /// Removes the application at `index`. Tries the O(p) polynomial
  /// deconvolution first, in place and without allocating; falls back to
  /// the O(p²) rebuild, matching the paper's stated O(p²) bound, when a
  /// check rejects it. The pivots are 1 - f (comm), f + g (compute) and
  /// 1 - g (I/O), and each must be at least 0.25; then every quotient
  /// coefficient must stay within 1e-9 of [0, 1] and the dropped top
  /// coefficient must match. With the serving benchmark's apps (f in
  /// [0.05, 0.6], 40% with g in [0.05, 0.3]) at p = 97, 58% of removals
  /// fall back: 25% at the compute pivot (f + g < 0.25), 32% at the range
  /// or top check.
  void removeAt(std::size_t index);

  /// Number of competing applications (the paper's p).
  [[nodiscard]] int p() const { return static_cast<int>(apps_.size()); }
  [[nodiscard]] std::span<const CompetingApp> apps() const { return apps_; }

  /// P[exactly i of the p apps are communicating], 0 <= i <= p.
  [[nodiscard]] double pcomm(int i) const;
  /// P[exactly i of the p apps are computing], 0 <= i <= p.
  [[nodiscard]] double pcomp(int i) const;
  /// P[exactly i of the p apps are doing disk I/O], 0 <= i <= p. Exactly
  /// {1, 0, ..., 0} while no application has an I/O fraction, so the I/O
  /// terms vanish bit-exactly from mixes that predate the extension.
  [[nodiscard]] double pio(int i) const;

  /// Largest message size among competing apps (0 if none communicate).
  [[nodiscard]] Words maxMessageWords() const;

  /// Rebuilds all three distributions from scratch (O(p²)), bit for bit
  /// what add() would give for the same apps; exposed for tests and for
  /// the overhead benchmark of the paper's complexity claims.
  void rebuild();

  /// Raw Poisson-binomial coefficient vectors, both sized p + 1
  /// (commCoefficients()[i] == pcomm(i)). Exposed so a serving-layer
  /// checkpoint can carry the distributions verbatim: a rebuild() from the
  /// app list alone can differ from the live state in final ulps once
  /// removals have gone through the deconvolution fast path, and crash
  /// recovery promises bit-identical slowdowns.
  [[nodiscard]] std::span<const double> commCoefficients() const {
    return commPoly_;
  }
  [[nodiscard]] std::span<const double> compCoefficients() const {
    return compPoly_;
  }
  [[nodiscard]] std::span<const double> ioCoefficients() const {
    return ioPoly_;
  }

  /// Restores an exact prior state captured via apps() plus the coefficient
  /// accessors above. Throws std::invalid_argument when the coefficient
  /// vectors are not sized p + 1, carry non-finite values, or any app is
  /// invalid.
  void restore(std::vector<CompetingApp> apps, std::vector<double> commPoly,
               std::vector<double> compPoly, std::vector<double> ioPoly);

 private:
  static void convolve(std::vector<double>& coeff, double q);

  std::vector<CompetingApp> apps_;
  // commPoly_[i] = pcomm_i, compPoly_[i] = pcomp_i, ioPoly_[i] = pio_i;
  // all sized p + 1.
  std::vector<double> commPoly_{1.0};
  std::vector<double> compPoly_{1.0};
  std::vector<double> ioPoly_{1.0};
};

}  // namespace contend::model
