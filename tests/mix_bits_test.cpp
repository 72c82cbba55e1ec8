// Bit-identity of the mix kernel: WorkloadMix's add/removeAt/rebuild must
// produce exactly the coefficient bits of the original scalar kernel, which
// is frozen below. Crash recovery, replication and the scenario outcomes
// all carry or depend on these bits, so a faster kernel may not move any
// of them, not even in the last ulp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/mix.hpp"
#include "util/rng.hpp"

namespace contend {
namespace {

using model::CompetingApp;

/// The original kernel: in-place scalar convolution, copy-and-divide
/// removal with a verified fast path, and a rebuild that convolves every
/// factor. Do not "improve" it; it is the reference the real kernel is
/// held to.
class FrozenMix {
 public:
  void add(const CompetingApp& app) {
    apps_.push_back(app);
    convolve(comm_, app.commFraction);
    convolve(comp_, 1.0 - app.commFraction - app.ioFraction);
    convolve(io_, app.ioFraction);
  }

  void removeAt(std::size_t index) {
    const double f = apps_[index].commFraction;
    const double g = apps_[index].ioFraction;
    apps_.erase(apps_.begin() + static_cast<std::ptrdiff_t>(index));
    std::vector<double> comm = comm_;
    std::vector<double> comp = comp_;
    std::vector<double> io = io_;
    if (tryDeconvolve(comm, f) && tryDeconvolve(comp, 1.0 - f - g) &&
        tryDeconvolve(io, g)) {
      comm_ = std::move(comm);
      comp_ = std::move(comp);
      io_ = std::move(io);
      return;
    }
    rebuild();
  }

  void rebuild() {
    comm_.assign(1, 1.0);
    comp_.assign(1, 1.0);
    io_.assign(1, 1.0);
    for (const CompetingApp& app : apps_) {
      convolve(comm_, app.commFraction);
      convolve(comp_, 1.0 - app.commFraction - app.ioFraction);
      convolve(io_, app.ioFraction);
    }
  }

  [[nodiscard]] const std::vector<double>& comm() const { return comm_; }
  [[nodiscard]] const std::vector<double>& comp() const { return comp_; }
  [[nodiscard]] const std::vector<double>& io() const { return io_; }

 private:
  static void convolve(std::vector<double>& coeff, double q) {
    coeff.push_back(0.0);
    for (std::size_t i = coeff.size(); i-- > 0;) {
      coeff[i] = coeff[i] * (1.0 - q) + (i > 0 ? coeff[i - 1] * q : 0.0);
    }
  }

  static bool tryDeconvolve(std::vector<double>& coeff, double q) {
    constexpr double kMinPivot = 0.25;
    if (1.0 - q < kMinPivot) return false;
    std::vector<double> out(coeff.size() - 1, 0.0);
    double carry = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = (coeff[i] - carry * q) / (1.0 - q);
      if (!std::isfinite(out[i]) || out[i] < -1e-9 || out[i] > 1.0 + 1e-9) {
        return false;
      }
      carry = out[i];
    }
    if (std::abs(coeff.back() - carry * q) > 1e-9) return false;
    for (double& c : out) c = std::clamp(c, 0.0, 1.0);
    coeff = std::move(out);
    return true;
  }

  std::vector<CompetingApp> apps_;
  std::vector<double> comm_{1.0};
  std::vector<double> comp_{1.0};
  std::vector<double> io_{1.0};
};

double uniform(SplitMix64& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.nextDouble();
}

/// Mostly the serving benchmark's application shapes (comm share in
/// [0.05, 0.6], 40% with an I/O share), plus one in eight from the edges:
/// a factor whose q is exactly 0 or 1 (f = 0, f = 1, g = 1, f + g = 1) or
/// small but not zero (f or 1 - f - g below 0.04).
CompetingApp churnApp(SplitMix64& rng) {
  if (rng.nextBelow(8) == 0) {
    const double f = uniform(rng, 0.05, 0.6);
    switch (rng.nextBelow(7)) {
      case 0: return CompetingApp{0.0, 0, 0.0, 0};
      case 1: return CompetingApp{1.0, 512, 0.0, 0};
      case 2: return CompetingApp{0.0, 0, 1.0, 40};
      case 3: return CompetingApp{0.25, 128, 0.75, 40};
      case 4: return CompetingApp{f, 1000, 1.0 - f, 20};
      case 5: return CompetingApp{uniform(rng, 0.001, 0.04), 64, 0.0, 0};
      default:
        return CompetingApp{f, 256, 1.0 - f - uniform(rng, 0.001, 0.04), 30};
    }
  }
  CompetingApp app;
  app.commFraction = uniform(rng, 0.05, 0.6);
  app.messageWords = 64 + static_cast<Words>(rng.nextBelow(4033));
  if (rng.nextDouble() < 0.4) {
    app.ioFraction = uniform(rng, 0.05, std::min(0.3, 1.0 - app.commFraction));
    app.ioOps = 10 + static_cast<std::int64_t>(rng.nextBelow(190));
  }
  return app;
}

::testing::AssertionResult sameBits(std::span<const double> got,
                                    const std::vector<double>& want,
                                    const char* which) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << which << ": size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      return ::testing::AssertionFailure()
             << which << "[" << i << "] = " << got[i] << " (0x" << std::hex
             << std::bit_cast<std::uint64_t>(got[i]) << "), frozen kernel "
             << std::dec << want[i] << " (0x" << std::hex
             << std::bit_cast<std::uint64_t>(want[i]) << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult sameBits(const model::WorkloadMix& mix,
                                    const FrozenMix& frozen) {
  auto result = sameBits(mix.commCoefficients(), frozen.comm(), "comm");
  if (result) result = sameBits(mix.compCoefficients(), frozen.comp(), "comp");
  if (result) result = sameBits(mix.ioCoefficients(), frozen.io(), "io");
  return result;
}

struct ChurnCase {
  int depth;
  int steps;
};

class MixBits : public ::testing::TestWithParam<ChurnCase> {};

// Grows both kernels to the depth, then churns around it: each step adds
// or removes one application (removing at a random index) so the depth
// wanders within one of its target. After every step the live
// coefficients, and those of a copy rebuilt from scratch, must match the
// frozen kernel bit for bit.
TEST_P(MixBits, ChurnMatchesTheFrozenKernel) {
  const ChurnCase param = GetParam();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SplitMix64 rng(seed * 1000003u + static_cast<std::uint64_t>(param.depth));
    model::WorkloadMix mix;
    FrozenMix frozen;
    for (int i = 0; i < param.depth; ++i) {
      const CompetingApp app = churnApp(rng);
      mix.add(app);
      frozen.add(app);
    }
    ASSERT_TRUE(sameBits(mix, frozen)) << "seed " << seed << " after growth";
    for (int step = 0; step < param.steps; ++step) {
      const bool grow = mix.p() < param.depth ||
                        (mix.p() == param.depth && rng.nextBelow(2) == 0);
      if (grow) {
        const CompetingApp app = churnApp(rng);
        mix.add(app);
        frozen.add(app);
      } else {
        const auto index = static_cast<std::size_t>(
            rng.nextBelow(static_cast<std::uint64_t>(mix.p())));
        mix.removeAt(index);
        frozen.removeAt(index);
      }
      ASSERT_TRUE(sameBits(mix, frozen))
          << "seed " << seed << " step " << step << " p " << mix.p();
      model::WorkloadMix rebuilt = mix;
      FrozenMix frozenRebuilt = frozen;
      rebuilt.rebuild();
      frozenRebuilt.rebuild();
      ASSERT_TRUE(sameBits(rebuilt, frozenRebuilt))
          << "rebuild, seed " << seed << " step " << step << " p "
          << rebuilt.p();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, MixBits,
                         ::testing::Values(ChurnCase{1, 2000},
                                           ChurnCase{2, 2000},
                                           ChurnCase{16, 2000},
                                           ChurnCase{97, 1500},
                                           ChurnCase{256, 300}),
                         [](const ::testing::TestParamInfo<ChurnCase>& depth) {
                           return "p" + std::to_string(depth.param.depth);
                         });

// Every edge factor alone and together: q exactly 0 or 1 in each of the
// three polynomials, which the rebuild skips or the removal refuses.
TEST(MixBitsEdges, EdgeAppsInEveryOrder) {
  const std::vector<CompetingApp> edges{
      {0.0, 0, 0.0, 0},      {1.0, 512, 0.0, 0}, {0.0, 0, 1.0, 40},
      {0.25, 128, 0.75, 40}, {0.5, 64, 0.5, 10}, {0.3, 100, 0.0, 0},
      {0.3, 100, 0.2, 5}};
  for (std::size_t drop = 0; drop < edges.size(); ++drop) {
    for (std::size_t rotate = 0; rotate < edges.size(); ++rotate) {
      model::WorkloadMix mix;
      FrozenMix frozen;
      for (std::size_t k = 0; k < edges.size(); ++k) {
        const CompetingApp& app = edges[(k + rotate) % edges.size()];
        mix.add(app);
        frozen.add(app);
      }
      mix.removeAt(drop);
      frozen.removeAt(drop);
      ASSERT_TRUE(sameBits(mix, frozen))
          << "drop " << drop << " rotate " << rotate;
      mix.rebuild();
      frozen.rebuild();
      ASSERT_TRUE(sameBits(mix, frozen))
          << "rebuild, drop " << drop << " rotate " << rotate;
    }
  }
}

}  // namespace
}  // namespace contend
