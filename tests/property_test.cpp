// Property-based sweeps: invariants that must hold across wide parameter
// ranges, exercised with parameterized gtest suites.
#include <gtest/gtest.h>

#include <vector>

#include "calib/pingpong.hpp"
#include "model/mix.hpp"
#include "model/paragon_model.hpp"
#include "sim/platform.hpp"
#include "util/regression.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workload/probes.hpp"
#include "workload/runner.hpp"

namespace contend {
namespace {

// ===================================================== mix properties ====

/// Random mixes from a seed: distributions normalized, symmetric, and
/// consistent under add/remove churn.
class MixProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixProperty, DistributionInvariants) {
  SplitMix64 rng(GetParam());
  model::WorkloadMix mix;
  const int p = 1 + static_cast<int>(rng.nextBelow(8));
  for (int i = 0; i < p; ++i) {
    const double f = rng.nextDouble();
    mix.add(model::CompetingApp{f, f > 0.0 ? 1 + static_cast<Words>(
                                                     rng.nextBelow(2000))
                                           : 0});
  }
  double commSum = 0.0, compSum = 0.0, mean = 0.0;
  for (int i = 0; i <= p; ++i) {
    EXPECT_GE(mix.pcomm(i), -1e-12);
    EXPECT_LE(mix.pcomm(i), 1.0 + 1e-12);
    commSum += mix.pcomm(i);
    compSum += mix.pcomp(i);
    mean += i * mix.pcomm(i);
  }
  EXPECT_NEAR(commSum, 1.0, 1e-9);
  EXPECT_NEAR(compSum, 1.0, 1e-9);
  // Mean of the Poisson-binomial equals the sum of fractions.
  double fractionSum = 0.0;
  for (const auto& app : mix.apps()) fractionSum += app.commFraction;
  EXPECT_NEAR(mean, fractionSum, 1e-9);
}

TEST_P(MixProperty, ChurnPreservesDistribution) {
  SplitMix64 rng(GetParam() ^ 0xABCDEF);
  std::vector<model::CompetingApp> apps;
  model::WorkloadMix mix;
  for (int round = 0; round < 40; ++round) {
    const bool canRemove = !apps.empty();
    if (!canRemove || rng.nextDouble() < 0.6) {
      const double f = rng.nextDouble();
      const model::CompetingApp app{
          f, f > 0.0 ? 1 + static_cast<Words>(rng.nextBelow(1500)) : 0};
      apps.push_back(app);
      mix.add(app);
    } else {
      const auto index =
          static_cast<std::size_t>(rng.nextBelow(apps.size()));
      apps.erase(apps.begin() + static_cast<std::ptrdiff_t>(index));
      mix.removeAt(index);
    }
    model::WorkloadMix fresh;
    for (const auto& app : apps) fresh.add(app);
    ASSERT_EQ(mix.p(), fresh.p());
    for (int i = 0; i <= mix.p(); ++i) {
      ASSERT_NEAR(mix.pcomm(i), fresh.pcomm(i), 1e-8) << "round " << round;
      ASSERT_NEAR(mix.pcomp(i), fresh.pcomp(i), 1e-8) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u,
                                           0xDEADBEEFu));

// ================================================ slowdown properties ====

model::DelayTables monotoneTables(int p) {
  model::DelayTables tables;
  tables.jBins = {1, 500, 1000};
  tables.compFromComm.assign(3, {});
  for (int i = 1; i <= p; ++i) {
    tables.commFromComp.push_back(0.6 * i);
    tables.commFromComm.push_back(0.25 * i);
    tables.compFromComm[0].push_back(0.1 * i);
    tables.compFromComm[1].push_back(0.3 * i);
    tables.compFromComm[2].push_back(0.5 * i);
  }
  return tables;
}

class SlowdownProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlowdownProperty, AddingAnApplicationNeverSpeedsThingsUp) {
  SplitMix64 rng(GetParam());
  const auto tables = monotoneTables(10);
  model::WorkloadMix mix;
  double lastComp = 1.0, lastComm = 1.0;
  for (int i = 0; i < 8; ++i) {
    const double f = rng.nextDouble();
    mix.add(model::CompetingApp{
        f, f > 0.0 ? 1 + static_cast<Words>(rng.nextBelow(1200)) : 0});
    const double comp = paragonCompSlowdown(mix, tables);
    const double comm = paragonCommSlowdown(mix, tables);
    EXPECT_GE(comp, lastComp - 1e-9) << "after app " << i;
    EXPECT_GE(comm, lastComm - 1e-9) << "after app " << i;
    EXPECT_GE(comp, 1.0);
    EXPECT_GE(comm, 1.0);
    lastComp = comp;
    lastComm = comm;
  }
}

TEST_P(SlowdownProperty, CompSlowdownBoundedByPPlusOnePlusCommTerm) {
  // With monotone tables whose delay_comm <= delay from pure CPU sharing,
  // the computation slowdown can never exceed p + 1 + max extra delay.
  SplitMix64 rng(GetParam() ^ 0x5555);
  const auto tables = monotoneTables(10);
  model::WorkloadMix mix;
  const int p = 1 + static_cast<int>(rng.nextBelow(6));
  for (int i = 0; i < p; ++i) {
    const double f = rng.nextDouble();
    mix.add(model::CompetingApp{
        f, f > 0.0 ? 1 + static_cast<Words>(rng.nextBelow(1200)) : 0});
  }
  const double slowdown = paragonCompSlowdown(mix, tables);
  EXPECT_LE(slowdown, p + 1.0 + 1e-9);  // delays above are all <= i
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlowdownProperty,
                         ::testing::Values(3u, 17u, 2718u, 31415u));

// ================================================ simulator properties ====

struct PolicyCase {
  sim::SchedulingPolicy policy;
  const char* name;
};

// gtest prints a parameter that has no PrintTo as its raw bytes, pointers
// included, and ctest's discovered test names embed that printout; printing
// the case name keeps the names stable from build to build.
void PrintTo(const PolicyCase& policyCase, std::ostream* os) {
  *os << policyCase.name;
}

class SimDeterminism : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(SimDeterminism, IdenticalSeedsIdenticalTimelines) {
  auto run = [&](std::uint64_t seed) {
    sim::PlatformConfig config;
    config.cpu.policy = GetParam().policy;
    config.seed = seed;
    workload::RunSpec spec;
    spec.config = config;
    spec.probe = workload::makeBurstProgram(
        300, 50, workload::CommDirection::kToBackend);
    workload::GeneratorSpec gen;
    gen.commFraction = 0.5;
    gen.messageWords = 200;
    spec.contenders.push_back(workload::makeCommGenerator(config, gen));
    spec.contenders.push_back(workload::makeCpuBoundGenerator());
    return workload::runMeasured(spec).regionTicks.at(0);
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));  // and the seed genuinely matters
}

TEST_P(SimDeterminism, WorkConservation) {
  // Total CPU busy time equals the dedicated demand of everything that ran
  // (jitter off), regardless of policy.
  sim::PlatformConfig config;
  config.cpu.policy = GetParam().policy;
  config.cpu.contextSwitchCost = 0;
  config.workJitter = 0.0;
  config.wireJitter = 0.0;
  config.enableDaemon = false;

  sim::Platform platform(config);
  sim::ProgramBuilder a;
  a.compute(300 * kMillisecond);
  platform.addProcess("a", a.build());
  sim::ProgramBuilder b;
  b.loopBegin();
  b.compute(50 * kMillisecond);
  b.sleep(20 * kMillisecond);
  b.loopEnd(4);
  platform.addProcess("b", b.build());
  platform.run();
  EXPECT_EQ(platform.cpu().busyTime(), 300 * kMillisecond + 200 * kMillisecond);
  EXPECT_EQ(platform.cpu().consumedBy(0), 300 * kMillisecond);
  EXPECT_EQ(platform.cpu().consumedBy(1), 200 * kMillisecond);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SimDeterminism,
    ::testing::Values(
        PolicyCase{sim::SchedulingPolicy::kProcessorSharing, "ps"},
        PolicyCase{sim::SchedulingPolicy::kRoundRobin, "rr"},
        PolicyCase{sim::SchedulingPolicy::kMultilevelFeedback, "mlf"}),
    [](const auto& paramInfo) { return std::string(paramInfo.param.name); });

// ============================================== regression properties ====

struct NoiseCase {
  double noise;
  int points;
};

class PiecewiseRecovery : public ::testing::TestWithParam<NoiseCase> {};

TEST_P(PiecewiseRecovery, RecoversSyntheticTwoPieceData) {
  const auto [noise, points] = GetParam();
  SplitMix64 rng(98765);
  std::vector<double> x, y;
  const double knee = 1000.0;
  for (int i = 0; i < points; ++i) {
    const double xi = 10.0 + 4000.0 * rng.nextDouble();
    const double clean = xi <= knee ? 5.0 + 0.01 * xi : 2.0 + 0.013 * xi;
    const double jitter = 1.0 + noise * (2.0 * rng.nextDouble() - 1.0);
    x.push_back(xi);
    y.push_back(clean * jitter);
  }
  const PiecewiseFit fit = fitPiecewise(x, y);
  // The knee must land near 1000 (tolerance widens with noise).
  EXPECT_NEAR(fit.threshold, knee, 200.0 + 4000.0 * noise);
  EXPECT_NEAR(fit.low.slope, 0.01, 0.004 + 0.05 * noise);
  EXPECT_NEAR(fit.high.slope, 0.013, 0.004 + 0.05 * noise);
}

INSTANTIATE_TEST_SUITE_P(Noise, PiecewiseRecovery,
                         ::testing::Values(NoiseCase{0.0, 40},
                                           NoiseCase{0.01, 60},
                                           NoiseCase{0.03, 120}));

// ============================================ calibration properties ====

class BurstCountProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BurstCountProperty, FitStableAcrossBurstSizes) {
  // The fitted (alpha, beta) must barely depend on how many messages the
  // ping-pong benchmark uses per burst (the reply amortizes away).
  sim::PlatformConfig config;
  config.enableDaemon = false;
  config.workJitter = 0.0;
  config.wireJitter = 0.0;
  const std::vector<Words> sizes = {16, 128, 512, 1024, 2048, 4096, 8192};
  const auto samples = calib::runPingPongSweep(
      config, sizes, GetParam(), workload::CommDirection::kToBackend);
  const auto fit = calib::fitCommParams(samples);
  const auto reference = calib::runPingPongSweep(
      config, sizes, 1000, workload::CommDirection::kToBackend);
  const auto referenceFit = calib::fitCommParams(reference);
  EXPECT_NEAR(fit.small.betaWordsPerSec, referenceFit.small.betaWordsPerSec,
              referenceFit.small.betaWordsPerSec * 0.05);
  EXPECT_NEAR(fit.large.betaWordsPerSec, referenceFit.large.betaWordsPerSec,
              referenceFit.large.betaWordsPerSec * 0.05);
  EXPECT_EQ(fit.thresholdWords, referenceFit.thresholdWords);
}

INSTANTIATE_TEST_SUITE_P(Bursts, BurstCountProperty,
                         ::testing::Values(50, 200, 1000));

}  // namespace
}  // namespace contend
