// Tests for the I/O contention extension: simulator disk semantics,
// generators, calibration probes, and model-vs-simulation accuracy.
#include <gtest/gtest.h>

#include "ext/io_model.hpp"
#include "sim/platform.hpp"
#include "util/stats.hpp"
#include "workload/generators.hpp"
#include "workload/probes.hpp"
#include "workload/runner.hpp"

namespace contend::ext {
namespace {

sim::PlatformConfig quietConfig() {
  sim::PlatformConfig config;
  config.workJitter = 0.0;
  config.wireJitter = 0.0;
  config.enableDaemon = false;
  return config;
}

// ------------------------------------------------------- disk semantics ---

TEST(Disk, RequestCostsSyscallPlusDevice) {
  const sim::PlatformConfig config = quietConfig();
  sim::Platform platform(config);
  sim::ProgramBuilder b;
  b.stamp(0).diskIo(1000).stamp(1);
  sim::Process& p = platform.addProcess("io", b.build());
  platform.run();
  const Tick expected = config.disk.syscallCpu + config.disk.seekTime +
                        1000 * config.disk.timePerWord;
  EXPECT_EQ(p.stampAt(1) - p.stampAt(0), expected);
  EXPECT_EQ(platform.cpu().busyTime(), config.disk.syscallCpu);
  EXPECT_EQ(platform.disk().busyTime(), expected - config.disk.syscallCpu);
  EXPECT_EQ(platform.link().busyTime(), 0);  // the wire is untouched
}

TEST(Disk, RequestsQueueFifo) {
  const sim::PlatformConfig config = quietConfig();
  sim::Platform platform(config);
  for (int i = 0; i < 2; ++i) {
    sim::ProgramBuilder b;
    b.stamp(0).diskIo(0).stamp(1);
    platform.addProcess("io" + std::to_string(i), b.build());
  }
  platform.run();
  // Two seek-only requests serialized on the device.
  EXPECT_EQ(platform.disk().busyTime(), 2 * config.disk.seekTime);
  EXPECT_GT(platform.disk().totalQueueingTime(), 0);
}

TEST(Disk, DedicatedRequestTimeHelperMatchesSimulation) {
  const sim::PlatformConfig config = quietConfig();
  sim::Platform platform(config);
  sim::ProgramBuilder b;
  b.stamp(0).diskIo(4096).stamp(1);
  sim::Process& p = platform.addProcess("io", b.build());
  platform.run();
  EXPECT_EQ(p.stampAt(1) - p.stampAt(0),
            dedicatedIoRequestTime(config, 4096));
}

// ------------------------------------------------------- I/O in the mix ---

/// The mix entry for an I/O generator: computes when not in disk I/O.
model::CompetingApp ioCompetitor(double ioFraction) {
  return {0.0, 0, ioFraction, ioFraction > 0.0 ? 1 : 0};
}

TEST(IoWorkloadMix, PoissonBinomialOverIoFractions) {
  model::WorkloadMix mix;
  mix.add(ioCompetitor(0.2));
  mix.add(ioCompetitor(0.3));
  EXPECT_NEAR(mix.pio(0), 0.8 * 0.7, 1e-12);
  EXPECT_NEAR(mix.pio(1), 0.2 * 0.7 + 0.3 * 0.8, 1e-12);
  EXPECT_NEAR(mix.pio(2), 0.2 * 0.3, 1e-12);
  // A pure compute/disk app computes whenever it is not in I/O.
  for (int i = 0; i <= 2; ++i) EXPECT_DOUBLE_EQ(mix.pcomp(i), mix.pio(2 - i));
  EXPECT_THROW((void)mix.pio(3), std::out_of_range);
  EXPECT_THROW(mix.add(ioCompetitor(1.5)), std::invalid_argument);
  EXPECT_THROW(mix.add({0.0, 0, 0.5, 0}), std::invalid_argument);
}

// ----------------------------------------------------------- generators ---

TEST(IoGenerator, DedicatedFractionIsAccurate) {
  const sim::PlatformConfig config = quietConfig();
  const sim::Program gen = makeIoGenerator(config, IoApp{0.5, 4096});
  sim::Platform platform(config);
  platform.addProcess("gen", gen, sim::ProcessKind::kDaemon);
  sim::ProgramBuilder clock;
  clock.sleep(8 * kSecond);
  platform.addProcess("clock", clock.build());
  platform.run();
  // I/O wall share = device busy / elapsed plus the syscall CPU share; the
  // device part alone should be close to fraction x (device/total).
  const double deviceShare =
      static_cast<double>(platform.disk().busyTime()) / 8e9;
  const Tick perRequest = dedicatedIoRequestTime(config, 4096);
  const double deviceFraction =
      static_cast<double>(perRequest - config.disk.syscallCpu) /
      static_cast<double>(perRequest);
  EXPECT_NEAR(deviceShare, 0.5 * deviceFraction, 0.06);
}

TEST(IoGenerator, ZeroFractionFallsBackToCpuBound) {
  const sim::PlatformConfig config = quietConfig();
  EXPECT_NO_THROW(makeIoGenerator(config, IoApp{0.0, 0}));
  EXPECT_THROW((void)makeIoGenerator(config, IoApp{0.5, 0}), std::invalid_argument);
  EXPECT_THROW((void)makeIoGenerator(config, IoApp{0.5, 100}, 0),
               std::invalid_argument);
}

// ---------------------------------------------------- calibrated tables ---

class IoTablesFixture : public ::testing::Test {
 protected:
  static const IoDelayTables& tables() {
    static const IoDelayTables t = [] {
      IoProbeOptions options;
      options.maxContenders = 3;
      options.cpuProbeWork = kSecond;
      options.ioProbeRequests = 40;
      return measureIoDelayTables(quietConfig(), options);
    }();
    return t;
  }
};

TEST_F(IoTablesFixture, IoBoundAppsBarelyDelayComputation) {
  // An I/O-bound process spends almost all its time blocked on the device;
  // its CPU demand is just the syscall path.
  EXPECT_LT(tables().compFromIo[0], 0.15);
  EXPECT_LT(tables().compFromIo[2], 0.4);
  // But the delay is real and grows with i.
  EXPECT_GT(tables().compFromIo[2], tables().compFromIo[0]);
}

TEST_F(IoTablesFixture, IoBoundAppsQueueOnTheDevice) {
  // Device queueing is nearly linear in the number of I/O-bound contenders.
  EXPECT_GT(tables().ioFromIo[0], 0.5);
  EXPECT_GT(tables().ioFromIo[1], tables().ioFromIo[0] * 1.4);
  EXPECT_GT(tables().ioFromIo[2], tables().ioFromIo[1]);
}

TEST_F(IoTablesFixture, CpuBoundAppsStretchOnlyTheSyscallPart) {
  // The syscall path is a small fraction of a request, so CPU contention
  // touches I/O lightly.
  EXPECT_LT(tables().ioFromComp[2], 0.25);
}

TEST_F(IoTablesFixture, CompSlowdownPredictionWithinBand) {
  // Validate the composed model: CPU probe against 2 mixed I/O generators.
  const sim::PlatformConfig config = quietConfig();
  model::WorkloadMix mix;
  mix.add(ioCompetitor(0.6));
  mix.add(ioCompetitor(0.3));
  const double modeled = ioCompSlowdown(mix, tables());

  workload::RunSpec spec;
  spec.config = config;
  spec.probe = workload::makeCpuProbe(2 * kSecond);
  spec.contenders.push_back(makeIoGenerator(config, IoApp{0.6, 8192}));
  spec.contenders.push_back(makeIoGenerator(config, IoApp{0.3, 8192}));
  const double actual = workload::runMeasured(spec).regionSeconds(0) / 2.0;
  EXPECT_LT(relativeError(modeled, actual), 0.20);
}

TEST_F(IoTablesFixture, IoRequestSlowdownPredictionWithinBand) {
  const sim::PlatformConfig config = quietConfig();
  const double modeled = ioRequestSlowdown(tables(), 2, 0);

  sim::ProgramBuilder b;
  b.stamp(0);
  b.loopBegin();
  b.diskIo(8192);
  b.loopEnd(40);
  b.stamp(1);
  workload::RunSpec spec;
  spec.config = config;
  spec.probe = b.build();
  spec.contenders.assign(2, makeIoGenerator(config, IoApp{1.0, 8192}));
  const workload::RunResult run = workload::runMeasured(spec);
  const double dedicated =
      toSeconds(40 * dedicatedIoRequestTime(config, 8192));
  const double actual = run.regionSeconds(0) / dedicated;
  EXPECT_LT(relativeError(modeled, actual), 0.25);
}

TEST_F(IoTablesFixture, Validation) {
  EXPECT_NO_THROW(tables().validate());
  IoDelayTables bad = tables();
  bad.ioFromIo.pop_back();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_THROW((void)ioRequestSlowdown(tables(), 9, 0), std::out_of_range);
  EXPECT_THROW((void)ioRequestSlowdown(tables(), -1, 0), std::invalid_argument);
  model::WorkloadMix big;
  for (int i = 0; i < 4; ++i) big.add(ioCompetitor(0.5));
  EXPECT_THROW((void)ioCompSlowdown(big, tables()), std::out_of_range);
}

}  // namespace
}  // namespace contend::ext
