#include "ext/io_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "workload/generators.hpp"
#include "workload/probes.hpp"
#include "workload/runner.hpp"

namespace contend::ext {

double ioCompSlowdown(const model::WorkloadMix& mix,
                      const IoDelayTables& tables) {
  if (mix.p() > tables.maxContenders()) {
    throw std::out_of_range("ioCompSlowdown: tables too small for mix");
  }
  double slowdown = 1.0;
  for (int i = 1; i <= mix.p(); ++i) {
    // When i competitors are computing, CPU cycles split evenly (delay i);
    // when they are in I/O, the calibrated residual delay applies.
    slowdown += mix.pcomp(i) * static_cast<double>(i);
    slowdown +=
        mix.pio(i) * tables.compFromIo[static_cast<std::size_t>(i - 1)];
  }
  return slowdown;
}

double ioRequestSlowdown(const IoDelayTables& tables, int ioContenders,
                         int cpuContenders) {
  if (ioContenders < 0 || cpuContenders < 0) {
    throw std::invalid_argument("ioRequestSlowdown: negative counts");
  }
  if (ioContenders > tables.maxContenders() ||
      cpuContenders > tables.maxContenders()) {
    throw std::out_of_range("ioRequestSlowdown: tables too small");
  }
  double slowdown = 1.0;
  if (ioContenders > 0) {
    slowdown += tables.ioFromIo[static_cast<std::size_t>(ioContenders - 1)];
  }
  if (cpuContenders > 0) {
    slowdown += tables.ioFromComp[static_cast<std::size_t>(cpuContenders - 1)];
  }
  return slowdown;
}

Tick dedicatedIoRequestTime(const sim::PlatformConfig& config,
                            Words requestWords) {
  if (requestWords < 0) {
    throw std::invalid_argument("dedicatedIoRequestTime: negative size");
  }
  return config.disk.syscallCpu + config.disk.seekTime +
         requestWords * config.disk.timePerWord;
}

sim::Program makeIoGenerator(const sim::PlatformConfig& config,
                             const IoApp& app, Tick cycleLength) {
  if (app.ioFraction < 0.0 || app.ioFraction > 1.0) {
    throw std::invalid_argument("makeIoGenerator: ioFraction outside [0, 1]");
  }
  if (app.ioFraction == 0.0) return workload::makeCpuBoundGenerator();
  if (app.requestWords <= 0) {
    throw std::invalid_argument("makeIoGenerator: need a request size");
  }
  if (cycleLength <= 0) {
    throw std::invalid_argument("makeIoGenerator: cycleLength must be > 0");
  }

  const Tick perRequest = dedicatedIoRequestTime(config, app.requestWords);
  const std::int64_t requests = std::max<std::int64_t>(
      1, std::llround(app.ioFraction * static_cast<double>(cycleLength) /
                      static_cast<double>(perRequest)));
  const Tick ioTime = requests * perRequest;
  const Tick computeTime =
      app.ioFraction >= 1.0
          ? 0
          : static_cast<Tick>(static_cast<double>(ioTime) *
                              (1.0 - app.ioFraction) / app.ioFraction);

  sim::ProgramBuilder b;
  b.loopBegin();
  if (computeTime > 0) b.compute(computeTime, "io-gen-compute");
  b.loopBegin();
  b.diskIo(app.requestWords);
  b.loopEnd(requests);
  b.loopEnd(-1);
  return b.build();
}

namespace {

sim::Program ioProbe(const IoProbeOptions& options) {
  sim::ProgramBuilder b;
  b.stamp(0);
  b.loopBegin();
  b.diskIo(options.requestWords);
  b.loopEnd(options.ioProbeRequests);
  b.stamp(1);
  return b.build();
}

Tick timedAgainst(const sim::PlatformConfig& config, const sim::Program& probe,
                  const sim::Program& generator, int i) {
  workload::RunSpec spec;
  spec.config = config;
  spec.probe = probe;
  spec.contenders.assign(static_cast<std::size_t>(i), generator);
  return workload::runMeasured(spec).regionTicks.at(0);
}

double excess(Tick contended, Tick dedicated) {
  return static_cast<double>(contended) / static_cast<double>(dedicated) - 1.0;
}

}  // namespace

IoDelayTables measureIoDelayTables(const sim::PlatformConfig& config,
                                   const IoProbeOptions& options) {
  if (options.maxContenders <= 0 || options.ioProbeRequests <= 0) {
    throw std::invalid_argument("measureIoDelayTables: bad options");
  }
  const sim::Program cpuProbe = workload::makeCpuProbe(options.cpuProbeWork);
  const sim::Program diskProbe = ioProbe(options);
  const sim::Program ioGen = makeIoGenerator(
      config, IoApp{1.0, options.requestWords});
  const sim::Program cpuGen = workload::makeCpuBoundGenerator();

  const Tick cpuDedicated = timedAgainst(config, cpuProbe, {}, 0);
  const Tick ioDedicated = timedAgainst(config, diskProbe, {}, 0);

  IoDelayTables tables;
  for (int i = 1; i <= options.maxContenders; ++i) {
    tables.compFromIo.push_back(
        excess(timedAgainst(config, cpuProbe, ioGen, i), cpuDedicated));
    tables.ioFromIo.push_back(
        excess(timedAgainst(config, diskProbe, ioGen, i), ioDedicated));
    tables.ioFromComp.push_back(
        excess(timedAgainst(config, diskProbe, cpuGen, i), ioDedicated));
  }
  tables.validate();
  return tables;
}

}  // namespace contend::ext
