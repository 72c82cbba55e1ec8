// io_model.hpp — I/O contention extension (§4: "we are currently extending
// our model to include memory constraints, as well as I/O operations").
//
// Structure mirrors the paper's communication treatment: applications spend
// a fraction of their time doing disk I/O; an I/O request costs a little
// front-end CPU (the syscall path) and a long exclusive device occupancy.
// Consequences, by the same logic as §3.2:
//   * I/O-bound competitors barely consume CPU, so they delay computation
//     far less than p + 1 — a delay_io^i table captures how much.
//   * I/O-bound competitors queue on the device, so they delay other I/O
//     nearly linearly — delay_dev^i.
//   * CPU-bound competitors stretch the syscall part of I/O — delay_cpu^i.
// Tables are measured by calibration probes against the simulator's disk,
// and composed with Poisson-binomial weights exactly like the Paragon model.
#pragma once

#include "model/io_tables.hpp"
#include "model/mix.hpp"
#include "sim/platform.hpp"
#include "util/units.hpp"

namespace contend::ext {

/// The tables themselves live in model so the serving path and the scenario
/// engine can compose them without linking the simulator; the measurement
/// side (below) stays here.
using IoDelayTables = model::IoDelayTables;

/// An I/O generator's behaviour: it spends `ioFraction` of its (dedicated)
/// time in disk requests of `requestWords`.
struct IoApp {
  double ioFraction = 0.0;
  Words requestWords = 0;
};

/// Computation slowdown from competitors that alternate computing with disk
/// I/O — the same additive form as the paper's §3.2.2 computation model:
///   1 + Σ pcomp_i · i + Σ pio_i · delay_io^i,
/// with pcomp/pio the mix's Poisson-binomial distributions.
[[nodiscard]] double ioCompSlowdown(const model::WorkloadMix& mix,
                                    const IoDelayTables& tables);

/// Slowdown of an application's own I/O given `ioContenders` I/O-bound and
/// `cpuContenders` CPU-bound competitors:
///   1 + delay_dev^{ioContenders} + delay_cpu^{cpuContenders}.
[[nodiscard]] double ioRequestSlowdown(const IoDelayTables& tables,
                                       int ioContenders, int cpuContenders);

/// Dedicated-mode wall time of one disk request on the given platform.
[[nodiscard]] Tick dedicatedIoRequestTime(const sim::PlatformConfig& config,
                                          Words requestWords);

/// Calibration: measures all three tables against the simulator.
struct IoProbeOptions {
  int maxContenders = 3;
  Words requestWords = 8192;          // contender request size
  Tick cpuProbeWork = 2 * kSecond;    // computation probe
  int ioProbeRequests = 60;           // I/O probe length
};

[[nodiscard]] IoDelayTables measureIoDelayTables(
    const sim::PlatformConfig& config, const IoProbeOptions& options);

/// Workload builder: infinite loop alternating compute with disk requests so
/// the dedicated-mode I/O share equals `app.ioFraction`.
[[nodiscard]] sim::Program makeIoGenerator(const sim::PlatformConfig& config,
                                           const IoApp& app,
                                           Tick cycleLength = 400 *
                                                              kMillisecond);

}  // namespace contend::ext
