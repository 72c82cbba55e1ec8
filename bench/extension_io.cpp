// §4 extension: I/O contention ("we are currently extending our model to
// include memory constraints, as well as I/O operations").
//
// Regenerates the evidence the extension rests on: the calibrated I/O delay
// tables (I/O-bound competitors barely tax the CPU but queue hard on the
// device), and a model-vs-simulation validation across mixed workloads —
// the same methodology the paper applies to communication.
#include <iostream>
#include <vector>

#include "calib/calibration.hpp"
#include "ext/io_model.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/probes.hpp"
#include "workload/runner.hpp"

using namespace contend;
using namespace contend::ext;

int main() {
  const sim::PlatformConfig config;
  // The tables come from the calibration pass (the same one calibrate_tool
  // runs and saves into platform profiles), not an ad-hoc local probe — so
  // this bench validates exactly what the serving/engine paths consume.
  std::cout << "calibrating I/O delay tables...\n";
  calib::CalibrationOptions calibOptions;
  calibOptions.io.maxContenders = 3;
  calib::PlatformProfile profile;
  profile.io = measureIoDelayTables(config, calibOptions.io);
  const IoDelayTables& tables = profile.io;

  TextTable delayTable({"i", "delay on comp (comp_io^i)",
                        "delay on I/O from I/O (dev^i)",
                        "delay on I/O from CPU (cpu^i)"});
  for (int i = 1; i <= tables.maxContenders(); ++i) {
    const auto idx = static_cast<std::size_t>(i - 1);
    delayTable.addRow({TextTable::integer(i),
                       TextTable::num(tables.compFromIo[idx]),
                       TextTable::num(tables.ioFromIo[idx]),
                       TextTable::num(tables.ioFromComp[idx])});
  }
  printTable("I/O delay tables (excess factors)", delayTable);

  // Validation: CPU probe against mixed compute/IO generators.
  struct Scenario {
    std::vector<IoApp> apps;
  };
  const std::vector<Scenario> scenarios = {
      {{{0.9, 8192}}},                  // one I/O-hog
      {{{0.5, 8192}, {0.5, 8192}}},     // two half-and-half
      {{{0.2, 4096}, {0.8, 16384}}},    // skewed mix
      {{{0.0, 0}, {0.6, 8192}}},        // CPU hog + I/O app
  };

  TextTable results({"scenario", "modeled slowdown", "actual slowdown",
                     "error"});
  RunningStats errors;
  for (const Scenario& scenario : scenarios) {
    model::WorkloadMix mix;
    std::string name;
    for (const IoApp& app : scenario.apps) {
      // A pure compute/disk competitor: no back-end communication, and one
      // request per I/O burst (the op count selects no table entry).
      mix.add({0.0, 0, app.ioFraction, app.ioFraction > 0.0 ? 1 : 0});
      if (!name.empty()) name += " + ";
      name += TextTable::percent(app.ioFraction, 0) + "io";
    }
    const double modeled = ioCompSlowdown(mix, tables);

    workload::RunSpec spec;
    spec.config = config;
    spec.probe = workload::makeCpuProbe(2 * kSecond);
    for (const IoApp& app : scenario.apps) {
      spec.contenders.push_back(makeIoGenerator(config, app));
    }
    const double actual =
        workload::runMeasured(spec).regionSeconds(0) / 2.0;
    const double err = relativeError(modeled, actual);
    errors.add(err);
    results.addRow({name, TextTable::num(modeled), TextTable::num(actual),
                    TextTable::percent(err)});
  }
  printTable("I/O extension: computation slowdown, model vs simulation",
             results);
  std::cout << "[ext-io] avg error " << TextTable::percent(errors.mean())
            << ", max " << TextTable::percent(errors.max())
            << " — the paper's additive form carries over to I/O\n";
  return errors.mean() < 0.15 ? 0 : 1;
}
