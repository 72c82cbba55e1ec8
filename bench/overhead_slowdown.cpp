// O1: the paper's complexity claims for the run-time slowdown calculation
// (§3.2.1): building all pcomp_i/pcomm_i takes O(p²), adding an application
// O(p), and evaluating the slowdown O(p) — "the overhead imposed by its
// calculation is negligible" relative to scheduling decisions.
//
// google-benchmark microbenchmarks over p confirm the asymptotics and the
// absolute cost (nanoseconds to microseconds — negligible indeed). Removal
// is split by the path it takes: the O(p) deconvolution or the O(p²)
// rebuild it falls back to.
#include <benchmark/benchmark.h>

#include <vector>

#include "model/mix.hpp"
#include "model/paragon_model.hpp"

namespace {

using contend::model::CompetingApp;
using contend::model::DelayTables;
using contend::model::WorkloadMix;

CompetingApp appFor(int index) {
  // Deterministic varied fractions/sizes.
  const double fraction = 0.1 + 0.8 * ((index * 37) % 100) / 100.0;
  const contend::Words words = 50 + (index * 131) % 1500;
  return CompetingApp{fraction, words};
}

/// Like the serving benchmark's apps: two in five also do disk I/O.
CompetingApp ioAppFor(int index) {
  CompetingApp app = appFor(index);
  app.commFraction *= 0.6;
  if (index % 5 < 2) {
    app.ioFraction = 0.05 + 0.25 * ((index * 53) % 100) / 100.0;
    app.ioOps = 10 + index % 190;
  }
  return app;
}

WorkloadMix mixOf(int p, CompetingApp (*app)(int)) {
  WorkloadMix mix;
  for (int i = 0; i < p; ++i) mix.add(app(i));
  return mix;
}

DelayTables tablesFor(int p) {
  DelayTables tables;
  tables.jBins = {1, 500, 1000};
  tables.compFromComm.assign(3, {});
  for (int i = 1; i <= p; ++i) {
    tables.commFromComp.push_back(0.5 * i);
    tables.commFromComm.push_back(0.3 * i);
    for (auto& row : tables.compFromComm) row.push_back(0.25 * i);
  }
  tables.validate();
  return tables;
}

void BM_MixRebuild(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  WorkloadMix mix = mixOf(p, appFor);
  for (auto _ : state) {
    mix.rebuild();  // O(p^2) dynamic programming
    benchmark::DoNotOptimize(mix.pcomm(p / 2));
  }
  state.SetComplexityN(p);
}
BENCHMARK(BM_MixRebuild)->RangeMultiplier(2)->Range(2, 256)->Complexity();

// The same rebuild with I/O-bearing apps: the I/O polynomial has degree
// 2p/5 instead of 0, the comm and compute ones stay p.
void BM_MixRebuildIo(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  WorkloadMix mix = mixOf(p, ioAppFor);
  for (auto _ : state) {
    mix.rebuild();
    benchmark::DoNotOptimize(mix.pio(p / 5));
  }
  state.SetComplexityN(p);
}
BENCHMARK(BM_MixRebuildIo)->RangeMultiplier(2)->Range(2, 256)->Complexity();

void BM_MixIncrementalAdd(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  WorkloadMix base = mixOf(p, appFor);
  for (auto _ : state) {
    WorkloadMix mix = base;  // copy dominates less as p grows
    mix.add(appFor(p));      // O(p)
    benchmark::DoNotOptimize(mix.pcomm(1));
  }
  state.SetComplexityN(p);
}
BENCHMARK(BM_MixIncrementalAdd)->RangeMultiplier(2)->Range(2, 256)->Complexity();

// Removal, by which check decides it. Each iteration removes the app last
// added to a depth-p mix and adds it back, so the mix returns to depth p;
// BM_MixIncrementalAdd bounds the add's share.
void removeAndReadd(benchmark::State& state, const CompetingApp& extra) {
  const int p = static_cast<int>(state.range(0));
  WorkloadMix mix = mixOf(p, appFor);
  mix.add(extra);
  for (auto _ : state) {
    mix.removeAt(static_cast<std::size_t>(p));
    mix.add(extra);
    benchmark::DoNotOptimize(mix.pcomm(0));
  }
  state.SetComplexityN(p);
}

// f = 0.5 passes every pivot and range check: the O(p) in-place division.
void BM_MixRemoveFast(benchmark::State& state) {
  removeAndReadd(state, CompetingApp{0.5, 500});
}
BENCHMARK(BM_MixRemoveFast)->RangeMultiplier(2)->Range(2, 256)->Complexity();

// f = 0 makes the compute factor's pivot f + g zero: the O(p²) rebuild.
void BM_MixRemoveFallback(benchmark::State& state) {
  removeAndReadd(state, CompetingApp{0.0, 0});
}
BENCHMARK(BM_MixRemoveFallback)
    ->RangeMultiplier(2)
    ->Range(2, 256)
    ->Complexity();

void BM_CommSlowdown(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const WorkloadMix mix = mixOf(p, appFor);
  const DelayTables tables = tablesFor(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(paragonCommSlowdown(mix, tables));
  }
  state.SetComplexityN(p);
}
BENCHMARK(BM_CommSlowdown)->RangeMultiplier(2)->Range(2, 256)->Complexity();

void BM_CompSlowdown(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const WorkloadMix mix = mixOf(p, appFor);
  const DelayTables tables = tablesFor(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(paragonCompSlowdown(mix, tables));
  }
  state.SetComplexityN(p);
}
BENCHMARK(BM_CompSlowdown)->RangeMultiplier(2)->Range(2, 256)->Complexity();

}  // namespace

BENCHMARK_MAIN();
