// Pinned outcomes of the shipped example scenarios under both schedulers.
// The engine's numbers flow from the mix coefficients through every
// repricing and placement, so a change that moves any coefficient bit
// (the mix kernel, the rate law, the event order) shows up here as a
// changed migration count, SLA tally or stretch bit pattern.
//
// A deliberate numerics change regenerates these rows in its own announced
// commit: a failing case prints its replacement row.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "scenario/engine.hpp"
#include "scenario/scenario.hpp"
#include "scenario/schedulers.hpp"

namespace contend::scenario {
namespace {

struct PinnedOutcome {
  const char* scenario;  // file name under examples/, without .scn
  const char* scheduler;  // "greedy" or "model"
  std::uint64_t spawned;
  std::uint64_t completed;
  std::uint64_t migrations;
  // makespanSec, meanStretch, maxStretch by their bits.
  std::uint64_t makespanBits;
  std::uint64_t meanStretchBits;
  std::uint64_t maxStretchBits;
  // {tasks, violations} for SLA0..SLA3.
  std::array<std::array<std::uint64_t, 2>, 4> sla;
};

constexpr PinnedOutcome kPinned[] = {
    {"sla_mix", "greedy", 11503, 11503, 0,
     0x404e0ef0bca971b1, 0x3ff7f67b9e9c8c54, 0x40120f232c139741,
     {{{3003, 1622}, {2990, 1571}, {1456, 181}, {4054, 0}}}},
    {"sla_mix", "model", 11503, 11503, 245,
     0x404e0ef0bca971b1, 0x3ff60533d819d0fd, 0x4010a580a2f0892e,
     {{{3003, 1217}, {2990, 1124}, {1456, 98}, {4054, 0}}}},
    {"trace_replay", "greedy", 12, 12, 0,
     0x403e000000000000, 0x40040b13220d8337, 0x4007caaaaaaaaaab,
     {{{0, 0}, {0, 0}, {0, 0}, {12, 0}}}},
    {"trace_replay", "model", 12, 12, 0,
     0x403e000000000000, 0x40040b13220d8337, 0x4007caaaaaaaaaab,
     {{{0, 0}, {0, 0}, {0, 0}, {12, 0}}}},
    {"burst_smoke", "greedy", 1055, 1055, 0,
     0x40341096dd3399ad, 0x3ff56ef5f0d4f985, 0x4007c2c50ebd5d28,
     {{{0, 0}, {272, 184}, {383, 4}, {400, 0}}}},
    {"burst_smoke", "model", 1055, 1055, 33,
     0x40341096dd3399ad, 0x3ff53d2d55873cf6, 0x400b066fc34e0f9e,
     {{{0, 0}, {272, 159}, {383, 2}, {400, 0}}}},
};

EngineResult runScenario(const PinnedOutcome& pinned) {
  const Scenario scn = parseScenarioFile(std::string(CONTEND_EXAMPLES_DIR) +
                                         "/" + pinned.scenario + ".scn");
  if (std::string(pinned.scheduler) == "greedy") {
    GreedyScheduler greedy;
    return Engine(scn, greedy).run();
  }
  ContentionPricedScheduler model;
  return Engine(scn, model).run();
}

std::string rowFor(const PinnedOutcome& pinned, const EngineResult& got) {
  char row[512];
  std::snprintf(
      row, sizeof row,
      "    {\"%s\", \"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64
      ",\n     0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64
      ",\n     {{{%" PRIu64 ", %" PRIu64 "}, {%" PRIu64 ", %" PRIu64
      "}, {%" PRIu64 ", %" PRIu64 "}, {%" PRIu64 ", %" PRIu64 "}}}},",
      pinned.scenario, pinned.scheduler, got.spawned, got.completed,
      got.migrations, std::bit_cast<std::uint64_t>(got.makespanSec),
      std::bit_cast<std::uint64_t>(got.meanStretch),
      std::bit_cast<std::uint64_t>(got.maxStretch), got.sla[0].tasks,
      got.sla[0].violations, got.sla[1].tasks, got.sla[1].violations,
      got.sla[2].tasks, got.sla[2].violations, got.sla[3].tasks,
      got.sla[3].violations);
  return row;
}

void PrintTo(const PinnedOutcome& pinned, std::ostream* out) {
  *out << pinned.scenario << " under " << pinned.scheduler;
}

class ScenarioPinned : public ::testing::TestWithParam<PinnedOutcome> {};

TEST_P(ScenarioPinned, OutcomeIsBitIdentical) {
  const PinnedOutcome& pinned = GetParam();
  const EngineResult got = runScenario(pinned);
  SCOPED_TRACE("replacement row:\n" + rowFor(pinned, got));
  EXPECT_EQ(got.spawned, pinned.spawned);
  EXPECT_EQ(got.completed, pinned.completed);
  EXPECT_EQ(got.migrations, pinned.migrations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.makespanSec), pinned.makespanBits)
      << got.makespanSec;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.meanStretch),
            pinned.meanStretchBits)
      << got.meanStretch;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.maxStretch), pinned.maxStretchBits)
      << got.maxStretch;
  for (std::size_t tier = 0; tier < 4; ++tier) {
    EXPECT_EQ(got.sla[tier].tasks, pinned.sla[tier][0]) << "SLA" << tier;
    EXPECT_EQ(got.sla[tier].violations, pinned.sla[tier][1]) << "SLA" << tier;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Examples, ScenarioPinned, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<PinnedOutcome>& outcome) {
      return std::string(outcome.param.scenario) + "_" +
             outcome.param.scheduler;
    });

}  // namespace
}  // namespace contend::scenario
