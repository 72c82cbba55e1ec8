// Engine-level tests for the scenario subsystem: the callback contract, the
// determinism guarantee (byte-identical JSON summaries), SLA accounting,
// migration mechanics, and the greedy vs model-informed comparison.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "model/mix.hpp"
#include "model/paragon_model.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario.hpp"
#include "scenario/schedulers.hpp"
#include "scenario/summary.hpp"

namespace contend::scenario {
namespace {

Scenario miniScenario(const std::string& extra = "") {
  const std::string text = R"(machine class:
{
    Number of machines: 2
    Number of cores: 1
    Speed: 1.0
    Comm alpha: 0.0005
    Comm beta: 2e6
}
task class:
{
    Start time: 0.0
    End time: 4.0
    Inter arrival: 0.25
    Expected runtime: 0.1
    Comm fraction: 0.2
    Message words: 100
    SLA type: SLA1
    Seed: 7
}
)" + extra;
  return parseScenario(text, "mini");
}

// ---- callback contract ----------------------------------------------------

class ProbeScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "probe"; }
  void NewTask(Engine& engine, TaskId task) override {
    ++newTasks;
    engine.place(task, nextMachine);
    nextMachine = (nextMachine + 1) % engine.machineCount();
  }
  void TaskComplete(Engine&, TaskId) override { ++completions; }
  void PeriodicCheck(Engine&) override { ++periodics; }
  void MigrationComplete(Engine&, TaskId) override { ++migrationsDone; }

  std::size_t nextMachine = 0;
  int newTasks = 0;
  int completions = 0;
  int periodics = 0;
  int migrationsDone = 0;
};

TEST(ScenarioEngine, CallbacksFireForEveryTaskAndPeriodTick) {
  const Scenario scn = miniScenario();
  ProbeScheduler probe;
  Engine engine(scn, probe);
  const EngineResult result = engine.run();
  EXPECT_EQ(result.spawned, 16u);  // fixed arrivals: 0.0, 0.25, ..., 3.75
  EXPECT_EQ(result.completed, result.spawned);
  EXPECT_EQ(probe.newTasks, 16);
  EXPECT_EQ(probe.completions, 16);
  EXPECT_GT(probe.periodics, 0);
  EXPECT_EQ(probe.migrationsDone, 0);
  EXPECT_GT(result.makespanSec, 3.75);
  EXPECT_GE(result.meanStretch, 0.999);
}

class ForgetfulScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "forgetful"; }
  void NewTask(Engine&, TaskId) override {}  // never places
};

TEST(ScenarioEngine, NewTaskMustPlaceExactlyOnce) {
  const Scenario scn = miniScenario();
  {
    ForgetfulScheduler forgetful;
    Engine engine(scn, forgetful);
    EXPECT_THROW((void)engine.run(), std::logic_error);
  }
  class DoublePlacer final : public Scheduler {
   public:
    [[nodiscard]] std::string name() const override { return "double"; }
    void NewTask(Engine& engine, TaskId task) override {
      engine.place(task, 0);
      engine.place(task, 1);  // second placement must throw
    }
  };
  {
    DoublePlacer doubler;
    Engine engine(scn, doubler);
    EXPECT_THROW((void)engine.run(), std::logic_error);
  }
}

TEST(ScenarioEngine, RunIsSingleShot) {
  const Scenario scn = miniScenario();
  GreedyScheduler greedy;
  Engine engine(scn, greedy);
  (void)engine.run();
  EXPECT_THROW((void)engine.run(), std::logic_error);
}

// ---- determinism ----------------------------------------------------------

std::string runSummary(const Scenario& scn, bool model) {
  std::vector<SchedulerRun> runs;
  if (model) {
    ContentionPricedScheduler scheduler;
    runs.push_back({"model", Engine(scn, scheduler).run()});
  } else {
    GreedyScheduler scheduler;
    runs.push_back({"greedy", Engine(scn, scheduler).run()});
  }
  return summaryJson(scn, runs);
}

TEST(ScenarioEngine, SameScenarioAndSeedGiveByteIdenticalSummaries) {
  const std::string text = R"(machine class:
{
    Number of machines: 3
    Number of cores: 2
    Speed: 1.0
    Comm alpha: 0.0005
    Comm beta: 2e6
}
machine class:
{
    Number of machines: 1
    Number of cores: 2
    Speed: 2.0
    Comm alpha: 0.0002
    Comm beta: 4e6
}
task class:
{
    Start time: 0.0
    End time: 6.0
    Inter arrival: 0.02
    Arrival: poisson
    Expected runtime: 0.08
    Comm fraction: 0.25
    Message words: 300
    SLA type: SLA1
    Seed: 12345
}
task class:
{
    Start time: 0.0
    End time: 6.0
    Inter arrival: 0.1
    Arrival: burst
    Burst size: 5
    Expected runtime: 0.05
    Comm fraction: 0.4
    Message words: 700
    SLA type: SLA2
    Seed: 999
}
)";
  const Scenario first = parseScenario(text, "det");
  const Scenario second = parseScenario(text, "det");
  EXPECT_EQ(runSummary(first, false), runSummary(second, false));
  EXPECT_EQ(runSummary(first, true), runSummary(second, true));
  // And a different seed genuinely changes the run.
  const std::size_t seedAt = text.find("12345");
  std::string reseeded = text;
  reseeded.replace(seedAt, 5, "54321");
  const Scenario third = parseScenario(reseeded, "det");
  EXPECT_NE(runSummary(third, false), runSummary(first, false));
}

// ---- SLA accounting -------------------------------------------------------

TEST(ScenarioEngine, UncontendedTasksNeverViolate) {
  // One core, arrivals spaced 4x the runtime: no overlap, stretch 1.
  const std::string text = R"(machine class:
{
    Number of machines: 1
    Number of cores: 1
    Speed: 1.0
    Comm alpha: 0.0001
    Comm beta: 1e6
}
task class:
{
    Start time: 0.0
    End time: 2.0
    Inter arrival: 0.4
    Expected runtime: 0.1
    SLA type: SLA0
    Seed: 3
}
)";
  const Scenario scn = parseScenario(text, "idle");
  GreedyScheduler greedy;
  const EngineResult result = Engine(scn, greedy).run();
  EXPECT_EQ(result.spawned, 5u);
  EXPECT_EQ(result.sla[0].tasks, 5u);
  EXPECT_EQ(result.sla[0].violations, 0u);
  EXPECT_NEAR(result.meanStretch, 1.0, 1e-6);
  EXPECT_NEAR(result.maxStretch, 1.0, 1e-6);
}

TEST(ScenarioEngine, OverloadedCoreViolatesTightTiers) {
  // One core, offered load 2x capacity: SLA0 must blow its 1.25x budget,
  // SLA3 (best effort) never violates by definition.
  const std::string text = R"(machine class:
{
    Number of machines: 1
    Number of cores: 1
    Speed: 1.0
    Comm alpha: 0.0001
    Comm beta: 1e6
}
task class:
{
    Start time: 0.0
    End time: 2.0
    Inter arrival: 0.1
    Expected runtime: 0.2
    SLA type: SLA0
    Seed: 3
}
task class:
{
    Start time: 0.0
    End time: 2.0
    Inter arrival: 0.5
    Expected runtime: 0.2
    SLA type: SLA3
    Seed: 4
}
)";
  const Scenario scn = parseScenario(text, "hot");
  GreedyScheduler greedy;
  const EngineResult result = Engine(scn, greedy).run();
  EXPECT_GT(result.sla[0].violations, 0u);
  EXPECT_EQ(result.sla[3].violations, 0u);
  EXPECT_GT(result.meanStretch, 1.5);
  EXPECT_EQ(result.violations01(), result.sla[0].violations);
}

// ---- migration mechanics --------------------------------------------------

class OneMigrationScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "one-migration"; }
  void NewTask(Engine& engine, TaskId task) override {
    engine.place(task, 0);  // pile everything on machine 0
  }
  void PeriodicCheck(Engine& engine) override {
    if (migrated || engine.runningTasks().empty()) return;
    const TaskId id = engine.runningTasks().front();
    migratedTask = id;
    // Decision plumbing: the advisor must see machine 1 as the faster home
    // once machine 0 is crowded.
    const ext::MigrationDecision decision = engine.adviseMigration(id, 1);
    if (!decision.migrate) return;
    engine.migrate(id, 1);
    migrated = true;
    EXPECT_EQ(engine.task(id).phase, TaskPhase::kMigrating);
  }
  void MigrationComplete(Engine& engine, TaskId task) override {
    ++completions;
    EXPECT_EQ(task, migratedTask);
    EXPECT_EQ(engine.task(task).machine, 1u);
    EXPECT_EQ(engine.task(task).phase, TaskPhase::kRunning);
  }
  bool migrated = false;
  TaskId migratedTask = 0;
  int completions = 0;
};

TEST(ScenarioEngine, MigrationMovesTaskAndFiresCallback) {
  // Long tasks arriving fast: machine 0 gets crowded, machine 1 stays empty,
  // so the advisor recommends the move.
  const std::string text = R"(machine class:
{
    Number of machines: 2
    Number of cores: 1
    Speed: 1.0
    Comm alpha: 0.0001
    Comm beta: 1e6
}
task class:
{
    Start time: 0.0
    End time: 1.0
    Inter arrival: 0.05
    Expected runtime: 2.0
    Comm fraction: 0.1
    Message words: 100
    State words: 100
    SLA type: SLA2
    Seed: 11
}
)";
  const Scenario scn = parseScenario(text, "migrate");
  OneMigrationScheduler scheduler;
  const EngineResult result = Engine(scn, scheduler).run();
  EXPECT_TRUE(scheduler.migrated);
  EXPECT_EQ(scheduler.completions, 1);
  EXPECT_EQ(result.migrations, 1u);
  EXPECT_EQ(result.completed, result.spawned);
}

TEST(ScenarioEngine, MigrationGuards) {
  const Scenario scn = miniScenario();
  class GuardProbe final : public Scheduler {
   public:
    [[nodiscard]] std::string name() const override { return "guard"; }
    void NewTask(Engine& engine, TaskId task) override {
      engine.place(task, 0);
      if (!checked) {
        checked = true;
        // Same machine and out-of-range machines are rejected.
        EXPECT_THROW(engine.migrate(task, 0), std::invalid_argument);
        EXPECT_THROW(engine.migrate(task, 99), std::out_of_range);
        EXPECT_THROW((void)engine.adviseMigration(task, 0),
                     std::invalid_argument);
      }
    }
    bool checked = false;
  };
  GuardProbe probe;
  const EngineResult result = Engine(scn, probe).run();
  EXPECT_EQ(result.migrations, 0u);
}

// Machines faster than Speed 1 give effective factors below 1, which
// ext::adviseMigration rejects; the engine rescales every factor by a common
// constant first. The rescaled factors must never round to just under 1.
class AdviseOnPlacement final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "advise"; }
  void NewTask(Engine& engine, TaskId task) override {
    engine.place(task, 0);
    const ext::MigrationDecision decision = engine.adviseMigration(task, 1);
    EXPECT_GT(decision.staySec, 0.0);
    ++advised;
  }
  int advised = 0;
};

TEST(ScenarioEngine, AdviseMigrationAcceptsFactorsBelowOne) {
  // A CPU-bound task alone on a Speed-s core has effective factor 1/s, so
  // sweeping s over (1, 2] sweeps the factors the advisor sees over
  // [0.5, 1). Both machines share the speed, so "here" and "there" are near
  // equal and either may be the smallest.
  const std::string text = R"(machine class:
{
    Number of machines: 2
    Number of cores: 1
    Speed: 1.0
    Comm alpha: 0.0005
    Comm beta: 2e6
}
task class:
{
    Start time: 0.0
    End time: 1.0
    Inter arrival: 0.25
    Expected runtime: 0.1
    SLA type: SLA1
    Seed: 7
}
)";
  constexpr int kSteps = 2048;
  for (int k = 0; k < kSteps; ++k) {
    const double factor = 0.5 + 0.5 * k / kSteps;
    Scenario scn = parseScenario(text, "fast");
    scn.machineClasses[0].speed = 1.0 / factor;
    AdviseOnPlacement scheduler;
    ASSERT_NO_THROW((void)Engine(scn, scheduler).run()) << "factor " << factor;
    ASSERT_EQ(scheduler.advised, 4);
  }
}

TEST(ScenarioEngine, FiveClassSpeedTwoScenarioRunsToCompletion) {
  // examples/sla_mix.scn plus a fifth, CPU-bound task class. Its Speed 2.0
  // machines once made the migration advisor throw "slowdown below 1" and
  // abort the run.
  std::ifstream file(std::string(CONTEND_EXAMPLES_DIR) + "/sla_mix.scn");
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf() << R"(
task class:
{
    Name: extra
    Start time: 0.0
    End time: 60.0
    Inter arrival: 0.05
    Arrival: poisson
    Expected runtime: 0.1
    Comm fraction: 0.0
    Message words: 300
    State words: 400
    SLA type: SLA1
    Seed: 2
}
)";
  const Scenario scn = parseScenario(text.str(), "sla_mix_plus_one");
  ASSERT_EQ(scn.taskClasses.size(), 5u);
  ContentionPricedScheduler model;
  EngineResult result;
  ASSERT_NO_THROW(result = Engine(scn, model).run());
  EXPECT_GT(result.spawned, 0u);
  EXPECT_EQ(result.completed, result.spawned);
  EXPECT_GT(result.migrations, 0u);
}

// ---- canonical delay tables ----------------------------------------------

TEST(ScenarioEngine, CanonicalTablesReproduceThePPlusOneLaw) {
  const model::DelayTables tables = canonicalDelayTables(8);
  model::WorkloadMix mix;
  for (int i = 0; i < 3; ++i) mix.add({0.0, 0});  // three pure-CPU apps
  EXPECT_NEAR(model::paragonCompSlowdown(mix, tables), 4.0, 1e-12);
  EXPECT_THROW((void)canonicalDelayTables(0), std::invalid_argument);
}

// ---- greedy vs model ------------------------------------------------------

TEST(ScenarioEngine, ModelInformedSchedulerBeatsGreedyOnHeterogeneousMix) {
  // Shrunk version of examples/sla_mix.scn: a fast class greedy ignores and
  // tight tiers that only fit there.
  const std::string text = R"(machine class:
{
    Name: fast
    Number of machines: 2
    Number of cores: 2
    Speed: 2.0
    Comm alpha: 0.0002
    Comm beta: 4e6
}
machine class:
{
    Name: slow
    Number of machines: 4
    Number of cores: 2
    Speed: 1.0
    Comm alpha: 0.0005
    Comm beta: 2e6
}
task class:
{
    Start time: 0.0
    End time: 10.0
    Inter arrival: 0.04
    Arrival: poisson
    Expected runtime: 0.04
    Comm fraction: 0.15
    Message words: 128
    SLA type: SLA0
    Seed: 101
}
task class:
{
    Start time: 0.0
    End time: 10.0
    Inter arrival: 0.04
    Arrival: poisson
    Expected runtime: 0.08
    Comm fraction: 0.2
    Message words: 256
    SLA type: SLA1
    Seed: 202
}
task class:
{
    Start time: 0.0
    End time: 10.0
    Inter arrival: 0.02
    Arrival: poisson
    Expected runtime: 0.12
    Comm fraction: 0.1
    Message words: 64
    SLA type: SLA3
    Seed: 303
}
)";
  const Scenario scn = parseScenario(text, "hetero");
  GreedyScheduler greedy;
  ContentionPricedScheduler model;
  const EngineResult greedyResult = Engine(scn, greedy).run();
  const EngineResult modelResult = Engine(scn, model).run();
  EXPECT_LT(modelResult.violations01(), greedyResult.violations01());
  EXPECT_LE(modelResult.makespanSec, greedyResult.makespanSec);
  // The summary records the comparison verdict.
  std::vector<SchedulerRun> runs = {{"greedy", greedyResult},
                                    {"model", modelResult}};
  const std::string json = summaryJson(scn, runs);
  EXPECT_NE(json.find("\"model_beats_greedy\": true"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace contend::scenario
