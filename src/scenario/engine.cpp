#include "scenario/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "model/paragon_model.hpp"

namespace contend::scenario {

void Scheduler::TaskComplete(Engine&, TaskId) {}
void Scheduler::PeriodicCheck(Engine&) {}
void Scheduler::MigrationComplete(Engine&, TaskId) {}

model::DelayTables canonicalDelayTables(int maxContenders) {
  if (maxContenders < 1) {
    throw std::invalid_argument("canonicalDelayTables: need >= 1 contender");
  }
  model::DelayTables tables;
  tables.jBins = {1, 500, 1000};
  const double binFactor[3] = {0.05, 0.20, 0.35};
  tables.compFromComm.assign(3, {});
  for (int i = 1; i <= maxContenders; ++i) {
    tables.commFromComp.push_back(0.5 * i);
    tables.commFromComm.push_back(0.8 * i);
    for (std::size_t b = 0; b < 3; ++b) {
      tables.compFromComm[b].push_back(binFactor[b] * i);
    }
  }
  tables.validate();
  return tables;
}

namespace {

model::PiecewiseCommParams linkFor(const MachineClass& mc) {
  model::PiecewiseCommParams link;
  link.small = {mc.commAlphaSec, mc.commBetaWordsPerSec};
  // Above the knee the per-word cost doubles (effective bandwidth halves),
  // mirroring the measured Paragon two-piece behaviour.
  link.large = {mc.commAlphaSec, mc.commBetaWordsPerSec / 2.0};
  link.thresholdWords = mc.commThresholdWords;
  return link;
}

}  // namespace

Engine::Engine(const Scenario& scenario, Scheduler& scheduler,
               EngineConfig config)
    : scenario_(scenario),
      scheduler_(scheduler),
      config_(config),
      delays_(canonicalDelayTables(config.maxContendersPerCore)),
      ioTables_(model::canonicalIoDelayTables(config.maxContendersPerCore)) {
  if (scenario_.machineClasses.empty() || scenario_.taskClasses.empty()) {
    throw std::invalid_argument("Engine: scenario has no machines or tasks");
  }
  maxSpeed_ = scenario_.maxSpeed();
  traceJobs_.resize(scenario_.taskClasses.size());
  traceOrder_.resize(scenario_.taskClasses.size());
  traceCursor_.assign(scenario_.taskClasses.size(), 0);
  for (std::size_t k = 0; k < scenario_.taskClasses.size(); ++k) {
    const TaskClass& tc = scenario_.taskClasses[k];
    if (tc.tracePath.empty()) continue;
    traceJobs_[k] = trace::profileTrace(trace::parseTraceFile(tc.tracePath));
    std::vector<std::size_t>& order = traceOrder_[k];
    order.resize(traceJobs_[k].size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    // Jobs spawn in arrival order; equal times keep file order (stable).
    std::stable_sort(order.begin(), order.end(),
                     [this, k](std::size_t a, std::size_t b) {
                       return traceJobs_[k][a].arriveSec <
                              traceJobs_[k][b].arriveSec;
                     });
  }
  for (std::size_t k = 0; k < scenario_.machineClasses.size(); ++k) {
    const MachineClass& mc = scenario_.machineClasses[k];
    model::ParagonPlatformModel platform;
    platform.toBackend = linkFor(mc);
    platform.fromBackend = platform.toBackend;
    platform.delays = delays_;
    for (int i = 0; i < mc.count; ++i) {
      MachineState machine;
      machine.info.machineClass = k;
      machine.info.name = mc.name + "[" + std::to_string(i) + "]";
      machine.info.cores = mc.cores;
      machine.info.speed = mc.speed;
      machine.link = platform.toBackend;
      machine.cores.reserve(static_cast<std::size_t>(mc.cores));
      for (int c = 0; c < mc.cores; ++c) {
        Core core;
        core.tracker =
            std::make_unique<sched::OnlineContentionTracker>(platform);
        machine.cores.push_back(std::move(core));
      }
      machines_.push_back(std::move(machine));
    }
  }
}

EngineResult Engine::run() {
  if (ran_) throw std::logic_error("Engine::run: already ran");
  ran_ = true;
  arrivals_.reserve(scenario_.taskClasses.size());
  arrivalsDone_.assign(scenario_.taskClasses.size(), false);
  for (std::size_t k = 0; k < scenario_.taskClasses.size(); ++k) {
    arrivals_.push_back(
        scenario_.taskClasses[k].tracePath.empty()
            ? std::make_unique<ArrivalSequence>(scenario_.taskClasses[k])
            : nullptr);
    spawnFromClass(k);
  }
  schedulePeriodic();
  queue_.run();
  result_.events = queue_.executedEvents();
  result_.meanStretch =
      result_.completed == 0
          ? 0.0
          : stretchSum_ / static_cast<double>(result_.completed);
  return result_;
}

// ---- queries --------------------------------------------------------------

double Engine::nowSec() const { return toSeconds(queue_.now()); }

const MachineInfo& Engine::machineInfo(std::size_t m) const {
  return machines_.at(m).info;
}

int Engine::machineLoad(std::size_t m) const {
  int load = 0;
  for (const Core& core : machines_.at(m).cores) {
    load += static_cast<int>(core.resident.size());
  }
  return load;
}

std::size_t Engine::placementCore(std::size_t m) const {
  const MachineState& machine = machines_.at(m);
  std::size_t best = 0;
  for (std::size_t c = 1; c < machine.cores.size(); ++c) {
    if (machine.cores[c].resident.size() <
        machine.cores[best].resident.size()) {
      best = c;
    }
  }
  return best;
}

const sched::OnlineContentionTracker& Engine::coreTracker(
    std::size_t m, std::size_t core) const {
  return *machines_.at(m).cores.at(core).tracker;
}

const TaskState& Engine::task(TaskId id) const { return tasks_.at(id); }

const std::vector<trace::JobProfile>& Engine::traceJobs(
    std::size_t taskClass) const {
  return traceJobs_.at(taskClass);
}

double Engine::ioSlowdown(TaskId id) const {
  const TaskState& t = tasks_.at(id);
  if (t.phase != TaskPhase::kRunning) {
    throw std::logic_error("Engine::ioSlowdown: task is not running");
  }
  if (t.ioFraction <= 0.0) return 1.0;
  return model::mixIoSlowdown(deviceOthers(t.machine, id), ioTables_);
}

double Engine::bestDedicatedSec(TaskId id) const {
  const TaskState& t = tasks_.at(id);
  // Communication and disk I/O do not speed up with the machine's CPU
  // multiplier; only the compute share does.
  return t.dedicatedSec *
         ((1.0 - t.commFraction - t.ioFraction) / maxSpeed_ +
          t.commFraction + t.ioFraction);
}

double Engine::slaStretchBudget(SlaTier tier) const {
  return config_.slaStretchBudget[static_cast<std::size_t>(tier)];
}

namespace {
double remainingNowSec(const TaskState& t, double nowSec) {
  if (t.phase != TaskPhase::kRunning) return t.remainingSec;
  const double elapsed = nowSec - t.lastUpdateSec;
  return std::max(0.0, t.remainingSec - elapsed * t.ratePerSec);
}
}  // namespace

double Engine::projectedStretch(TaskId id) const {
  const TaskState& t = tasks_.at(id);
  const double reference = bestDedicatedSec(id);
  if (t.phase == TaskPhase::kDone) {
    return (t.finishSec - t.arrivalSec) / reference;
  }
  const double now = nowSec();
  const double projectedFinish =
      now + remainingNowSec(t, now) / t.ratePerSec;
  return (projectedFinish - t.arrivalSec) / reference;
}

double Engine::effectiveFactor(const TaskState& task, std::size_t m,
                               double compSlowdown, double commSlowdown,
                               double ioSlowdown) const {
  const double f = task.commFraction;
  const double g = task.ioFraction;
  return (1.0 - f - g) * compSlowdown / machines_[m].info.speed +
         f * commSlowdown + g * ioSlowdown;
}

model::WorkloadMix Engine::deviceOthers(std::size_t m, TaskId id) const {
  const MachineState& machine = machines_[m];
  model::WorkloadMix others = machine.deviceMix;
  for (std::size_t i = 0; i < machine.deviceResident.size(); ++i) {
    if (machine.deviceResident[i] == id) {
      others.removeAt(i);
      break;
    }
  }
  return others;
}

double Engine::predictedCompletionSec(TaskId id, std::size_t m) const {
  const TaskState& t = tasks_.at(id);
  const sched::OnlineContentionTracker& tracker =
      coreTracker(m, placementCore(m));
  const double remaining = remainingNowSec(t, nowSec());
  // The PREDICT arithmetic: dedicated parts times the mix slowdowns the
  // tracker maintains (the candidate is not yet in the mix, so the tracker's
  // view is exactly the competition the newcomer would face). The I/O part
  // prices the machine-wide device mix the same way.
  const double compSec =
      tracker.predictFrontEndComp(remaining *
                                  (1.0 - t.commFraction - t.ioFraction)) /
      machines_[m].info.speed;
  const double commSec = remaining * t.commFraction * tracker.commSlowdown();
  double ioSec = 0.0;
  if (t.ioFraction > 0.0) {
    ioSec = remaining * t.ioFraction *
            model::mixIoSlowdown(deviceOthers(m, id), ioTables_);
  }
  return compSec + commSec + ioSec;
}

double Engine::stateTransferSec(TaskId id, std::size_t m) const {
  const TaskState& t = tasks_.at(id);
  if (t.stateWords <= 0) return 0.0;
  const model::DataSet state{1, t.stateWords};
  const sched::OnlineContentionTracker& tracker =
      coreTracker(m, placementCore(m));
  return tracker.predictCommToBackend(std::span(&state, 1));
}

double Engine::predictedDisruptionSec(
    TaskId id, std::size_t m, const std::array<double, 4>& tierWeight) const {
  const TaskState& t = tasks_.at(id);
  const Core& core = machines_.at(m).cores[placementCore(m)];
  const model::WorkloadMix& full = core.tracker->mix();
  const model::CompetingApp candidate{t.commFraction, t.messageWords,
                                      t.ioFraction, t.ioOps};
  const double now = nowSec();
  double total = 0.0;
  for (std::size_t i = 0; i < core.resident.size(); ++i) {
    const TaskState& resident = tasks_[core.resident[i]];
    model::WorkloadMix withCandidate = full;
    withCandidate.removeAt(i);  // resident's own entry
    withCandidate.add(candidate);
    double io = 1.0;
    if (resident.ioFraction > 0.0) {
      model::WorkloadMix device = deviceOthers(m, core.resident[i]);
      if (t.ioFraction > 0.0) device.add(candidate);
      io = model::mixIoSlowdown(device, ioTables_);
    }
    const double after = effectiveFactor(
        resident, m,
        model::paragonCompSlowdown(withCandidate, delays_) +
            model::mixIoCompExcess(withCandidate, ioTables_),
        model::paragonCommSlowdown(withCandidate, delays_), io);
    // The resident's live rate already reflects the mix without the
    // candidate, so 1/rate is the "before" factor.
    const double delta = std::max(0.0, after - 1.0 / resident.ratePerSec);
    total += tierWeight[static_cast<std::size_t>(resident.sla)] *
             remainingNowSec(resident, now) * delta;
  }
  return total;
}

ext::MigrationDecision Engine::adviseMigration(TaskId id,
                                               std::size_t m) const {
  const TaskState& t = tasks_.at(id);
  if (t.phase != TaskPhase::kRunning) {
    throw std::logic_error("adviseMigration: task is not running");
  }
  if (m == t.machine) {
    throw std::invalid_argument("adviseMigration: task already on machine");
  }
  const sched::OnlineContentionTracker& target =
      coreTracker(m, placementCore(m));
  const double here = 1.0 / t.ratePerSec;
  const double there = effectiveFactor(
      t, m,
      target.compSlowdown() + model::mixIoCompExcess(target.mix(), ioTables_),
      target.commSlowdown(),
      t.ioFraction > 0.0
          ? model::mixIoSlowdown(deviceOthers(m, id), ioTables_)
          : 1.0);
  const double transferSlowdown = target.commSlowdown();
  // Speed > 1 machines make the effective factor drop below 1, which the
  // advisor's contract forbids; scaling every factor by a common constant
  // leaves the stay/move inequality unchanged. Dividing by the smallest
  // factor lifts it to exactly 1 (x / x == 1 in IEEE arithmetic, where
  // x * (1 / x) can round below 1), and correctly rounded division keeps
  // every larger factor >= 1. With no factor below 1, low is 1.0 and the
  // division is exact.
  const double low = std::min({1.0, here, there, transferSlowdown});
  std::vector<model::DataSet> state;
  if (t.stateWords > 0) state.push_back({1, t.stateWords});
  return ext::adviseMigration(remainingNowSec(t, nowSec()), here / low,
                              there / low, machines_.at(m).link, state,
                              transferSlowdown / low,
                              config_.migrationHysteresis);
}

// ---- actions --------------------------------------------------------------

void Engine::place(TaskId id, std::size_t m) {
  if (!placeArmed_ || id != placedDuringNewTask_) {
    throw std::logic_error(
        "Engine::place: only valid for the task delivered by NewTask");
  }
  if (m >= machines_.size()) {
    throw std::out_of_range("Engine::place: bad machine index");
  }
  placeArmed_ = false;
  const std::size_t core = placementCore(m);
  TaskState& t = tasks_[id];
  const double now = nowSec();
  const std::uint64_t trackerId =
      machines_[m].cores[core].tracker->applicationArrived(
          now, {t.commFraction, t.messageWords, t.ioFraction, t.ioOps});
  machines_[m].cores[core].resident.push_back(id);
  addToDevice(m, id);
  t.phase = TaskPhase::kRunning;
  t.machine = m;
  t.core = core;
  t.trackerId = trackerId;
  t.lastUpdateSec = now;
  running_.push_back(id);
  refreshAfterChange(m, core, t.ioFraction > 0.0);
}

void Engine::migrate(TaskId id, std::size_t m) {
  TaskState& t = tasks_.at(id);
  if (t.phase != TaskPhase::kRunning) {
    throw std::logic_error("Engine::migrate: task is not running");
  }
  if (m >= machines_.size()) {
    throw std::out_of_range("Engine::migrate: bad machine index");
  }
  if (m == t.machine) {
    throw std::invalid_argument("Engine::migrate: task already on machine");
  }
  advanceProgress(t);
  // Freeze the transfer cost before the departure mutates the mixes.
  const double transferSec = stateTransferSec(id, m);
  const std::size_t sourceMachine = t.machine;
  const std::size_t sourceCore = t.core;
  removeFromCore(id);
  eraseRunning(id);
  t.phase = TaskPhase::kMigrating;
  ++t.generation;  // invalidate any pending completion event
  ++t.migrations;
  ++result_.migrations;
  refreshAfterChange(sourceMachine, sourceCore, t.ioFraction > 0.0);
  queue_.scheduleAfter(std::max<Tick>(fromSeconds(transferSec), 0),
                       [this, id, m] { onMigrationArrived(id, m); });
}

void Engine::onMigrationArrived(TaskId id, std::size_t m) {
  TaskState& t = tasks_[id];
  const std::size_t core = placementCore(m);
  const double now = nowSec();
  const std::uint64_t trackerId =
      machines_[m].cores[core].tracker->applicationArrived(
          now, {t.commFraction, t.messageWords, t.ioFraction, t.ioOps});
  machines_[m].cores[core].resident.push_back(id);
  addToDevice(m, id);
  t.phase = TaskPhase::kRunning;
  t.machine = m;
  t.core = core;
  t.trackerId = trackerId;
  t.lastUpdateSec = now;
  running_.push_back(id);
  refreshAfterChange(m, core, t.ioFraction > 0.0);
  scheduler_.MigrationComplete(*this, id);
}

// ---- spawning -------------------------------------------------------------

void Engine::spawnFromClass(std::size_t taskClass) {
  if (!scenario_.taskClasses[taskClass].tracePath.empty()) {
    const std::size_t cursor = traceCursor_[taskClass];
    if (cursor >= traceOrder_[taskClass].size()) {
      arrivalsDone_[taskClass] = true;
      return;
    }
    const trace::JobProfile& job =
        traceJobs_[taskClass][traceOrder_[taskClass][cursor]];
    scheduleArrival(taskClass, job.arriveSec);
    return;
  }
  const auto next = arrivals_[taskClass]->next();
  if (!next) {
    arrivalsDone_[taskClass] = true;
    return;
  }
  scheduleArrival(taskClass, *next);
}

void Engine::scheduleArrival(std::size_t taskClass, double whenSec) {
  queue_.scheduleAt(std::max<Tick>(fromSeconds(whenSec), queue_.now()),
                    [this, taskClass, whenSec] {
                      onArrival(taskClass, whenSec);
                    });
}

void Engine::onArrival(std::size_t taskClass, double) {
  if (result_.spawned >= config_.maxTasks) {
    throw std::runtime_error("Engine: scenario exceeds the " +
                             std::to_string(config_.maxTasks) +
                             "-task spawn cap");
  }
  const TaskClass& tc = scenario_.taskClasses[taskClass];
  const TaskId id = tasks_.size();
  TaskState t;
  t.taskClass = taskClass;
  t.sla = tc.sla;
  t.arrivalSec = nowSec();
  if (!tc.tracePath.empty()) {
    const std::size_t jobIndex =
        traceOrder_[taskClass][traceCursor_[taskClass]++];
    const trace::JobProfile& job = traceJobs_[taskClass][jobIndex];
    t.dedicatedSec = job.dedicatedSec;
    t.commFraction = job.commFraction;
    t.ioFraction = job.ioFraction;
    t.ioOps = job.ioOps;
    t.messageWords = job.messageWords;
    t.stateWords = tc.stateWords > 0 ? tc.stateWords : 4 * job.messageWords;
    t.traceJob = static_cast<std::int64_t>(jobIndex);
    t.remainingSec = job.dedicatedSec;
  } else {
    t.dedicatedSec = tc.runtimeSec;
    t.commFraction = tc.commFraction;
    t.ioFraction = tc.ioFraction;
    t.ioOps = tc.ioOps;
    t.messageWords = tc.messageWords;
    t.stateWords = tc.stateWords;
    t.remainingSec = tc.runtimeSec;
  }
  t.phase = TaskPhase::kPending;
  t.ratePerSec = 1.0;
  t.lastUpdateSec = t.arrivalSec;
  tasks_.push_back(t);
  ++result_.spawned;
  ++activeTasks_;
  placedDuringNewTask_ = id;
  placeArmed_ = true;
  scheduler_.NewTask(*this, id);
  if (placeArmed_) {
    throw std::logic_error("Scheduler::NewTask must place the task");
  }
  spawnFromClass(taskClass);  // chain the class's next arrival
}

// ---- periodic check -------------------------------------------------------

void Engine::schedulePeriodic() {
  if (periodicScheduled_) return;
  periodicScheduled_ = true;
  queue_.scheduleAfter(std::max<Tick>(fromSeconds(config_.periodicCheckSec), 1),
                       [this] { onPeriodic(); });
}

void Engine::onPeriodic() {
  periodicScheduled_ = false;
  bool arrivalsPending = false;
  for (const bool done : arrivalsDone_) {
    if (!done) {
      arrivalsPending = true;
      break;
    }
  }
  if (activeTasks_ == 0 && !arrivalsPending) return;  // let the queue drain
  scheduler_.PeriodicCheck(*this);
  schedulePeriodic();
}

// ---- completion & progress ------------------------------------------------

void Engine::scheduleCompletion(TaskId id) {
  TaskState& t = tasks_[id];
  const std::uint64_t generation = ++t.generation;
  const double dt = t.remainingSec / t.ratePerSec;
  queue_.scheduleAfter(std::max<Tick>(fromSeconds(dt), 0),
                       [this, id, generation] {
                         onCompletion(id, generation);
                       });
}

void Engine::onCompletion(TaskId id, std::uint64_t generation) {
  TaskState& t = tasks_[id];
  if (t.phase != TaskPhase::kRunning || generation != t.generation) return;
  completeTask(id);
}

void Engine::completeTask(TaskId id) {
  TaskState& t = tasks_[id];
  advanceProgress(t);
  const std::size_t machine = t.machine;
  const std::size_t core = t.core;
  removeFromCore(id);
  eraseRunning(id);
  t.phase = TaskPhase::kDone;
  t.remainingSec = 0.0;
  t.finishSec = nowSec();
  --activeTasks_;
  ++result_.completed;
  result_.makespanSec = std::max(result_.makespanSec, t.finishSec);
  const double stretch =
      (t.finishSec - t.arrivalSec) / bestDedicatedSec(id);
  stretchSum_ += stretch;
  result_.maxStretch = std::max(result_.maxStretch, stretch);
  SlaTally& tally = result_.sla[static_cast<std::size_t>(t.sla)];
  ++tally.tasks;
  if (stretch > config_.slaStretchBudget[static_cast<std::size_t>(t.sla)]) {
    ++tally.violations;
  }
  refreshAfterChange(machine, core, t.ioFraction > 0.0);
  scheduler_.TaskComplete(*this, id);
}

void Engine::refreshCore(std::size_t m, std::size_t coreIndex) {
  Core& core = machines_[m].cores[coreIndex];
  const model::WorkloadMix& full = core.tracker->mix();
  for (std::size_t i = 0; i < core.resident.size(); ++i) {
    TaskState& t = tasks_[core.resident[i]];
    advanceProgress(t);
    // The mix as this task sees it: everyone on the core but itself. The
    // compute slowdown gains the I/O-from-compute excess of core-mates that
    // touch the disk (exactly 0.0 when none do); the disk slowdown prices
    // the machine-wide device population.
    model::WorkloadMix others = full;
    others.removeAt(i);
    const double comp = model::paragonCompSlowdown(others, delays_) +
                        model::mixIoCompExcess(others, ioTables_);
    const double comm = model::paragonCommSlowdown(others, delays_);
    const double io =
        t.ioFraction > 0.0
            ? model::mixIoSlowdown(deviceOthers(m, core.resident[i]),
                                   ioTables_)
            : 1.0;
    t.ratePerSec = 1.0 / effectiveFactor(t, m, comp, comm, io);
    scheduleCompletion(core.resident[i]);
  }
}

void Engine::refreshAfterChange(std::size_t m, std::size_t coreIndex,
                                bool ioBearing) {
  if (!ioBearing) {
    refreshCore(m, coreIndex);
    return;
  }
  // The shared device couples every core on the machine.
  for (std::size_t c = 0; c < machines_[m].cores.size(); ++c) {
    refreshCore(m, c);
  }
}

void Engine::advanceProgress(TaskState& t) const {
  const double now = nowSec();
  if (t.phase == TaskPhase::kRunning && now > t.lastUpdateSec) {
    t.remainingSec = std::max(
        0.0, t.remainingSec - (now - t.lastUpdateSec) * t.ratePerSec);
  }
  t.lastUpdateSec = now;
}

void Engine::addToDevice(std::size_t m, TaskId id) {
  const TaskState& t = tasks_[id];
  if (t.ioFraction <= 0.0) return;
  machines_[m].deviceMix.add(
      {t.commFraction, t.messageWords, t.ioFraction, t.ioOps});
  machines_[m].deviceResident.push_back(id);
}

void Engine::removeFromCore(TaskId id) {
  TaskState& t = tasks_[id];
  Core& core = machines_[t.machine].cores[t.core];
  const auto it =
      std::find(core.resident.begin(), core.resident.end(), id);
  if (it == core.resident.end()) {
    throw std::logic_error("Engine: task missing from its core");
  }
  core.tracker->applicationDeparted(nowSec(), t.trackerId);
  core.resident.erase(it);
  if (t.ioFraction > 0.0) {
    MachineState& machine = machines_[t.machine];
    const auto dit = std::find(machine.deviceResident.begin(),
                               machine.deviceResident.end(), id);
    if (dit == machine.deviceResident.end()) {
      throw std::logic_error("Engine: task missing from its machine's disk");
    }
    machine.deviceMix.removeAt(
        static_cast<std::size_t>(dit - machine.deviceResident.begin()));
    machine.deviceResident.erase(dit);
  }
}

void Engine::eraseRunning(TaskId id) {
  const auto it = std::find(running_.begin(), running_.end(), id);
  if (it != running_.end()) running_.erase(it);
}

}  // namespace contend::scenario
