#include "sched/online.hpp"

#include <algorithm>
#include <stdexcept>

namespace contend::sched {

OnlineContentionTracker::OnlineContentionTracker(
    model::ParagonPlatformModel platform)
    : platform_(std::move(platform)) {
  platform_.delays.validate();
  ioTables_ = model::canonicalIoDelayTables(platform_.delays.maxContenders());
  recomputeSlowdowns();
}

std::uint64_t OnlineContentionTracker::applicationArrived(
    double timeSec, const model::CompetingApp& app) {
  if (timeSec < lastEventTime_) {
    throw std::invalid_argument(
        "OnlineContentionTracker: events must arrive in time order");
  }
  if (mix_.p() >= platform_.delays.maxContenders()) {
    throw std::runtime_error(
        "OnlineContentionTracker: delay tables cover only " +
        std::to_string(platform_.delays.maxContenders()) +
        " contenders; recalibrate with a larger maxContenders");
  }
  mix_.add(app);  // O(p)
  const std::uint64_t id = nextId_++;
  idsByMixIndex_.push_back(id);
  lastEventTime_ = timeSec;
  recomputeSlowdowns();
  return id;
}

model::CompetingApp OnlineContentionTracker::applicationDeparted(
    double timeSec, std::uint64_t applicationId) {
  if (timeSec < lastEventTime_) {
    throw std::invalid_argument(
        "OnlineContentionTracker: events must arrive in time order");
  }
  const auto it = std::find(idsByMixIndex_.begin(), idsByMixIndex_.end(),
                            applicationId);
  if (it == idsByMixIndex_.end()) {
    throw std::invalid_argument(
        "OnlineContentionTracker: unknown application id " +
        std::to_string(applicationId));
  }
  const auto index =
      static_cast<std::size_t>(it - idsByMixIndex_.begin());
  const model::CompetingApp departed = mix_.apps()[index];
  mix_.removeAt(index);  // O(p) fast path, O(p²) regeneration fallback
  idsByMixIndex_.erase(it);
  lastEventTime_ = timeSec;
  recomputeSlowdowns();
  return departed;
}

int OnlineContentionTracker::activeApplications() const { return mix_.p(); }

double OnlineContentionTracker::predictFrontEndComp(double dedicatedSec) const {
  return dedicatedSec * compSlowdown_;
}

double OnlineContentionTracker::predictCommToBackend(
    std::span<const model::DataSet> dataSets) const {
  return model::dcomm(platform_.toBackend, dataSets) * commSlowdown_;
}

double OnlineContentionTracker::predictCommFromBackend(
    std::span<const model::DataSet> dataSets) const {
  return model::dcomm(platform_.fromBackend, dataSets) * commSlowdown_;
}

TrackerCheckpoint OnlineContentionTracker::exportCheckpoint() const {
  TrackerCheckpoint checkpoint;
  checkpoint.ids = idsByMixIndex_;
  const std::span<const model::CompetingApp> apps = mix_.apps();
  checkpoint.apps.assign(apps.begin(), apps.end());
  const std::span<const double> comm = mix_.commCoefficients();
  checkpoint.commPoly.assign(comm.begin(), comm.end());
  const std::span<const double> comp = mix_.compCoefficients();
  checkpoint.compPoly.assign(comp.begin(), comp.end());
  const std::span<const double> io = mix_.ioCoefficients();
  checkpoint.ioPoly.assign(io.begin(), io.end());
  checkpoint.nextId = nextId_;
  checkpoint.lastEventTimeSec = lastEventTime_;
  return checkpoint;
}

void OnlineContentionTracker::restoreCheckpoint(
    const TrackerCheckpoint& checkpoint) {
  if (checkpoint.ids.size() != checkpoint.apps.size()) {
    throw std::invalid_argument(
        "restoreCheckpoint: ids and apps must be parallel");
  }
  std::vector<std::uint64_t> sorted = checkpoint.ids;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("restoreCheckpoint: duplicate application id");
  }
  if (!sorted.empty() && checkpoint.nextId <= sorted.back()) {
    throw std::invalid_argument(
        "restoreCheckpoint: nextId must be past every live id");
  }
  if (static_cast<int>(checkpoint.apps.size()) >
      platform_.delays.maxContenders()) {
    throw std::invalid_argument(
        "restoreCheckpoint: more apps than the delay tables cover");
  }
  mix_.restore(checkpoint.apps, checkpoint.commPoly, checkpoint.compPoly,
               checkpoint.ioPoly);
  idsByMixIndex_ = checkpoint.ids;
  nextId_ = checkpoint.nextId;
  lastEventTime_ = checkpoint.lastEventTimeSec;
  recomputeSlowdowns();
}

void OnlineContentionTracker::recalibrate(
    model::ParagonPlatformModel platform) {
  platform.delays.validate();
  if (mix_.p() > platform.delays.maxContenders()) {
    throw std::invalid_argument(
        "recalibrate: new delay tables cover " +
        std::to_string(platform.delays.maxContenders()) +
        " contenders but " + std::to_string(mix_.p()) + " are live");
  }
  platform_ = std::move(platform);
  ioTables_ = model::canonicalIoDelayTables(platform_.delays.maxContenders());
  recomputeSlowdowns();
}

void OnlineContentionTracker::recomputeSlowdowns() {
  // O(p) given the maintained distributions (the paper's headline bound).
  compSlowdown_ = model::paragonCompSlowdown(mix_, platform_.delays);
  commSlowdown_ = model::paragonCommSlowdown(mix_, platform_.delays);
  ioSlowdown_ = model::mixIoSlowdown(mix_, ioTables_);
}

}  // namespace contend::sched
