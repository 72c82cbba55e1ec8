// online.hpp — run-time contention tracking for a scheduler daemon.
//
// §2: "The slowdown factor reflects the current load of the system and is
// always calculated at run-time. It can be recalculated every time the
// system status changes or when new applications arrive... it must be
// efficient to compute relative to how quickly applications enter and leave
// the system." This module is that run-time half: it maintains the workload
// mix as applications register and deregister (O(p) add, O(p²) worst-case
// remove — the paper's bounds) and caches the current slowdowns. Its memory
// is bounded by the live mix: nothing is kept per past event.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/io_tables.hpp"
#include "model/mix.hpp"
#include "model/paragon_model.hpp"
#include "model/predictor.hpp"

namespace contend::sched {

/// Everything needed to rebuild a tracker at an exact point in its history
/// (the serving layer's crash-recovery snapshot). The Poisson-binomial
/// coefficients are carried verbatim so the restored slowdowns are
/// bit-identical to the exported ones — re-deriving them from the app list
/// can differ in final ulps once departures have gone through the
/// deconvolution fast path.
struct TrackerCheckpoint {
  std::vector<std::uint64_t> ids;  // parallel to apps, in mix order
  std::vector<model::CompetingApp> apps;
  std::vector<double> commPoly;  // size p + 1
  std::vector<double> compPoly;  // size p + 1
  std::vector<double> ioPoly;    // size p + 1
  std::uint64_t nextId = 1;
  double lastEventTimeSec = 0.0;
};

/// Tracks the applications sharing the front-end and exposes up-to-date
/// slowdown factors. Not thread-safe by design: a scheduler daemon owns it.
class OnlineContentionTracker {
 public:
  explicit OnlineContentionTracker(model::ParagonPlatformModel platform);

  /// Registers an application; returns its id. O(p).
  std::uint64_t applicationArrived(double timeSec,
                                   const model::CompetingApp& app);

  /// Deregisters and returns the departed application. O(p²) worst case
  /// (mix regeneration). Throws std::invalid_argument for unknown ids.
  model::CompetingApp applicationDeparted(double timeSec,
                                          std::uint64_t applicationId);

  [[nodiscard]] int activeApplications() const;
  [[nodiscard]] double compSlowdown() const { return compSlowdown_; }
  [[nodiscard]] double commSlowdown() const { return commSlowdown_; }
  /// Slowdown a newcomer's disk-I/O phases would see against the live mix
  /// (the §4 extension): 1 + Σ pio_i·ioFromIo + Σ pcomp_i·ioFromComp over
  /// the canonical I/O tables. Exactly 1.0 for an empty mix.
  [[nodiscard]] double ioSlowdown() const { return ioSlowdown_; }
  [[nodiscard]] const model::WorkloadMix& mix() const { return mix_; }

  /// Contention-adjusted prediction helpers (delegate to the model).
  [[nodiscard]] double predictFrontEndComp(double dedicatedSec) const;
  [[nodiscard]] double predictCommToBackend(
      std::span<const model::DataSet> dataSets) const;
  [[nodiscard]] double predictCommFromBackend(
      std::span<const model::DataSet> dataSets) const;

  /// Captures the exact live state (ids, apps, distributions, id counter).
  [[nodiscard]] TrackerCheckpoint exportCheckpoint() const;

  /// Replaces the live state with a previously exported checkpoint and
  /// recomputes the slowdowns from the restored distributions. Throws
  /// std::invalid_argument on an internally inconsistent checkpoint
  /// (mismatched vector sizes, duplicate ids, nextId not past every live
  /// id).
  void restoreCheckpoint(const TrackerCheckpoint& checkpoint);

  /// Replaces the platform model (delay tables + link parameters) in place
  /// and recomputes the slowdowns for the live mix — the online half of a
  /// recalibration swap. Throws std::invalid_argument if the new tables are
  /// invalid or cover fewer contenders than are currently live.
  void recalibrate(model::ParagonPlatformModel platform);

  [[nodiscard]] const model::ParagonPlatformModel& platform() const {
    return platform_;
  }

 private:
  void recomputeSlowdowns();

  model::ParagonPlatformModel platform_;
  // Canonical I/O tables sized to the platform's delay-table depth. Not
  // part of CALIBRATE table swaps: they are a fixed convention (like the
  // scenario engine's canonical comm tables), so recovery and replication
  // reproduce them without journaling a single byte.
  model::IoDelayTables ioTables_;
  model::WorkloadMix mix_;
  std::vector<std::uint64_t> idsByMixIndex_;  // parallel to mix_.apps()
  std::uint64_t nextId_ = 1;
  double compSlowdown_ = 1.0;
  double commSlowdown_ = 1.0;
  double ioSlowdown_ = 1.0;
  double lastEventTime_ = 0.0;
};

}  // namespace contend::sched
