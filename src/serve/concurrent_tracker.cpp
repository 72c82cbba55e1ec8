#include "serve/concurrent_tracker.hpp"

#include <bit>
#include <stdexcept>
#include <string>

#include "model/cm2_model.hpp"  // model::shouldOffload (equation 1)
#include "model/comm_model.hpp"
#include "serve/replication.hpp"

namespace contend::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnvMix(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

/// splitmix64's finalizer. FNV-1a over an app's mostly zero bytes ends in
/// multiplications by the prime, which are linear mod 2^64, so a plain sum
/// of such hashes collides for different mixes; every output bit here
/// depends on every input bit.
std::uint64_t finalize(std::uint64_t hash) {
  hash = (hash ^ (hash >> 30)) * 0xbf58476d1ce4e5b9ull;
  hash = (hash ^ (hash >> 27)) * 0x94d049bb133111ebull;
  return hash ^ (hash >> 31);
}

/// Hash of one competing app. The mix signature is the wrap-around *sum* of
/// these, which makes it order-independent — the Poisson-binomial
/// distributions only depend on the multiset of apps, not their order.
std::uint64_t appHash(const model::CompetingApp& app) {
  std::uint64_t hash = fnvMix(kFnvOffset,
                              std::bit_cast<std::uint64_t>(app.commFraction));
  hash = fnvMix(hash, static_cast<std::uint64_t>(app.messageWords));
  hash = fnvMix(hash, std::bit_cast<std::uint64_t>(app.ioFraction));
  return finalize(fnvMix(hash, static_cast<std::uint64_t>(app.ioOps)));
}

/// Hash of the prediction-relevant task fields (the name is presentation
/// only, so tasks differing only in name share cache entries).
std::uint64_t taskHash(const tools::TaskSpec& task) {
  std::uint64_t hash = fnvMix(kFnvOffset,
                              std::bit_cast<std::uint64_t>(task.frontEndSec));
  hash = fnvMix(hash, std::bit_cast<std::uint64_t>(task.backEndSec));
  hash = fnvMix(hash, std::bit_cast<std::uint64_t>(task.ioFraction));
  hash = fnvMix(hash, static_cast<std::uint64_t>(task.ioOps));
  for (const auto* sets : {&task.toBackend, &task.fromBackend}) {
    hash = fnvMix(hash, sets->size());
    for (const model::DataSet& set : *sets) {
      hash = fnvMix(hash, static_cast<std::uint64_t>(set.messages));
      hash = fnvMix(hash, static_cast<std::uint64_t>(set.words));
    }
  }
  return hash;
}

}  // namespace

ConcurrentTracker::ConcurrentTracker(model::ParagonPlatformModel platform,
                                     std::size_t cacheCapacity,
                                     std::size_t cacheShards)
    : tracker_(std::move(platform)),
      cache_(cacheCapacity, cacheShards),
      start_(std::chrono::steady_clock::now()) {
  installTablesLocked(0, tracker_.platform());
}

double ConcurrentTracker::nowSec() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void ConcurrentTracker::anchorClockLocked(double eventSec) {
  start_ = std::chrono::steady_clock::now() -
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(eventSec));
}

void ConcurrentTracker::publishSnapshotLocked() {
  snapshot_.publish(MixSnapshot{epoch_, signature_, tableGen_, arrivals_,
                                departures_, tracker_.activeApplications(),
                                tracker_.compSlowdown(),
                                tracker_.commSlowdown(),
                                tracker_.ioSlowdown()});
}

void ConcurrentTracker::installTablesLocked(
    std::uint64_t generation, const model::ParagonPlatformModel& platform) {
  auto tables = std::make_shared<const TableSet>(TableSet{generation, platform});
  // Release order: the TableSet contents must be visible before any snapshot
  // carrying `generation` is — loadReadView's acquire pairs with this.
  tableRing_[generation % kTableRingSlots].store(tables.get(),
                                                 std::memory_order_release);
  tableSets_.push_back(std::move(tables));
  tableGen_ = generation;
}

ConcurrentTracker::ReadView ConcurrentTracker::loadReadView() const {
  for (;;) {
    ReadView view;
    view.snapshot = loadSnapshot();
    view.tables = tableRing_[view.snapshot.tableGen % kTableRingSlots].load(
        std::memory_order_acquire);
    if (view.tables != nullptr &&
        view.tables->generation == view.snapshot.tableGen) {
      return view;
    }
  }
}

MutationResult ConcurrentTracker::arrive(const model::CompetingApp& app) {
  std::lock_guard lock(writeMutex_);
  const double timeSec = nowSec();
  MutationResult result;
  result.id = tracker_.applicationArrived(timeSec, app);  // may throw
  signature_ += appHash(app);
  ++epoch_;
  ++arrivals_;
  // Apply-then-journal: only mutations that succeeded are ever journaled,
  // so replay can never throw on data the live path accepted.
  JournalRecord record;
  record.kind = JournalRecord::Kind::kArrive;
  record.epoch = epoch_;
  record.id = result.id;
  record.timeSec = timeSec;
  record.app = app;
  journalMutationLocked(record);
  publishSnapshotLocked();
  result.after = loadSnapshot();
  return result;
}

MutationResult ConcurrentTracker::depart(std::uint64_t applicationId) {
  std::lock_guard lock(writeMutex_);
  const double timeSec = nowSec();
  signature_ -= appHash(
      tracker_.applicationDeparted(timeSec, applicationId));  // may throw
  ++epoch_;
  ++departures_;
  JournalRecord record;
  record.kind = JournalRecord::Kind::kDepart;
  record.epoch = epoch_;
  record.id = applicationId;
  record.timeSec = timeSec;
  journalMutationLocked(record);
  publishSnapshotLocked();
  MutationResult result;
  result.id = applicationId;
  result.after = loadSnapshot();
  return result;
}

void ConcurrentTracker::journalMutationLocked(const JournalRecord& record) {
  if (replLog_ != nullptr) {
    // Mirror the exact journal frame into the replication log — followers
    // replay these bytes through the same decode path as crash recovery,
    // so primary and follower state are bit-identical at equal epochs.
    replLog_->append(record.epoch, encodeRecord(record));
  }
  if (journal_ == nullptr) return;
  switch (record.kind) {
    case JournalRecord::Kind::kArrive:
      journal_->appendArrive(record.epoch, record.id, record.app,
                             record.timeSec);
      break;
    case JournalRecord::Kind::kDepart:
      journal_->appendDepart(record.epoch, record.id, record.timeSec);
      break;
    case JournalRecord::Kind::kTableSwap:
      journal_->appendTableSwap(record.epoch, record.id, record.tables,
                                record.timeSec);
      break;
  }
  if (journal_->snapshotDue()) {
    // Runs under the write mutex: mutations stall for one snapshot write
    // every snapshotEvery records, reads stay lock-free throughout.
    journal_->writeSnapshot(exportImageLocked());
  }
}

SnapshotImage ConcurrentTracker::exportImageLocked() const {
  SnapshotImage image;
  image.epoch = epoch_;
  image.arrivals = arrivals_;
  image.departures = departures_;
  image.tableGeneration = tableGen_;
  image.checkpoint = tracker_.exportCheckpoint();
  image.tables = tracker_.platform();
  return image;
}

void ConcurrentTracker::applyRecordLocked(const JournalRecord& record) {
  if (record.epoch != epoch_ + 1) {
    throw std::runtime_error(
        "journal replay: epoch gap (journal has " +
        std::to_string(record.epoch) + ", tracker is at " +
        std::to_string(epoch_) + ")");
  }
  if (record.kind == JournalRecord::Kind::kArrive) {
    const std::uint64_t id =
        tracker_.applicationArrived(record.timeSec, record.app);
    if (id != record.id) {
      throw std::runtime_error("journal replay: id discontinuity (assigned " +
                               std::to_string(id) + ", journal recorded " +
                               std::to_string(record.id) + ")");
    }
    signature_ += appHash(record.app);
    ++arrivals_;
  } else if (record.kind == JournalRecord::Kind::kDepart) {
    // Throws std::invalid_argument for an id that is not live.
    signature_ -= appHash(
        tracker_.applicationDeparted(record.timeSec, record.id));
    ++departures_;
  } else {
    // kTableSwap carries the complete swapped-in tables, so replay installs
    // them verbatim — bit-identical to the pre-crash swap, no estimator
    // state needed.
    if (record.id != tableGen_ + 1) {
      throw std::runtime_error(
          "journal replay: table generation gap (journal has " +
          std::to_string(record.id) + ", tracker is at " +
          std::to_string(tableGen_) + ")");
    }
    tracker_.recalibrate(record.tables);  // validates; may throw
    installTablesLocked(record.id, tracker_.platform());
  }
  ++epoch_;
}

RecoveryReport ConcurrentTracker::recoverFromJournal(Journal& journal) {
  std::lock_guard lock(writeMutex_);
  if (epoch_ != 0 || journal_ != nullptr) {
    throw std::runtime_error(
        "recoverFromJournal: tracker is not fresh or already journaled");
  }
  Journal::LoadedState loaded = journal.load();  // may throw
  RecoveryReport report;
  report.truncatedBytes = loaded.truncatedBytes;

  if (loaded.snapshot.has_value()) {
    restoreImageLocked(*loaded.snapshot);  // may throw
    report.snapshotLoaded = true;
  }

  for (const JournalRecord& record : loaded.tail) {
    // Records at or below the snapshot epoch survive a crash between
    // snapshot write and journal compaction; the epoch stamp makes the
    // replay idempotent — they are simply skipped.
    if (record.epoch <= epoch_) continue;
    applyRecordLocked(record);
    ++report.replayedRecords;
  }
  report.epoch = epoch_;
  report.recovered = report.snapshotLoaded || report.replayedRecords > 0 ||
                     report.truncatedBytes > 0;

  // Re-anchor the event clock so nowSec() continues from the last persisted
  // event time instead of restarting at zero — otherwise the tracker's
  // monotonic time-order check would reject the first post-recovery
  // mutation.
  anchorClockLocked(tracker_.exportCheckpoint().lastEventTimeSec);

  journal.start(report.replayedRecords);  // may throw; replayed tail = lag
  journal_ = &journal;
  publishSnapshotLocked();
  return report;
}

void ConcurrentTracker::attachReplicationLog(ReplicationLog* log) {
  std::lock_guard lock(writeMutex_);
  replLog_ = log;
}

void ConcurrentTracker::applyReplicated(const JournalRecord& record) {
  std::lock_guard lock(writeMutex_);
  applyRecordLocked(record);  // may throw; state untouched on failure
  // The record carries the primary's event-clock stamp, which can run ahead
  // of this process's clock (the primary booted earlier). Drag the local
  // anchor forward so the first post-promotion mutation cannot look like
  // time going backwards; a primary clock running behind needs no
  // correction — local stamps are already past it.
  if (record.timeSec > nowSec()) anchorClockLocked(record.timeSec);
  // A follower journals (and re-mirrors) the applied record exactly like a
  // local mutation, so its own crash recovery — and, after promotion, its
  // own followers — see one continuous stream.
  journalMutationLocked(record);
  publishSnapshotLocked();
}

void ConcurrentTracker::installImage(const SnapshotImage& image) {
  std::lock_guard lock(writeMutex_);
  if (image.epoch < epoch_) {
    throw std::runtime_error(
        "installImage: image epoch " + std::to_string(image.epoch) +
        " is behind local epoch " + std::to_string(epoch_));
  }
  restoreImageLocked(image);  // may throw
  if (replLog_ != nullptr) replLog_->start(epoch_);
  publishSnapshotLocked();
}

void ConcurrentTracker::restoreImageLocked(const SnapshotImage& image) {
  // Tables first: restoreCheckpoint validates the app count against the
  // live tables and recomputes the slowdowns from them, so it must see the
  // tables that were live when the image was taken, not the current ones.
  tracker_.recalibrate(image.tables);  // validates; may throw
  installTablesLocked(image.tableGeneration, tracker_.platform());
  tracker_.restoreCheckpoint(image.checkpoint);  // may throw
  epoch_ = image.epoch;
  arrivals_ = image.arrivals;
  departures_ = image.departures;
  signature_ = 0;
  for (const model::CompetingApp& app : image.checkpoint.apps) {
    signature_ += appHash(app);
  }
  // The next mutation must not look like time went backwards.
  anchorClockLocked(image.checkpoint.lastEventTimeSec);
}

SnapshotImage ConcurrentTracker::exportImage() const {
  std::lock_guard lock(writeMutex_);
  return exportImageLocked();
}

SlowdownSnapshot ConcurrentTracker::slowdowns() const {
  return loadSnapshot();
}

void ConcurrentTracker::observeCalibration(
    const CalibrationObservation& observation) {
  std::lock_guard lock(writeMutex_);
  // No epoch bump, no snapshot publish: observations refine the estimator,
  // they do not change what readers price with.
  recalibrator_.observe(observation, platformLocked());  // may throw
}

CalibrationReportData ConcurrentTracker::calibrationReport() const {
  std::lock_guard lock(writeMutex_);
  return recalibrator_.report(platformLocked(), nowSec());
}

ConcurrentTracker::DriftResult ConcurrentTracker::drift() const {
  std::lock_guard lock(writeMutex_);
  const CalibrationReportData report =
      recalibrator_.report(platformLocked(), nowSec());
  DriftResult result;
  result.score = report.driftScore;
  result.drifting = report.drifting;
  result.threshold = recalibrator_.config().driftThreshold;
  result.eligibleCells = report.eligibleCells;
  result.generation = tableGen_;
  return result;
}

ConcurrentTracker::CalibrationApplyResult
ConcurrentTracker::applyCalibration() {
  std::lock_guard lock(writeMutex_);
  const double timeSec = nowSec();
  std::optional<model::ParagonPlatformModel> updated =
      recalibrator_.build(platformLocked());
  if (!updated.has_value()) {
    throw std::invalid_argument(
        "CALIBRATE APPLY: no cell has reached minSamples; nothing to apply");
  }
  tracker_.recalibrate(std::move(*updated));  // validates; may throw
  installTablesLocked(tableGen_ + 1, platformLocked());
  ++epoch_;
  JournalRecord record;
  record.kind = JournalRecord::Kind::kTableSwap;
  record.epoch = epoch_;
  record.id = tableGen_;
  record.timeSec = timeSec;
  record.tables = platformLocked();
  journalMutationLocked(record);
  recalibrator_.noteApplied(timeSec);
  // The snapshot published here is the commit point: it carries the new
  // generation, and the ring slot for that generation is already visible.
  publishSnapshotLocked();
  CalibrationApplyResult result;
  result.generation = tableGen_;
  result.after = loadSnapshot();
  return result;
}

TaskPrediction ConcurrentTracker::predictFromView(
    const ReadView& view, const tools::TaskSpec& task,
    std::uint64_t taskHashValue) {
  const MixSnapshot& snapshot = view.snapshot;
  TaskPrediction out;
  out.epoch = snapshot.epoch;
  // The table generation is part of the key: a cached price is only valid
  // for the tables that computed it, so an accepted CALIBRATE APPLY
  // implicitly invalidates every earlier entry.
  const PredictionCache::Key key{snapshot.signature, taskHashValue,
                                 snapshot.tableGen};
  PredictionCache::Value cached;
  if (cache_.lookup(key, cached)) {
    out.frontSec = cached.frontSec;
    out.remoteSec = cached.remoteSec;
    out.offload = cached.offload;
    out.cacheHit = true;
    return out;
  }
  // A prediction is a pure function of the view (snapshot plus its matched
  // immutable TableSet), so the model evaluation runs outside every lock
  // (same arithmetic as OnlineContentionTracker's predict helpers).
  const model::ParagonPlatformModel& platform = view.tables->platform;
  const double toBackend =
      model::dcomm(platform.toBackend, task.toBackend) * snapshot.comm;
  const double fromBackend =
      model::dcomm(platform.fromBackend, task.fromBackend) * snapshot.comm;
  // The front-end cost splits by the task's I/O fraction: the compute share
  // stretches by the comp slowdown, the disk share by the device slowdown.
  // For ioFraction == 0 both factors below are IEEE-exact no-ops
  // ((fe·1.0)·comp + (fe·0.0)·io ≡ fe·comp), so pre-I/O predictions keep
  // their exact bits.
  out.frontSec =
      (task.frontEndSec * (1.0 - task.ioFraction)) * snapshot.comp +
      (task.frontEndSec * task.ioFraction) * snapshot.io;
  out.remoteSec = task.backEndSec + toBackend + fromBackend;
  out.offload = model::shouldOffload(out.frontSec, task.backEndSec, toBackend,
                                     fromBackend);
  cache_.insert(key, {out.frontSec, out.remoteSec, out.offload});
  return out;
}

TaskPrediction ConcurrentTracker::predict(const tools::TaskSpec& task) {
  const ReadView view = loadReadView();
  return predictFromView(view, task, taskHash(task));
}

std::vector<TaskPrediction> ConcurrentTracker::predictBatch(
    std::span<const tools::TaskSpec> tasks) {
  if (tasks.empty()) {
    throw std::invalid_argument("predictBatch: empty batch");
  }
  // One view load for the whole batch: every result is consistent with the
  // same mix version and table generation even while mutations land
  // concurrently.
  const ReadView view = loadReadView();
  std::vector<TaskPrediction> out;
  out.reserve(tasks.size());
  for (const tools::TaskSpec& task : tasks) {
    out.push_back(predictFromView(view, task, taskHash(task)));
  }
  return out;
}

TrackerStats ConcurrentTracker::stats() const {
  const MixSnapshot snapshot = loadSnapshot();
  TrackerStats stats;
  stats.epoch = snapshot.epoch;
  stats.signature = snapshot.signature;
  stats.tableGeneration = snapshot.tableGen;
  stats.active = snapshot.active;
  stats.arrivals = snapshot.arrivals;
  stats.departures = snapshot.departures;
  stats.cacheShards = cache_.shardStats();
  for (const PredictionCache::ShardStats& shard : stats.cacheShards) {
    stats.cacheHits += shard.hits;
    stats.cacheMisses += shard.misses;
    stats.cacheEvictions += shard.evictions;
    stats.cacheEntries += shard.entries;
  }
  return stats;
}

}  // namespace contend::serve
