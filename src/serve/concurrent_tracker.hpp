// concurrent_tracker.hpp — thread-safe, epoch-versioned facade over the
// run-time contention tracker; the state backbone of the contend-serve
// daemon.
//
// §2: slowdown factors are "always calculated at run-time" and must be cheap
// relative to how quickly applications enter and leave the system.
// sched::OnlineContentionTracker implements the paper's O(p)/O(p²) update
// bounds but is single-owner by design; this wrapper adds the two properties
// a serving daemon needs on top of it:
//
//   1. A lock-free read path — mutations (ARRIVE/DEPART) serialize under one
//      write mutex, build an immutable MixSnapshot (epoch, mix signature,
//      slowdown pair), and publish it RCU-style through a SnapshotCell, a
//      ring of generation-stamped seqlock slots whose fields are all
//      atomics. Reads (PREDICT/SLOWDOWN/STATS) copy the current snapshot
//      and never touch the write mutex: a prediction is a pure function of
//      the snapshot plus the immutable platform constants, so readers
//      neither block each other nor block mutations. (A
//      std::atomic<std::shared_ptr> would express the same contract, but
//      libstdc++'s _Sp_atomic::load takes a spinlock per read and releases
//      it with a relaxed fetch_sub, which is both slower than the seqlock
//      and a known ThreadSanitizer trap — GCC PR libstdc++/104442.)
//   2. Memoization — predictions are cached in an N-way sharded LRU keyed by
//      (mix signature, task hash); the signature is an order-independent
//      content hash, so the PREDICT hot path does no model evaluation while
//      the mix is unchanged and still hits when a mix *recurs* (an arrival
//      followed by the matching departure returns to the previous
//      signature). Eviction is per-shard LRU, so hot keys survive overflow.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "model/mix.hpp"
#include "model/predictor.hpp"
#include "sched/online.hpp"
#include "serve/journal.hpp"
#include "serve/prediction_cache.hpp"
#include "serve/recalibration.hpp"
#include "tools/workload_file.hpp"

namespace contend::serve {

/// Immutable state of the mix at one version, published RCU-style: writers
/// publish a whole new version, readers copy one consistent version out of
/// the cell and keep it for as long as they need a stable view.
struct MixSnapshot {
  std::uint64_t epoch = 0;       // mutations applied so far
  std::uint64_t signature = 0;   // content hash of the mix
  std::uint64_t tableGen = 0;    // generation of the tables that priced it
  std::uint64_t arrivals = 0;    // ARRIVE mutations applied so far
  std::uint64_t departures = 0;  // DEPART mutations applied so far
  int active = 0;                // the paper's p
  double comp = 1.0;
  double comm = 1.0;
  double io = 1.0;  // disk-I/O slowdown (§4 extension), canonical tables
};

/// Lock-free publication point for MixSnapshot: a ring of generation-stamped
/// seqlock slots. Writers (externally serialized — the tracker's write mutex)
/// stamp the next slot odd, fill it, stamp it even, then advance the version
/// counter; readers pick the slot for the published version and retry only if
/// the writer lapped the whole ring mid-copy (64 mutations inside one ~50 ns
/// read — effectively never). Every field is an atomic accessed with the
/// fence discipline from Boehm, "Can Seqlocks Get Along With Programming
/// Language Memory Models?" (MSPC 2012), so the cell is data-race-free by
/// construction — ThreadSanitizer-clean with no suppressions — and the read
/// path performs no RMW, takes no lock, and allocates nothing.
class SnapshotCell {
 public:
  /// Writer side. Callers must serialize publishes; concurrent readers are
  /// fine.
  void publish(const MixSnapshot& snapshot) {
    const std::uint64_t next =
        version_.load(std::memory_order_relaxed) + 1;
    Slot& slot = ring_[next % kSlots];
    // Odd sequence marks the slot mid-rewrite for any straggler still
    // reading the generation from kSlots publishes ago.
    slot.seq.store(2 * next - 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    slot.epoch.store(snapshot.epoch, std::memory_order_relaxed);
    slot.signature.store(snapshot.signature, std::memory_order_relaxed);
    slot.tableGen.store(snapshot.tableGen, std::memory_order_relaxed);
    slot.arrivals.store(snapshot.arrivals, std::memory_order_relaxed);
    slot.departures.store(snapshot.departures, std::memory_order_relaxed);
    slot.active.store(snapshot.active, std::memory_order_relaxed);
    slot.comp.store(snapshot.comp, std::memory_order_relaxed);
    slot.comm.store(snapshot.comm, std::memory_order_relaxed);
    slot.io.store(snapshot.io, std::memory_order_relaxed);
    slot.seq.store(2 * next, std::memory_order_release);
    version_.store(next, std::memory_order_release);
  }

  /// Reader side: wait-free in practice (retries only on a full ring lap).
  [[nodiscard]] MixSnapshot load() const {
    for (;;) {
      const std::uint64_t version =
          version_.load(std::memory_order_acquire);
      const Slot& slot = ring_[version % kSlots];
      // 2*version identifies both "stable" (even) and "this generation";
      // a reused slot fails the check and we re-read the version counter.
      if (slot.seq.load(std::memory_order_acquire) != 2 * version) continue;
      MixSnapshot out;
      out.epoch = slot.epoch.load(std::memory_order_relaxed);
      out.signature = slot.signature.load(std::memory_order_relaxed);
      out.tableGen = slot.tableGen.load(std::memory_order_relaxed);
      out.arrivals = slot.arrivals.load(std::memory_order_relaxed);
      out.departures = slot.departures.load(std::memory_order_relaxed);
      out.active = slot.active.load(std::memory_order_relaxed);
      out.comp = slot.comp.load(std::memory_order_relaxed);
      out.comm = slot.comm.load(std::memory_order_relaxed);
      out.io = slot.io.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) == 2 * version) {
        return out;
      }
    }
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> signature{0};
    std::atomic<std::uint64_t> tableGen{0};
    std::atomic<std::uint64_t> arrivals{0};
    std::atomic<std::uint64_t> departures{0};
    std::atomic<int> active{0};
    std::atomic<double> comp{1.0};
    std::atomic<double> comm{1.0};
    std::atomic<double> io{1.0};
  };
  // Slot 0 starts even at generation 0 holding the empty-mix defaults, so a
  // freshly constructed cell already publishes a valid snapshot.
  static constexpr std::size_t kSlots = 64;
  std::array<Slot, kSlots> ring_{};
  std::atomic<std::uint64_t> version_{0};
};

/// The slowdown pair at a specific version of the mix (the read-side view of
/// a MixSnapshot; kept as an alias for the pre-RCU public API).
using SlowdownSnapshot = MixSnapshot;

/// Result of an arrive/depart, with the post-mutation snapshot.
struct MutationResult {
  std::uint64_t id = 0;
  SlowdownSnapshot after;
};

/// Contention-adjusted costs for one task (equation 1 inputs and verdict).
struct TaskPrediction {
  std::uint64_t epoch = 0;
  double frontSec = 0.0;   // front-end time under the current mix
  double remoteSec = 0.0;  // back-end time + both transfers
  bool offload = false;    // equation 1: run on the back-end?
  bool cacheHit = false;
};

/// Counters surfaced through the STATS verb.
struct TrackerStats {
  std::uint64_t epoch = 0;
  std::uint64_t signature = 0;  // order-independent content hash of the mix
  std::uint64_t tableGeneration = 0;  // accepted CALIBRATE APPLY swaps
  int active = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t cacheHits = 0;        // aggregate across shards
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheEvictions = 0;
  std::size_t cacheEntries = 0;
  std::vector<PredictionCache::ShardStats> cacheShards;
};

class ReplicationLog;  // serve/replication.hpp

class ConcurrentTracker {
 public:
  explicit ConcurrentTracker(model::ParagonPlatformModel platform,
                             std::size_t cacheCapacity = 4096,
                             std::size_t cacheShards = 8);

  /// Both throw what OnlineContentionTracker throws (unknown id, delay-table
  /// coverage exceeded); the mix, epoch, and published snapshot are
  /// untouched on failure.
  MutationResult arrive(const model::CompetingApp& app);
  MutationResult depart(std::uint64_t applicationId);

  /// Rebuilds the tracker from `journal`'s persisted state (snapshot plus
  /// tail replay), attaches the journal so every subsequent mutation is
  /// appended, and opens it for writing. Must be called on a fresh tracker,
  /// before the server starts serving (single-threaded). Apply-then-journal
  /// ordering on the write path means only mutations that once succeeded
  /// were ever journaled, so replay re-applies them through the identical
  /// code path and the recovered epoch, signature, and slowdowns are
  /// bit-identical to the pre-crash values. Throws std::runtime_error on a
  /// corrupt snapshot or a tail that breaks id/epoch continuity.
  RecoveryReport recoverFromJournal(Journal& journal);

  /// Attaches a replication log: every subsequent mutation's encoded
  /// journal frame is mirrored into it under the write mutex, in epoch
  /// order. Call before the server starts serving (single-threaded), after
  /// any journal recovery; the caller anchors the log at the recovered
  /// epoch via ReplicationLog::start.
  void attachReplicationLog(ReplicationLog* log);

  /// Applies one replicated journal record (the follower apply path):
  /// identical machinery to journal tail replay — same continuity asserts,
  /// same journaling, same replication-log mirroring — so a caught-up
  /// follower is bit-identical to the primary at the same epoch. Throws
  /// std::runtime_error on an epoch gap or id discontinuity.
  void applyReplicated(const JournalRecord& record);

  /// Installs a full snapshot image (cold-follower catch-up). Forward-only:
  /// throws std::runtime_error if the image's epoch is behind the local
  /// one. Unlike recoverFromJournal this works on a non-fresh tracker — a
  /// follower that lagged past the primary's log floor re-bases here.
  void installImage(const SnapshotImage& image);

  /// Captures the full durable state (the REPL SNAPSHOT export).
  [[nodiscard]] SnapshotImage exportImage() const;

  /// Lock-free: loads the published snapshot.
  [[nodiscard]] SlowdownSnapshot slowdowns() const;

  /// Folds one CALIBRATE OBSERVE residual into the online estimator. Takes
  /// the write mutex but does not mutate the mix: the epoch, signature, and
  /// published snapshot are untouched, so observation-only calibration
  /// cannot perturb a serve-vs-offline differential replay. Throws
  /// std::invalid_argument on an observation the live tables cannot index.
  void observeCalibration(const CalibrationObservation& observation);

  /// The CALIBRATE staleness report against the live tables.
  [[nodiscard]] CalibrationReportData calibrationReport() const;

  /// The DRIFT verdict.
  struct DriftResult {
    bool drifting = false;
    double score = 0.0;
    double threshold = 0.0;
    std::uint64_t eligibleCells = 0;
    std::uint64_t generation = 0;
  };
  [[nodiscard]] DriftResult drift() const;

  /// CALIBRATE APPLY: builds updated tables from the accumulated
  /// observations and swaps them in atomically — a new immutable TableSet is
  /// published through the generation ring *before* the seqlock snapshot
  /// carrying the new generation, so every reader prices with a matched
  /// (snapshot, tables) pair and no prediction ever mixes generations. The
  /// swap bumps the epoch, is journaled as a kTableSwap record (recovery
  /// replays it to bit-identical tables), and resets the estimator. Throws
  /// std::invalid_argument when no cell has enough samples to build from,
  /// or when the built tables fail validation.
  struct CalibrationApplyResult {
    std::uint64_t generation = 0;
    SlowdownSnapshot after;
  };
  CalibrationApplyResult applyCalibration();

  /// Lock-free: the generation of the tables readers currently price with.
  [[nodiscard]] std::uint64_t tableGeneration() const {
    return loadSnapshot().tableGen;
  }

  /// Lock-free except for the one sharded-LRU lock covering the entry's
  /// cache line; never touches the write mutex.
  TaskPrediction predict(const tools::TaskSpec& task);

  /// Evaluates every task against one mix snapshot (all results share an
  /// epoch). Throws std::invalid_argument on an empty batch.
  std::vector<TaskPrediction> predictBatch(
      std::span<const tools::TaskSpec> tasks);

  /// Lock-free on the tracker state: epoch, counts and signature come from
  /// one snapshot load, so they are mutually coherent. Shard counters are
  /// read under the per-shard locks.
  [[nodiscard]] TrackerStats stats() const;

 private:
  /// One immutable generation of pricing state. TableSets are heap-allocated
  /// once per accepted swap, retained for the tracker's lifetime (swaps are
  /// rare — operator cadence, not request cadence), and published to readers
  /// through a generation-indexed ring of raw pointers, so the read path
  /// stays allocation- and RMW-free.
  struct TableSet {
    std::uint64_t generation = 0;
    model::ParagonPlatformModel platform;
  };

  /// A matched (snapshot, tables) pair: the tables are exactly the ones the
  /// snapshot's slowdowns were computed against.
  struct ReadView {
    MixSnapshot snapshot;
    const TableSet* tables = nullptr;
  };

  /// Computes a prediction from a read view alone (no tracker state): the
  /// slowdowns scale the dedicated-mode costs given by the view's
  /// platform communication parameters.
  [[nodiscard]] TaskPrediction predictFromView(const ReadView& view,
                                               const tools::TaskSpec& task,
                                               std::uint64_t taskHashValue);

  /// Loads a consistent (snapshot, tables) pair. Retries only if a writer
  /// lapped the 64-slot table ring between the snapshot load and the ring
  /// read — 64 accepted swaps inside one read, effectively never.
  [[nodiscard]] ReadView loadReadView() const;

  /// Installs `platform` as generation `generation` (writeMutex_ held):
  /// retains the TableSet and publishes its pointer in the ring. The caller
  /// publishes the snapshot that makes it visible.
  void installTablesLocked(std::uint64_t generation,
                           const model::ParagonPlatformModel& platform);

  /// The platform the next mutation/calibration sees (writeMutex_ held).
  [[nodiscard]] const model::ParagonPlatformModel& platformLocked() const {
    return tracker_.platform();
  }

  [[nodiscard]] MixSnapshot loadSnapshot() const { return snapshot_.load(); }
  void publishSnapshotLocked();
  [[nodiscard]] double nowSec() const;
  /// Moves the event-clock origin so nowSec() reads `eventSec` now.
  void anchorClockLocked(double eventSec);

  /// Applies one replayed mutation under the write mutex, asserting id and
  /// epoch continuity against the journal record.
  void applyRecordLocked(const JournalRecord& record);

  /// Captures the full durable state (epoch, counters, checkpoint).
  [[nodiscard]] SnapshotImage exportImageLocked() const;

  /// Replaces the live state with `image` (writeMutex_ held): tables first,
  /// so restoreCheckpoint validates the app count against the tables that
  /// were live when the image was taken; then the counters, the signature,
  /// and the event clock. Shared by journal recovery and installImage.
  void restoreImageLocked(const SnapshotImage& image);

  /// Appends the mutation to the attached journal (if any) and writes a
  /// compacting snapshot when one is due.
  void journalMutationLocked(const JournalRecord& record);

  // Write side: everything below is guarded by writeMutex_.
  mutable std::mutex writeMutex_;
  sched::OnlineContentionTracker tracker_;
  std::uint64_t epoch_ = 0;
  std::uint64_t signature_ = 0;  // order-independent sum of per-app hashes
  std::uint64_t tableGen_ = 0;   // generation of the live tables
  std::uint64_t arrivals_ = 0;
  std::uint64_t departures_ = 0;
  Journal* journal_ = nullptr;  // attached by recoverFromJournal
  ReplicationLog* replLog_ = nullptr;  // attached by attachReplicationLog
  Recalibrator recalibrator_;
  std::vector<std::shared_ptr<const TableSet>> tableSets_;  // retained

  // Read side of the table swap: ring slot tableGen % kTableRingSlots holds
  // the TableSet for that generation (written under writeMutex_ with
  // release order *before* the snapshot carrying the generation is
  // published, so a reader that sees the snapshot also sees the tables).
  static constexpr std::size_t kTableRingSlots = 64;
  std::array<std::atomic<const TableSet*>, kTableRingSlots> tableRing_{};

  // Read side: the RCU publication point and the sharded prediction cache.
  SnapshotCell snapshot_;
  PredictionCache cache_;

  // Event-clock origin; written under writeMutex_ only.
  std::chrono::steady_clock::time_point start_;
};

}  // namespace contend::serve
