// journal.hpp — write-ahead durability for the contend-serve tracker.
//
// The paper's premise (§2) is that slowdown factors track the live mix as
// applications enter and leave; a daemon crash that silently zeroes that
// mix makes every subsequent prediction optimistically wrong. The journal
// closes that hole: every ARRIVE/DEPART is appended as an epoch-stamped,
// CRC-framed binary record (O_APPEND, single writer — the tracker's write
// mutex), and every `snapshotEvery` records the full tracker state is
// written to a sidecar snapshot file (atomically: tmp + rename) and the
// journal is compacted back to its header.
//
// Recovery reads the snapshot (if any), restores the tracker checkpoint —
// including the exact Poisson-binomial coefficients, so the recovered
// slowdowns are bit-identical to the pre-crash ones — then replays the
// journal tail. Records at or below the snapshot epoch are skipped (a
// crash between snapshot and compaction leaves them behind harmlessly),
// and a torn final record is truncated instead of refusing to start: with
// one appender, only the tail can ever be incomplete.
//
// Durability policy (`--fsync`):
//   always    fsync after every append — survives power loss, slowest
//   interval  a flusher thread fsyncs dirty data every fsyncIntervalMs
//   off       never fsync — survives SIGKILL (page cache persists), not
//             power loss; within noise of running without a journal
//
// Append failures (disk full, injected faults) do not take the daemon
// down: the journal marks itself failed, stops appending, and surfaces the
// error count through STATS/HEALTH — availability over durability, loudly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "model/mix.hpp"
#include "sched/online.hpp"

namespace contend::serve {

enum class FsyncPolicy { kAlways, kInterval, kOff };

[[nodiscard]] const char* fsyncPolicyName(FsyncPolicy policy);
[[nodiscard]] std::optional<FsyncPolicy> fsyncPolicyFromName(
    std::string_view name);

struct JournalConfig {
  std::string path;
  /// Records between snapshots; 0 disables snapshotting (the journal then
  /// grows until restart, and recovery replays it in full).
  std::uint64_t snapshotEvery = 4096;
  FsyncPolicy fsync = FsyncPolicy::kInterval;
  int fsyncIntervalMs = 100;
};

/// One journaled mutation. `app` is meaningful for kArrive only; `tables`
/// for kTableSwap only (a CALIBRATE APPLY carries the complete swapped-in
/// platform model so replay needs no estimator state — `id` is the table
/// generation the swap produced).
struct JournalRecord {
  enum class Kind : std::uint8_t { kArrive = 1, kDepart = 2, kTableSwap = 3 };
  Kind kind = Kind::kArrive;
  std::uint64_t epoch = 0;  // tracker epoch *after* the mutation
  std::uint64_t id = 0;     // application id assigned / departed / table gen
  double timeSec = 0.0;     // tracker-relative event time (audit only)
  model::CompetingApp app;
  model::ParagonPlatformModel tables;
};

/// Full tracker state at `epoch`, as persisted by a snapshot. The platform
/// tables (and their generation) ride along so recovery re-prices with
/// exactly the tables that were live — a recalibrated daemon must not wake
/// up with its boot-time tables.
struct SnapshotImage {
  std::uint64_t epoch = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t tableGeneration = 0;
  sched::TrackerCheckpoint checkpoint;
  model::ParagonPlatformModel tables;
};

/// What recovery found. `recovered` is false only for a genuinely fresh
/// journal (no snapshot, no records).
struct RecoveryReport {
  bool recovered = false;
  bool snapshotLoaded = false;
  std::uint64_t replayedRecords = 0;
  std::uint64_t truncatedBytes = 0;  // torn/corrupt tail dropped
  std::uint64_t epoch = 0;           // tracker epoch after recovery
};

/// Counters surfaced through STATS and HEALTH.
struct JournalStats {
  std::uint64_t records = 0;    // appended since this process started
  std::uint64_t bytes = 0;      // payload+frame bytes appended
  std::uint64_t snapshots = 0;  // snapshots written
  std::uint64_t fsyncs = 0;
  std::uint64_t appendErrors = 0;
  std::uint64_t lagRecords = 0;  // records not yet covered by a snapshot
};

// Pure (de)serialization core, no file I/O — shared by the Journal, the
// framing tests, and the `journal_fuzz` targets in protocol_fuzz.cpp.

/// 8-byte file magics ("CONTJRN2" / "CONTSNP3" — both were bumped when the
/// mix grew the I/O dimension, and the snapshot magic earlier when the image
/// grew the platform tables; a file from an older format is refused with a
/// clear error instead of misdecoded).
[[nodiscard]] std::string_view journalMagic();
[[nodiscard]] std::string_view snapshotMagic();

/// Standard CRC-32 (IEEE reflected, poly 0xEDB88320) — matches zlib, so
/// corpus files can be produced by any stock tooling.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes);

/// One framed record: u32 payload length, u32 CRC of the payload, payload.
[[nodiscard]] std::string encodeRecord(const JournalRecord& record);

/// Decodes consecutive frames from `bytes` (no file magic). Stops at the
/// first frame that is short, oversized, CRC-mismatched, or semantically
/// malformed; `cleanBytes` (if non-null) receives the length of the valid
/// prefix — everything past it is a torn or corrupt tail.
[[nodiscard]] std::vector<JournalRecord> decodeRecords(
    std::string_view bytes, std::size_t* cleanBytes = nullptr);

/// One framed snapshot payload (no file magic). decodeSnapshot returns
/// nullopt on any framing, CRC, or consistency violation — snapshots are
/// written atomically, so a bad one is corruption, never a torn write.
[[nodiscard]] std::string encodeSnapshot(const SnapshotImage& image);
[[nodiscard]] std::optional<SnapshotImage> decodeSnapshot(
    std::string_view bytes);

/// The write-ahead journal. Lifecycle: construct, load() once to read the
/// persisted state (the ConcurrentTracker drives this via
/// recoverFromJournal), then start() to open for appending. Appends must
/// be externally serialized (the tracker's write mutex); stats() and the
/// interval flusher are safe from any thread.
class Journal {
 public:
  explicit Journal(JournalConfig config);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  struct LoadedState {
    std::optional<SnapshotImage> snapshot;
    std::vector<JournalRecord> tail;   // epoch order; may predate snapshot
    std::uint64_t truncatedBytes = 0;  // torn tail found (and to be cut)
  };

  /// Reads the snapshot and journal files. Throws std::runtime_error on an
  /// unreadable file, a journal with a foreign magic, or a corrupt
  /// snapshot; a torn journal tail is reported, not thrown.
  [[nodiscard]] LoadedState load();

  /// Opens the journal for appending (creating it if absent), truncates
  /// any torn tail found by load(), seeds the compaction lag with the
  /// replayed tail length, and starts the interval flusher if configured.
  /// Throws std::runtime_error on I/O errors.
  void start(std::uint64_t tailRecords);

  /// Appends one mutation record. Never throws: a failed write marks the
  /// journal failed (no further appends) and bumps appendErrors.
  void appendArrive(std::uint64_t epoch, std::uint64_t id,
                    const model::CompetingApp& app, double timeSec);
  void appendDepart(std::uint64_t epoch, std::uint64_t id, double timeSec);
  /// Journals an accepted CALIBRATE APPLY: `generation` is the new table
  /// generation, `tables` the complete swapped-in platform model.
  void appendTableSwap(std::uint64_t epoch, std::uint64_t generation,
                       const model::ParagonPlatformModel& tables,
                       double timeSec);

  /// True once the compaction lag reached snapshotEvery.
  [[nodiscard]] bool snapshotDue() const;

  /// Writes `image` to the snapshot sidecar (tmp + fsync + rename + fsync
  /// of the directory) and compacts the journal back to its header.
  /// Failures are counted, not thrown (the journal keeps appending;
  /// recovery simply replays more). Any failure, the directory fsync
  /// included, skips the compaction.
  void writeSnapshot(const SnapshotImage& image);

  [[nodiscard]] JournalStats stats() const;

  [[nodiscard]] const std::string& path() const { return config_.path; }
  [[nodiscard]] std::string snapshotPath() const {
    return config_.path + ".snapshot";
  }

 private:
  void append(const JournalRecord& record);
  void fsyncNowLocked();
  void flusherLoop();

  JournalConfig config_;
  mutable std::mutex mutex_;  // guards fd_ operations and dirty_
  int fd_ = -1;
  bool failed_ = false;
  bool dirty_ = false;  // bytes written since the last fsync

  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> snapshots_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> appendErrors_{0};
  std::atomic<std::uint64_t> lagRecords_{0};

  std::thread flusher_;
  std::condition_variable flusherCv_;
  bool stopFlusher_ = false;
};

}  // namespace contend::serve
