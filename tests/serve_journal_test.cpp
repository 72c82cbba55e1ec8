// Tests for the write-ahead journal: frame/snapshot codecs (CRC, torn-tail
// truncation, corruption rejection), file round trips, snapshot compaction,
// bit-identical recovery, fsync policies, and syscall fault injection.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "serve/concurrent_tracker.hpp"
#include "serve/journal.hpp"
#include "serve/syscall_hooks.hpp"

namespace contend::serve {
namespace {

model::ParagonPlatformModel testPlatform(int maxContenders = 8) {
  model::ParagonPlatformModel platform;
  platform.toBackend.small = {0.001, 1000.0};
  platform.toBackend.large = {0.002, 800.0};
  platform.toBackend.thresholdWords = 1024;
  platform.fromBackend = platform.toBackend;
  platform.delays.jBins = {1, 500, 1000};
  platform.delays.compFromComm.assign(3, {});
  for (int i = 1; i <= maxContenders; ++i) {
    platform.delays.commFromComp.push_back(0.5 * i);
    platform.delays.commFromComm.push_back(0.2 * i);
    platform.delays.compFromComm[0].push_back(0.1 * i);
    platform.delays.compFromComm[1].push_back(0.3 * i);
    platform.delays.compFromComm[2].push_back(0.4 * i);
  }
  return platform;
}

std::string uniqueJournalPath(const char* tag) {
  static int counter = 0;
  return "/tmp/contend_journal_test_" + std::to_string(::getpid()) + "_" +
         tag + "_" + std::to_string(counter++) + ".jrn";
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Installs hooks for a scope and guarantees removal even on test failure
/// (the hook registry is process-global).
class HookGuard {
 public:
  explicit HookGuard(const SyscallHooks* hooks) { installSyscallHooks(hooks); }
  ~HookGuard() { installSyscallHooks(nullptr); }
  HookGuard(const HookGuard&) = delete;
  HookGuard& operator=(const HookGuard&) = delete;
};

JournalRecord makeArrive(std::uint64_t epoch, std::uint64_t id,
                         double commFraction, Words words, double timeSec) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kArrive;
  record.epoch = epoch;
  record.id = id;
  record.timeSec = timeSec;
  record.app.commFraction = commFraction;
  record.app.messageWords = words;
  return record;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Drives a deterministic arrive/depart workload; departures pick a live id
/// pseudo-randomly so the deconvolution fast path and the rebuild fallback
/// both get exercised.
void applyOps(ConcurrentTracker& tracker, int ops, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<std::uint64_t> live;
  for (int i = 0; i < ops; ++i) {
    const bool arrive =
        live.empty() || (live.size() < 6 && uniform(rng) < 0.6);
    if (arrive) {
      const double fraction = 0.1 + 0.8 * uniform(rng);
      const Words words = 64 + static_cast<Words>(900 * uniform(rng));
      live.push_back(tracker.arrive({fraction, words}).id);
    } else {
      const std::size_t index =
          static_cast<std::size_t>(uniform(rng) *
                                   static_cast<double>(live.size())) %
          live.size();
      tracker.depart(live[index]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
    }
  }
}

TEST(JournalFraming, Crc32MatchesStandardVectors) {
  // The canonical CRC-32 check value (zlib, PNG, gzip all agree).
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32(std::string(1, '\0')), 0xD202EF8Du);
}

TEST(JournalFraming, RecordRoundTrip) {
  const JournalRecord arrive = makeArrive(7, 3, 0.375, 512, 1.25);
  JournalRecord depart;
  depart.kind = JournalRecord::Kind::kDepart;
  depart.epoch = 8;
  depart.id = 3;
  depart.timeSec = 2.5;

  const std::string bytes = encodeRecord(arrive) + encodeRecord(depart);
  std::size_t clean = 0;
  const std::vector<JournalRecord> decoded = decodeRecords(bytes, &clean);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(clean, bytes.size());

  EXPECT_EQ(decoded[0].kind, JournalRecord::Kind::kArrive);
  EXPECT_EQ(decoded[0].epoch, 7u);
  EXPECT_EQ(decoded[0].id, 3u);
  EXPECT_EQ(bits(decoded[0].timeSec), bits(1.25));
  EXPECT_EQ(bits(decoded[0].app.commFraction), bits(0.375));
  EXPECT_EQ(decoded[0].app.messageWords, 512);

  EXPECT_EQ(decoded[1].kind, JournalRecord::Kind::kDepart);
  EXPECT_EQ(decoded[1].epoch, 8u);
  EXPECT_EQ(decoded[1].id, 3u);
}

TEST(JournalFraming, TornTailTruncated) {
  const std::string first = encodeRecord(makeArrive(1, 1, 0.5, 100, 0.0));
  const std::string second = encodeRecord(makeArrive(2, 2, 0.25, 200, 1.0));
  // Cut the second frame mid-payload: a crash between write() and the next
  // append leaves exactly this shape.
  for (std::size_t cut = 1; cut < second.size(); ++cut) {
    const std::string bytes = first + second.substr(0, cut);
    std::size_t clean = 0;
    const std::vector<JournalRecord> decoded = decodeRecords(bytes, &clean);
    ASSERT_EQ(decoded.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(clean, first.size()) << "cut at " << cut;
    EXPECT_EQ(decoded[0].id, 1u);
  }
}

TEST(JournalFraming, CrcMismatchRejected) {
  const std::string first = encodeRecord(makeArrive(1, 1, 0.5, 100, 0.0));
  std::string second = encodeRecord(makeArrive(2, 2, 0.25, 200, 1.0));
  second[second.size() / 2] =
      static_cast<char>(second[second.size() / 2] ^ 0x40);
  std::size_t clean = 0;
  const std::vector<JournalRecord> decoded =
      decodeRecords(first + second, &clean);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(clean, first.size());
}

TEST(JournalFraming, HostileLengthsRejected) {
  // An absurd length field must stop the parse, not drive an allocation.
  std::string bytes(8, '\0');
  bytes[0] = static_cast<char>(0xff);
  bytes[1] = static_cast<char>(0xff);
  bytes[2] = static_cast<char>(0xff);
  bytes[3] = static_cast<char>(0x7f);
  std::size_t clean = 0;
  EXPECT_TRUE(decodeRecords(bytes, &clean).empty());
  EXPECT_EQ(clean, 0u);
  // Zero-length frames too (a frame must carry at least a kind byte).
  EXPECT_TRUE(decodeRecords(std::string(8, '\0'), &clean).empty());
  // A valid-CRC frame whose payload has a bogus kind byte.
  std::string payload(25, '\0');
  payload[0] = 9;  // not kArrive/kDepart
  std::string framed;
  framed.push_back(25);
  framed.append(3, '\0');
  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i) {
    framed.push_back(static_cast<char>((crc >> (8 * i)) & 0xffu));
  }
  framed += payload;
  EXPECT_TRUE(decodeRecords(framed, &clean).empty());
}

TEST(JournalFraming, TableSwapRecordRoundTrip) {
  JournalRecord swap;
  swap.kind = JournalRecord::Kind::kTableSwap;
  swap.epoch = 11;
  swap.id = 3;  // table generation
  swap.timeSec = 4.5;
  swap.tables = testPlatform();
  swap.tables.delays.commFromComp[2] = 1.6180339887;  // a non-default cell

  const std::string bytes = encodeRecord(swap);
  std::size_t clean = 0;
  const std::vector<JournalRecord> decoded = decodeRecords(bytes, &clean);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(clean, bytes.size());
  const JournalRecord& out = decoded[0];
  EXPECT_EQ(out.kind, JournalRecord::Kind::kTableSwap);
  EXPECT_EQ(out.epoch, 11u);
  EXPECT_EQ(out.id, 3u);
  EXPECT_EQ(bits(out.timeSec), bits(4.5));
  // The tables replay bit-identically: every link parameter and delay cell.
  EXPECT_EQ(bits(out.tables.toBackend.small.alphaSec),
            bits(swap.tables.toBackend.small.alphaSec));
  EXPECT_EQ(bits(out.tables.toBackend.large.betaWordsPerSec),
            bits(swap.tables.toBackend.large.betaWordsPerSec));
  EXPECT_EQ(out.tables.toBackend.thresholdWords,
            swap.tables.toBackend.thresholdWords);
  EXPECT_EQ(out.tables.fromBackend.thresholdWords,
            swap.tables.fromBackend.thresholdWords);
  EXPECT_EQ(out.tables.delays.commFromComp, swap.tables.delays.commFromComp);
  EXPECT_EQ(out.tables.delays.commFromComm, swap.tables.delays.commFromComm);
  EXPECT_EQ(out.tables.delays.jBins, swap.tables.delays.jBins);
  EXPECT_EQ(out.tables.delays.compFromComm, swap.tables.delays.compFromComm);

  // A table-swap frame with a corrupted byte is rejected like any other.
  std::string bad = bytes;
  bad[bytes.size() / 2] = static_cast<char>(bad[bytes.size() / 2] ^ 0x10);
  EXPECT_TRUE(decodeRecords(bad, &clean).empty());
}

TEST(JournalFraming, TableSwapHostileDimensionsRejected) {
  // A valid-CRC kTableSwap frame whose table header claims absurd
  // dimensions must stop the parse, not drive a giant allocation. Payload:
  // kind, epoch, id, timeSec, then the two links (2 x 40 bytes), then
  // n = 0xffffffff.
  std::string payload;
  payload.push_back(3);  // kTableSwap
  payload.append(8, '\0');   // epoch
  payload.append(8, '\0');   // id
  payload.append(8, '\0');   // timeSec
  payload.append(2 * (4 * 8 + 8), '\0');  // both links, all zeros
  payload.append(4, static_cast<char>(0xff));  // contender count
  payload.append(4, '\0');                     // bin count
  std::string framed;
  const auto length = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    framed.push_back(static_cast<char>((length >> (8 * i)) & 0xffu));
  }
  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i) {
    framed.push_back(static_cast<char>((crc >> (8 * i)) & 0xffu));
  }
  framed += payload;
  std::size_t clean = 0;
  EXPECT_TRUE(decodeRecords(framed, &clean).empty());
  EXPECT_EQ(clean, 0u);
}

TEST(JournalFraming, SnapshotRoundTrip) {
  SnapshotImage image;
  image.epoch = 42;
  image.arrivals = 30;
  image.departures = 12;
  image.checkpoint.ids = {5, 9};
  image.checkpoint.apps = {{0.25, 128}, {0.55, 4096, 0.2, 40}};
  image.checkpoint.commPoly = {0.1875, 0.625, 0.1875};
  image.checkpoint.compPoly = {0.1875, 0.625, 0.1875};
  image.checkpoint.ioPoly = {0.8, 0.2, 0.0};
  image.checkpoint.nextId = 10;
  image.checkpoint.lastEventTimeSec = 123.456;
  image.tableGeneration = 3;
  image.tables = testPlatform();
  image.tables.fromBackend.small.alphaSec = 0.0025;  // a recalibrated link

  const std::optional<SnapshotImage> decoded =
      decodeSnapshot(encodeSnapshot(image));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->epoch, 42u);
  EXPECT_EQ(decoded->arrivals, 30u);
  EXPECT_EQ(decoded->departures, 12u);
  EXPECT_EQ(decoded->checkpoint.ids, image.checkpoint.ids);
  ASSERT_EQ(decoded->checkpoint.apps.size(), 2u);
  EXPECT_EQ(bits(decoded->checkpoint.apps[1].commFraction), bits(0.55));
  EXPECT_EQ(decoded->checkpoint.apps[1].messageWords, 4096);
  EXPECT_EQ(bits(decoded->checkpoint.apps[1].ioFraction), bits(0.2));
  EXPECT_EQ(decoded->checkpoint.apps[1].ioOps, 40);
  ASSERT_EQ(decoded->checkpoint.commPoly.size(), 3u);
  EXPECT_EQ(bits(decoded->checkpoint.commPoly[1]), bits(0.625));
  ASSERT_EQ(decoded->checkpoint.ioPoly.size(), 3u);
  EXPECT_EQ(bits(decoded->checkpoint.ioPoly[0]), bits(0.8));
  EXPECT_EQ(decoded->checkpoint.nextId, 10u);
  EXPECT_EQ(bits(decoded->checkpoint.lastEventTimeSec), bits(123.456));
  // The platform tables ride along bit-identically.
  EXPECT_EQ(decoded->tableGeneration, 3u);
  EXPECT_EQ(bits(decoded->tables.fromBackend.small.alphaSec), bits(0.0025));
  EXPECT_EQ(bits(decoded->tables.toBackend.large.alphaSec),
            bits(image.tables.toBackend.large.alphaSec));
  EXPECT_EQ(decoded->tables.delays.commFromComp,
            image.tables.delays.commFromComp);
  EXPECT_EQ(decoded->tables.delays.jBins, image.tables.delays.jBins);
  EXPECT_EQ(decoded->tables.delays.compFromComm,
            image.tables.delays.compFromComm);
}

TEST(JournalFraming, SnapshotCorruptionRejected) {
  SnapshotImage image;
  image.epoch = 5;
  image.checkpoint.ids = {1};
  image.checkpoint.apps = {{0.5, 64}};
  image.checkpoint.commPoly = {0.5, 0.5};
  image.checkpoint.compPoly = {0.5, 0.5};
  image.checkpoint.ioPoly = {1.0, 0.0};
  image.checkpoint.nextId = 2;
  const std::string good = encodeSnapshot(image);
  ASSERT_TRUE(decodeSnapshot(good).has_value());

  // Any single flipped byte must be caught by the CRC.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    EXPECT_FALSE(decodeSnapshot(bad).has_value()) << "flipped byte " << i;
  }
  // Truncations and trailing garbage too.
  EXPECT_FALSE(decodeSnapshot(good.substr(0, good.size() - 1)).has_value());
  EXPECT_FALSE(decodeSnapshot(good + 'x').has_value());
  EXPECT_FALSE(decodeSnapshot("").has_value());
}

TEST(Journal, AppendLoadRoundTrip) {
  const std::string path = uniqueJournalPath("roundtrip");
  {
    JournalConfig config;
    config.path = path;
    config.fsync = FsyncPolicy::kOff;
    Journal journal(config);
    const Journal::LoadedState fresh = journal.load();
    EXPECT_FALSE(fresh.snapshot.has_value());
    EXPECT_TRUE(fresh.tail.empty());
    journal.start(0);
    journal.appendArrive(1, 1, {0.5, 256}, 0.1);
    journal.appendDepart(2, 1, 0.2);
    const JournalStats stats = journal.stats();
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.lagRecords, 2u);
    EXPECT_EQ(stats.appendErrors, 0u);
  }
  JournalConfig config;
  config.path = path;
  Journal reopened(config);
  const Journal::LoadedState state = reopened.load();
  EXPECT_FALSE(state.snapshot.has_value());
  EXPECT_EQ(state.truncatedBytes, 0u);
  ASSERT_EQ(state.tail.size(), 2u);
  EXPECT_EQ(state.tail[0].kind, JournalRecord::Kind::kArrive);
  EXPECT_EQ(state.tail[0].epoch, 1u);
  EXPECT_EQ(state.tail[1].kind, JournalRecord::Kind::kDepart);
  EXPECT_EQ(state.tail[1].epoch, 2u);
  ::unlink(path.c_str());
}

TEST(Journal, TableSwapAppendReloads) {
  const std::string path = uniqueJournalPath("tableswap");
  model::ParagonPlatformModel swapped = testPlatform();
  swapped.toBackend.small = {0.0075, 640.0};
  swapped.delays.commFromComp[0] = 0.55;
  {
    JournalConfig config;
    config.path = path;
    config.fsync = FsyncPolicy::kOff;
    Journal journal(config);
    (void)journal.load();
    journal.start(0);
    journal.appendArrive(1, 1, {0.5, 256}, 0.1);
    journal.appendTableSwap(1, 2, swapped, 0.2);
    EXPECT_EQ(journal.stats().records, 2u);
  }
  JournalConfig config;
  config.path = path;
  Journal reopened(config);
  const Journal::LoadedState state = reopened.load();
  ASSERT_EQ(state.tail.size(), 2u);
  EXPECT_EQ(state.tail[1].kind, JournalRecord::Kind::kTableSwap);
  EXPECT_EQ(state.tail[1].id, 2u);  // the generation the swap produced
  EXPECT_EQ(bits(state.tail[1].tables.toBackend.small.alphaSec),
            bits(0.0075));
  EXPECT_EQ(bits(state.tail[1].tables.toBackend.small.betaWordsPerSec),
            bits(640.0));
  EXPECT_EQ(state.tail[1].tables.delays.commFromComp,
            swapped.delays.commFromComp);
  ::unlink(path.c_str());
}

TEST(Journal, TornFileTailTruncatedOnStart) {
  const std::string path = uniqueJournalPath("torn");
  {
    JournalConfig config;
    config.path = path;
    config.fsync = FsyncPolicy::kOff;
    Journal journal(config);
    (void)journal.load();
    journal.start(0);
    journal.appendArrive(1, 1, {0.5, 256}, 0.1);
  }
  // Simulate a crash mid-append: half a frame at the end of the file.
  const std::string clean = readFile(path);
  writeFile(path, clean + encodeRecord(makeArrive(2, 2, 0.1, 64, 1.0))
                              .substr(0, 5));

  JournalConfig config;
  config.path = path;
  config.fsync = FsyncPolicy::kOff;
  Journal journal(config);
  const Journal::LoadedState state = journal.load();
  ASSERT_EQ(state.tail.size(), 1u);
  EXPECT_EQ(state.truncatedBytes, 5u);
  journal.start(static_cast<std::uint64_t>(state.tail.size()));
  // start() must have cut the torn bytes so the next append frames cleanly.
  journal.appendArrive(2, 2, {0.1, 64}, 1.0);
  const std::string after = readFile(path);
  std::size_t cleanBytes = 0;
  const auto records = decodeRecords(
      std::string_view(after).substr(journalMagic().size()), &cleanBytes);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(cleanBytes + journalMagic().size(), after.size());
  ::unlink(path.c_str());
}

TEST(Journal, ForeignMagicRejected) {
  const std::string path = uniqueJournalPath("foreign");
  writeFile(path, "NOTAJRN1somethingelse");
  JournalConfig config;
  config.path = path;
  Journal journal(config);
  EXPECT_THROW((void)journal.load(), std::runtime_error);
  ::unlink(path.c_str());
}

TEST(Journal, CorruptSnapshotThrows) {
  const std::string path = uniqueJournalPath("badsnap");
  writeFile(path + ".snapshot",
            std::string(snapshotMagic()) + "garbage-not-a-frame");
  JournalConfig config;
  config.path = path;
  Journal journal(config);
  EXPECT_THROW((void)journal.load(), std::runtime_error);
  ::unlink((path + ".snapshot").c_str());
}

TEST(JournalRecovery, FreshJournalReportsNotRecovered) {
  const std::string path = uniqueJournalPath("fresh");
  JournalConfig config;
  config.path = path;
  config.fsync = FsyncPolicy::kOff;
  Journal journal(config);
  ConcurrentTracker tracker(testPlatform());
  const RecoveryReport report = tracker.recoverFromJournal(journal);
  EXPECT_FALSE(report.recovered);
  EXPECT_EQ(report.epoch, 0u);
  // The journal is attached: mutations append from here on.
  tracker.arrive({0.5, 128});
  EXPECT_EQ(journal.stats().records, 1u);
  ::unlink(path.c_str());
}

TEST(JournalRecovery, ReplayMatchesLiveBitIdentical) {
  const std::string path = uniqueJournalPath("bitident");
  JournalConfig config;
  config.path = path;
  config.snapshotEvery = 5;  // force snapshot + tail across the workload
  config.fsync = FsyncPolicy::kOff;

  Journal journalA(config);
  ConcurrentTracker trackerA(testPlatform());
  ASSERT_FALSE(trackerA.recoverFromJournal(journalA).recovered);
  applyOps(trackerA, 23, 1234u);
  const SlowdownSnapshot live = trackerA.slowdowns();
  const TrackerStats liveStats = trackerA.stats();
  EXPECT_GE(journalA.stats().snapshots, 1u);
  EXPECT_LT(journalA.stats().lagRecords, 5u);

  tools::TaskSpec task;
  task.name = "probe";
  task.frontEndSec = 8.0;
  task.backEndSec = 1.5;
  task.toBackend.push_back({512, 512});
  task.fromBackend.push_back({512, 512});
  const TaskPrediction livePrediction = trackerA.predict(task);

  // Rebuild a second tracker from the same files (A is idle; reads only).
  Journal journalB(config);
  ConcurrentTracker trackerB(testPlatform());
  const RecoveryReport report = trackerB.recoverFromJournal(journalB);
  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(report.snapshotLoaded);
  EXPECT_EQ(report.epoch, live.epoch);

  const SlowdownSnapshot recovered = trackerB.slowdowns();
  EXPECT_EQ(recovered.epoch, live.epoch);
  EXPECT_EQ(recovered.signature, live.signature);
  EXPECT_EQ(recovered.active, live.active);
  // The acceptance bar: bit-identical, not merely close.
  EXPECT_EQ(bits(recovered.comp), bits(live.comp));
  EXPECT_EQ(bits(recovered.comm), bits(live.comm));
  EXPECT_EQ(trackerB.stats().arrivals, liveStats.arrivals);
  EXPECT_EQ(trackerB.stats().departures, liveStats.departures);

  const TaskPrediction recoveredPrediction = trackerB.predict(task);
  EXPECT_EQ(bits(recoveredPrediction.frontSec), bits(livePrediction.frontSec));
  EXPECT_EQ(bits(recoveredPrediction.remoteSec),
            bits(livePrediction.remoteSec));
  EXPECT_EQ(recoveredPrediction.offload, livePrediction.offload);

  // Both trackers must agree on the *next* mutation too (id continuity).
  const MutationResult nextA = trackerA.arrive({0.33, 333});
  const MutationResult nextB = trackerB.arrive({0.33, 333});
  EXPECT_EQ(nextA.id, nextB.id);
  EXPECT_EQ(bits(nextA.after.comp), bits(nextB.after.comp));
  EXPECT_EQ(bits(nextA.after.comm), bits(nextB.after.comm));

  ::unlink(path.c_str());
  ::unlink((path + ".snapshot").c_str());
}

TEST(JournalRecovery, TableSwapReplaysBitIdentical) {
  const std::string path = uniqueJournalPath("swapident");
  JournalConfig config;
  config.path = path;
  config.snapshotEvery = 1000;  // keep the swap in the tail, not a snapshot
  config.fsync = FsyncPolicy::kOff;

  tools::TaskSpec task;
  task.name = "probe";
  task.frontEndSec = 8.0;
  task.backEndSec = 1.5;
  task.toBackend.push_back({512, 512});
  task.fromBackend.push_back({512, 512});

  Journal journalA(config);
  ConcurrentTracker trackerA(testPlatform());
  ASSERT_FALSE(trackerA.recoverFromJournal(journalA).recovered);
  applyOps(trackerA, 11, 99u);
  // Recalibrate the to-backend link well away from the boot tables, swap.
  for (int i = 1; i <= 8; ++i) {
    CalibrationObservation observation;
    observation.family = ObservationFamily::kLinkToBackend;
    observation.words = 100 * i;
    observation.value = 0.02 + static_cast<double>(100 * i) / 400.0;
    trackerA.observeCalibration(observation);
  }
  ASSERT_EQ(trackerA.applyCalibration().generation, 1u);
  // A couple of post-swap mutations (bounded: applyOps again would forget
  // the first batch's survivors and overflow the 8-contender tables).
  (void)trackerA.arrive({0.4, 300});
  (void)trackerA.arrive({0.6, 700});
  const TaskPrediction livePrediction = trackerA.predict(task);

  // Rebuild from the files: the kTableSwap record must restore generation
  // and tables without any estimator state.
  Journal journalB(config);
  ConcurrentTracker trackerB(testPlatform());
  const RecoveryReport report = trackerB.recoverFromJournal(journalB);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(trackerB.tableGeneration(), 1u);
  const TaskPrediction recovered = trackerB.predict(task);
  EXPECT_EQ(bits(recovered.frontSec), bits(livePrediction.frontSec));
  EXPECT_EQ(bits(recovered.remoteSec), bits(livePrediction.remoteSec));
  EXPECT_EQ(recovered.offload, livePrediction.offload);

  ::unlink(path.c_str());
  ::unlink((path + ".snapshot").c_str());
}

TEST(JournalRecovery, SnapshotCompactionShrinksJournal) {
  const std::string path = uniqueJournalPath("compact");
  JournalConfig config;
  config.path = path;
  config.snapshotEvery = 4;
  config.fsync = FsyncPolicy::kOff;
  Journal journal(config);
  ConcurrentTracker tracker(testPlatform());
  tracker.recoverFromJournal(journal);
  for (int i = 0; i < 4; ++i) {
    tracker.arrive({0.2, 100});
  }
  // The 4th append crossed snapshotEvery: the journal is compacted back to
  // its header and the snapshot carries the whole state.
  EXPECT_EQ(journal.stats().snapshots, 1u);
  EXPECT_EQ(journal.stats().lagRecords, 0u);
  EXPECT_EQ(readFile(path).size(), journalMagic().size());
  const Journal::LoadedState state = Journal(config).load();
  ASSERT_TRUE(state.snapshot.has_value());
  EXPECT_EQ(state.snapshot->epoch, 4u);
  EXPECT_TRUE(state.tail.empty());
  ::unlink(path.c_str());
  ::unlink((path + ".snapshot").c_str());
}

TEST(JournalRecovery, StaleTailRecordsBelowSnapshotEpochAreSkipped) {
  const std::string path = uniqueJournalPath("stale");
  JournalConfig config;
  config.path = path;
  config.snapshotEvery = 4;
  config.fsync = FsyncPolicy::kOff;
  {
    Journal journal(config);
    ConcurrentTracker tracker(testPlatform());
    tracker.recoverFromJournal(journal);
    for (int i = 0; i < 4; ++i) tracker.arrive({0.2, 100});
  }
  // Simulate a crash between snapshot write and journal truncation: put the
  // already-snapshotted records back into the journal file.
  std::string bytes(journalMagic());
  for (std::uint64_t e = 1; e <= 4; ++e) {
    bytes += encodeRecord(makeArrive(e, e, 0.2, 100, 0.0));
  }
  writeFile(path, bytes);

  Journal journal(config);
  ConcurrentTracker tracker(testPlatform());
  const RecoveryReport report = tracker.recoverFromJournal(journal);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.epoch, 4u);
  EXPECT_EQ(report.replayedRecords, 0u);  // all stale, all skipped
  EXPECT_EQ(tracker.slowdowns().active, 4);
  ::unlink(path.c_str());
  ::unlink((path + ".snapshot").c_str());
}

TEST(Journal, FsyncAlwaysCountsPerAppend) {
  const std::string path = uniqueJournalPath("fsyncalways");
  JournalConfig config;
  config.path = path;
  config.fsync = FsyncPolicy::kAlways;
  Journal journal(config);
  (void)journal.load();
  journal.start(0);
  journal.appendArrive(1, 1, {0.5, 256}, 0.0);
  journal.appendDepart(2, 1, 0.1);
  EXPECT_GE(journal.stats().fsyncs, 2u);
  ::unlink(path.c_str());
}

TEST(Journal, FsyncIntervalFlushesInBackground) {
  const std::string path = uniqueJournalPath("fsyncint");
  JournalConfig config;
  config.path = path;
  config.fsync = FsyncPolicy::kInterval;
  config.fsyncIntervalMs = 1;
  Journal journal(config);
  (void)journal.load();
  journal.start(0);
  journal.appendArrive(1, 1, {0.5, 256}, 0.0);
  // The 1 ms flusher must pick the dirty byte count up shortly.
  for (int i = 0; i < 500 && journal.stats().fsyncs == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(journal.stats().fsyncs, 1u);
  ::unlink(path.c_str());
}

TEST(JournalFaultInjection, AppendFailureLatchesWithoutCrashing) {
  const std::string path = uniqueJournalPath("inject");
  JournalConfig config;
  config.path = path;
  config.fsync = FsyncPolicy::kOff;
  Journal journal(config);
  ConcurrentTracker tracker(testPlatform());
  tracker.recoverFromJournal(journal);
  tracker.arrive({0.5, 128});
  ASSERT_EQ(journal.stats().records, 1u);

  SyscallHooks hooks;
  hooks.write = [](int, const void*, std::size_t) -> ssize_t {
    errno = EIO;
    return -1;
  };
  {
    HookGuard guard(&hooks);
    // Availability over durability: the mutation succeeds, the journal
    // counts the error and latches failed.
    const MutationResult result = tracker.arrive({0.3, 64});
    EXPECT_EQ(result.after.epoch, 2u);
    EXPECT_GE(journal.stats().appendErrors, 1u);
  }
  // Even with hooks removed the journal stays failed — a half-written tail
  // must not be appended after.
  const std::uint64_t errorsBefore = journal.stats().appendErrors;
  tracker.arrive({0.3, 64});
  EXPECT_EQ(journal.stats().records, 1u);
  EXPECT_GT(journal.stats().appendErrors, errorsBefore);
  // The on-disk prefix is still fully decodable.
  const std::string bytes = readFile(path);
  std::size_t clean = 0;
  const auto records = decodeRecords(
      std::string_view(bytes).substr(journalMagic().size()), &clean);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(clean + journalMagic().size(), bytes.size());
  ::unlink(path.c_str());
}

TEST(JournalFaultInjection, FailedDirectoryFsyncSkipsCompaction) {
  const std::string path = uniqueJournalPath("dirsync");
  JournalConfig config;
  config.path = path;
  config.snapshotEvery = 4;
  config.fsync = FsyncPolicy::kOff;
  Journal journal(config);
  ConcurrentTracker tracker(testPlatform());
  tracker.recoverFromJournal(journal);
  for (int i = 0; i < 3; ++i) tracker.arrive({0.2, 100 + i});
  ASSERT_EQ(journal.stats().appendErrors, 0u);

  // Fail only the fsync of a directory: the snapshot file itself syncs,
  // but its rename into the directory is never made durable.
  SyscallHooks hooks;
  hooks.fsync = [](int fd) -> int {
    struct stat info{};
    if (::fstat(fd, &info) == 0 && S_ISDIR(info.st_mode)) {
      errno = EIO;
      return -1;
    }
    return ::fsync(fd);
  };
  {
    HookGuard guard(&hooks);
    tracker.arrive({0.3, 400});  // crosses snapshotEvery
  }
  // Counted as an error, and the journal keeps every record: after a power
  // loss the rename may be gone, so the records are the only copy.
  EXPECT_EQ(journal.stats().appendErrors, 1u);
  EXPECT_EQ(journal.stats().snapshots, 0u);
  EXPECT_EQ(journal.stats().lagRecords, 4u);
  EXPECT_GT(readFile(path).size(), journalMagic().size());
  const Journal::LoadedState state = Journal(config).load();
  EXPECT_EQ(state.tail.size(), 4u);

  Journal fresh(config);
  ConcurrentTracker recovered(testPlatform());
  const RecoveryReport report = recovered.recoverFromJournal(fresh);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.epoch, 4u);
  const SlowdownSnapshot live = tracker.slowdowns();
  const SlowdownSnapshot back = recovered.slowdowns();
  EXPECT_EQ(back.active, live.active);
  EXPECT_EQ(back.signature, live.signature);
  EXPECT_EQ(bits(back.comp), bits(live.comp));
  EXPECT_EQ(bits(back.comm), bits(live.comm));
  ::unlink(path.c_str());
  ::unlink((path + ".snapshot").c_str());
}

TEST(JournalFaultInjection, ShortWritesStillFrameCleanly) {
  const std::string path = uniqueJournalPath("short");
  JournalConfig config;
  config.path = path;
  config.fsync = FsyncPolicy::kOff;
  SyscallHooks hooks;
  hooks.write = [](int fd, const void* data, std::size_t size) -> ssize_t {
    return ::write(fd, data, std::min<std::size_t>(size, 1));
  };
  {
    HookGuard guard(&hooks);
    Journal journal(config);
    (void)journal.load();
    journal.start(0);
    journal.appendArrive(1, 1, {0.5, 256}, 0.0);
    journal.appendDepart(2, 1, 0.1);
    EXPECT_EQ(journal.stats().records, 2u);
    EXPECT_EQ(journal.stats().appendErrors, 0u);
  }
  Journal journal(config);
  const Journal::LoadedState state = journal.load();
  EXPECT_EQ(state.truncatedBytes, 0u);
  EXPECT_EQ(state.tail.size(), 2u);
  ::unlink(path.c_str());
}

TEST(JournalFaultInjection, InjectedDelaysAreHarmless) {
  const std::string path = uniqueJournalPath("delay");
  JournalConfig config;
  config.path = path;
  config.fsync = FsyncPolicy::kAlways;
  SyscallHooks hooks;
  hooks.write = [](int fd, const void* data, std::size_t size) -> ssize_t {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return ::write(fd, data, size);
  };
  hooks.fsync = [](int fd) -> int {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return ::fsync(fd);
  };
  HookGuard guard(&hooks);
  Journal journal(config);
  (void)journal.load();
  journal.start(0);
  journal.appendArrive(1, 1, {0.5, 256}, 0.0);
  EXPECT_EQ(journal.stats().records, 1u);
  EXPECT_GE(journal.stats().fsyncs, 1u);
  ::unlink(path.c_str());
}

TEST(Journal, FsyncPolicyNamesRoundTrip) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kAlways, FsyncPolicy::kInterval, FsyncPolicy::kOff}) {
    const auto parsed = fsyncPolicyFromName(fsyncPolicyName(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(fsyncPolicyFromName("sometimes").has_value());
}

}  // namespace
}  // namespace contend::serve
