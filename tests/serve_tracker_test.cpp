// Tests for serve::ConcurrentTracker: single-threaded semantics vs the
// underlying OnlineContentionTracker, memo-cache behavior across recurring
// mixes, and a multi-threaded stress run whose replication log is replayed
// on a fresh single-owner tracker and compared epoch by epoch.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "serve/concurrent_tracker.hpp"
#include "serve/replication.hpp"

namespace contend::serve {
namespace {

model::ParagonPlatformModel testPlatform(int maxContenders = 16) {
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

tools::TaskSpec unitTask() {
  // front == 1 and no transfers, so frontSec equals the comp slowdown and
  // remoteSec equals the back-end time — handy for cross-checking epochs.
  tools::TaskSpec task;
  task.name = "unit";
  task.frontEndSec = 1.0;
  task.backEndSec = 0.25;
  return task;
}

TEST(ConcurrentTracker, MatchesSingleOwnerTracker) {
  const auto platform = testPlatform(4);
  ConcurrentTracker concurrent(platform);
  sched::OnlineContentionTracker serial(platform);

  const auto a = concurrent.arrive({0.2, 100});
  serial.applicationArrived(1.0, {0.2, 100});
  EXPECT_EQ(a.after.epoch, 1u);
  EXPECT_EQ(a.after.active, 1);
  EXPECT_DOUBLE_EQ(a.after.comp, serial.compSlowdown());
  EXPECT_DOUBLE_EQ(a.after.comm, serial.commSlowdown());

  const auto b = concurrent.arrive({0.9, 1200});
  serial.applicationArrived(2.0, {0.9, 1200});
  EXPECT_DOUBLE_EQ(b.after.comp, serial.compSlowdown());

  const auto removed = concurrent.depart(a.id);
  serial.applicationDeparted(3.0, 1);
  EXPECT_EQ(removed.id, a.id);
  EXPECT_EQ(removed.after.epoch, 3u);
  EXPECT_DOUBLE_EQ(removed.after.comp, serial.compSlowdown());
  EXPECT_DOUBLE_EQ(removed.after.comm, serial.commSlowdown());

  const tools::TaskSpec task = unitTask();
  const TaskPrediction prediction = concurrent.predict(task);
  EXPECT_DOUBLE_EQ(prediction.frontSec, serial.predictFrontEndComp(1.0));
  EXPECT_DOUBLE_EQ(prediction.remoteSec, 0.25);
  EXPECT_FALSE(prediction.cacheHit);
  EXPECT_EQ(prediction.epoch, 3u);
  (void)b;
}

TEST(ConcurrentTracker, PropagatesTrackerErrorsWithoutMutating) {
  ConcurrentTracker tracker(testPlatform(1));
  EXPECT_THROW((void)tracker.depart(999), std::invalid_argument);
  (void)tracker.arrive({0.0, 0});
  EXPECT_THROW((void)tracker.arrive({0.0, 0}), std::runtime_error);
  const SlowdownSnapshot snapshot = tracker.slowdowns();
  EXPECT_EQ(snapshot.epoch, 1u);  // failed calls must not bump the epoch
  EXPECT_EQ(snapshot.active, 1);
}

TEST(ConcurrentTracker, CacheHitsUnderUnchangedMix) {
  ConcurrentTracker tracker(testPlatform());
  (void)tracker.arrive({0.3, 800});
  const tools::TaskSpec task = unitTask();

  EXPECT_FALSE(tracker.predict(task).cacheHit);
  EXPECT_TRUE(tracker.predict(task).cacheHit);
  EXPECT_TRUE(tracker.predict(task).cacheHit);

  const TrackerStats stats = tracker.stats();
  EXPECT_EQ(stats.cacheHits, 2u);
  EXPECT_EQ(stats.cacheMisses, 1u);
  EXPECT_EQ(stats.cacheEntries, 1u);
}

TEST(ConcurrentTracker, CacheHitsWhenMixRecurs) {
  ConcurrentTracker tracker(testPlatform());
  (void)tracker.arrive({0.3, 800});
  const tools::TaskSpec task = unitTask();
  const TaskPrediction before = tracker.predict(task);
  EXPECT_FALSE(before.cacheHit);

  // Perturb the mix, then restore it: the signature is content-based, so
  // the original entry must hit again even though the epoch moved on.
  const auto transient = tracker.arrive({0.5, 100});
  EXPECT_FALSE(tracker.predict(task).cacheHit);
  (void)tracker.depart(transient.id);
  const TaskPrediction after = tracker.predict(task);
  EXPECT_TRUE(after.cacheHit);
  EXPECT_DOUBLE_EQ(after.frontSec, before.frontSec);
  EXPECT_GT(after.epoch, before.epoch);
}

TEST(ConcurrentTracker, DistinctTasksGetDistinctEntries) {
  ConcurrentTracker tracker(testPlatform());
  (void)tracker.arrive({0.3, 800});
  tools::TaskSpec small = unitTask();
  tools::TaskSpec large = unitTask();
  large.toBackend.push_back({512, 512});
  EXPECT_FALSE(tracker.predict(small).cacheHit);
  EXPECT_FALSE(tracker.predict(large).cacheHit);
  EXPECT_TRUE(tracker.predict(small).cacheHit);
  EXPECT_TRUE(tracker.predict(large).cacheHit);
  EXPECT_EQ(tracker.stats().cacheEntries, 2u);
}

// Without a finalizer on each app hash, {0.3/1, 0.3/1} and
// {0.3/346, 0.3/1000} sum to the same signature (FNV-1a over mostly zero
// bytes is linear enough to collide), and a PREDICT on the second mix
// answers with the first mix's cached price. Each mix must be priced as a
// fresh tracker prices it.
TEST(ConcurrentTracker, MixesWithDistinctAppsGetDistinctPrices) {
  tools::TaskSpec task = unitTask();
  task.frontEndSec = 8.0;
  ConcurrentTracker warm(testPlatform());
  const auto first = warm.arrive({0.3, 1});
  const auto second = warm.arrive({0.3, 1});
  (void)warm.predict(task);
  (void)warm.depart(first.id);
  (void)warm.depart(second.id);
  (void)warm.arrive({0.3, 346});
  (void)warm.arrive({0.3, 1000});
  const TaskPrediction cached = warm.predict(task);

  ConcurrentTracker fresh(testPlatform());
  (void)fresh.arrive({0.3, 346});
  (void)fresh.arrive({0.3, 1000});
  const TaskPrediction priced = fresh.predict(task);
  EXPECT_FALSE(cached.cacheHit);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cached.frontSec),
            std::bit_cast<std::uint64_t>(priced.frontSec));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cached.remoteSec),
            std::bit_cast<std::uint64_t>(priced.remoteSec));
}

TEST(ConcurrentTracker, CacheStaysBounded) {
  ConcurrentTracker tracker(testPlatform(), /*cacheCapacity=*/8);
  for (int i = 0; i < 100; ++i) {
    tools::TaskSpec task = unitTask();
    task.frontEndSec = 1.0 + i;
    (void)tracker.predict(task);
  }
  EXPECT_LE(tracker.stats().cacheEntries, 8u);
}

// The concurrency contract, exercised hard: >= 8 threads interleave
// arrive/depart/predict/slowdown. Afterwards, the replication log — the
// serialized mutation order, as encoded journal frames — is replayed on a
// fresh OnlineContentionTracker; the slowdowns and p every mutation
// returned must match the replay bit for bit (same operation sequence =>
// identical floating-point results), and every epoch-stamped observation
// made by any thread must match the replayed state at its epoch.
TEST(ConcurrentTrackerStress, ConcurrentOpsMatchSerialReplay) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  const auto platform = testPlatform(kThreads * 2 + 2);
  ConcurrentTracker tracker(platform);
  // Room for every mutation the threads can make (at most one per op plus
  // the final departures), so the log keeps the whole run.
  ReplicationLog replication(4 * kThreads * kOpsPerThread);
  tracker.attachReplicationLog(&replication);
  const tools::TaskSpec task = unitTask();

  struct Observation {
    std::uint64_t epoch;
    double comp;  // from slowdowns(), or predict().frontSec (front == 1)
    const char* source;
  };
  std::vector<std::vector<Observation>> observed(kThreads);
  std::vector<std::vector<SlowdownSnapshot>> mutated(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(1000u + static_cast<unsigned>(t));
      std::vector<std::uint64_t> mine;  // ids this thread owns
      auto& log = observed[static_cast<std::size_t>(t)];
      auto& mutations = mutated[static_cast<std::size_t>(t)];
      log.reserve(kOpsPerThread);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const unsigned choice = rng() % 4;
        if (choice == 0 && mine.size() < 2) {
          const double fraction = 0.1 * static_cast<double>(rng() % 10);
          const Words words = fraction > 0.0 ? 100 + 100 * (rng() % 12) : 0;
          const MutationResult result = tracker.arrive({fraction, words});
          mine.push_back(result.id);
          mutations.push_back(result.after);
          log.push_back({result.after.epoch, result.after.comp, "arrive"});
        } else if (choice == 1 && !mine.empty()) {
          const MutationResult result = tracker.depart(mine.back());
          mine.pop_back();
          mutations.push_back(result.after);
          log.push_back({result.after.epoch, result.after.comp, "depart"});
        } else if (choice == 2) {
          const SlowdownSnapshot snapshot = tracker.slowdowns();
          log.push_back({snapshot.epoch, snapshot.comp, "slowdowns"});
        } else {
          const TaskPrediction prediction = tracker.predict(task);
          log.push_back({prediction.epoch, prediction.frontSec,
                         prediction.cacheHit ? "predict (hit)" : "predict"});
        }
      }
      for (const std::uint64_t id : mine) {
        mutations.push_back(tracker.depart(id).after);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Decode the serialized mutation order out of the replication log.
  const ReplicationLog::Batch batch =
      replication.since(0, SIZE_MAX, SIZE_MAX);
  ASSERT_FALSE(batch.snapshotNeeded);
  std::string frames;
  for (const auto& [frameEpoch, frame] : batch.frames) frames += frame;
  std::size_t cleanBytes = 0;
  const std::vector<JournalRecord> records =
      decodeRecords(frames, &cleanBytes);
  ASSERT_EQ(cleanBytes, frames.size());
  ASSERT_EQ(records.size(), batch.frames.size());
  ASSERT_EQ(records.size(), tracker.slowdowns().epoch);

  // Replay it on a single-owner tracker.
  sched::OnlineContentionTracker replay(platform);
  std::map<std::uint64_t, SlowdownSnapshot> replayed;  // epoch -> state
  replayed[0] = SlowdownSnapshot{};
  std::uint64_t epoch = 0;
  for (const JournalRecord& record : records) {
    ASSERT_EQ(record.epoch, ++epoch);
    if (record.kind == JournalRecord::Kind::kArrive) {
      const std::uint64_t replayedId =
          replay.applicationArrived(record.timeSec, record.app);
      // Ids are allocated sequentially, so an identical op sequence yields
      // identical ids — which is what lets departures replay by id.
      ASSERT_EQ(replayedId, record.id);
    } else {
      ASSERT_EQ(record.kind, JournalRecord::Kind::kDepart);
      (void)replay.applicationDeparted(record.timeSec, record.id);
    }
    SlowdownSnapshot& state = replayed[epoch];
    state.epoch = epoch;
    state.active = replay.activeApplications();
    state.comp = replay.compSlowdown();
    state.comm = replay.commSlowdown();
  }
  EXPECT_EQ(replay.activeApplications(), 0);

  // Every mutation's returned state matches the replay at its epoch, and
  // the mutations cover every replayed epoch exactly once.
  std::size_t mutations = 0;
  for (const auto& perThread : mutated) {
    for (const SlowdownSnapshot& after : perThread) {
      const auto it = replayed.find(after.epoch);
      ASSERT_NE(it, replayed.end()) << "mutation at unknown epoch "
                                    << after.epoch;
      EXPECT_DOUBLE_EQ(after.comp, it->second.comp) << "epoch " << after.epoch;
      EXPECT_DOUBLE_EQ(after.comm, it->second.comm) << "epoch " << after.epoch;
      EXPECT_EQ(after.active, it->second.active) << "epoch " << after.epoch;
      ++mutations;
    }
  }
  EXPECT_EQ(mutations, records.size());

  // Every observation any thread made must match the replayed state at the
  // epoch it was stamped with.
  std::size_t checked = 0;
  for (const auto& log : observed) {
    for (const Observation& observation : log) {
      const auto it = replayed.find(observation.epoch);
      ASSERT_NE(it, replayed.end())
          << "observation at unknown epoch " << observation.epoch;
      // Not bit-equality: a prediction served from the memo cache after a
      // mix *recurred* was computed at an earlier epoch, and the O(p)
      // deconvolution fast path can leave round-off-level residue relative
      // to replaying the full history.
      const double comp = it->second.comp;
      EXPECT_NEAR(observation.comp, comp, 1e-9 * comp)
          << "epoch " << observation.epoch << " from " << observation.source;
      ++checked;
    }
  }
  EXPECT_EQ(checked,
            static_cast<std::size_t>(kThreads) * kOpsPerThread);
}

// The lock-free read path, hammered while mutations run: one writer cycles
// arrivals/departures nonstop while reader threads issue predict /
// predictBatch / slowdowns / stats with no coordination. Each reader checks
// the RCU snapshot contract — epochs never go backwards on a thread, every
// observed snapshot is internally consistent (p == 0 iff both slowdowns are
// 1), and every task in a batch is priced against the *same* snapshot. Run
// under TSan this is the data-race proof for the snapshot publication.
TEST(ConcurrentTrackerStress, ReadersStayConsistentDuringMutations) {
  constexpr int kReaders = 6;
  constexpr auto kDuration = std::chrono::milliseconds(300);
  const auto platform = testPlatform(8);
  ConcurrentTracker tracker(platform);
  const std::vector<tools::TaskSpec> batch = {unitTask(), unitTask(),
                                              unitTask()};

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread writer([&] {
    std::mt19937 rng(42);
    const auto deadline = std::chrono::steady_clock::now() + kDuration;
    while (std::chrono::steady_clock::now() < deadline) {
      const double fraction = 0.1 * static_cast<double>(rng() % 10);
      const Words words = fraction > 0.0 ? 100 + 100 * (rng() % 12) : 0;
      const MutationResult arrived = tracker.arrive({fraction, words});
      (void)tracker.depart(arrived.id);
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t lastEpoch = 0;
      unsigned op = static_cast<unsigned>(t);
      while (!stop.load(std::memory_order_acquire)) {
        std::uint64_t epoch = 0;
        switch (op++ % 4) {
          case 0: {
            const SlowdownSnapshot snapshot = tracker.slowdowns();
            epoch = snapshot.epoch;
            ASSERT_GE(snapshot.active, 0);
            if (snapshot.active == 0) {
              ASSERT_DOUBLE_EQ(snapshot.comp, 1.0);
              ASSERT_DOUBLE_EQ(snapshot.comm, 1.0);
            }
            break;
          }
          case 1: {
            const TaskPrediction prediction = tracker.predict(batch[0]);
            epoch = prediction.epoch;
            ASSERT_GE(prediction.frontSec, batch[0].frontEndSec);
            break;
          }
          case 2: {
            const auto predictions = tracker.predictBatch(batch);
            ASSERT_EQ(predictions.size(), batch.size());
            epoch = predictions[0].epoch;
            for (const TaskPrediction& prediction : predictions) {
              // The whole batch prices against one snapshot.
              ASSERT_EQ(prediction.epoch, epoch);
              ASSERT_DOUBLE_EQ(prediction.frontSec, predictions[0].frontSec);
            }
            break;
          }
          default: {
            const TrackerStats stats = tracker.stats();
            epoch = stats.epoch;
            // One snapshot load: the counts are coherent with the epoch
            // and with p, not merely ordered.
            ASSERT_GE(stats.arrivals, stats.departures);
            ASSERT_EQ(stats.arrivals + stats.departures, stats.epoch);
            ASSERT_EQ(stats.arrivals - stats.departures,
                      static_cast<std::uint64_t>(stats.active));
            break;
          }
        }
        // A single atomic snapshot pointer gives coherent loads: a thread
        // can never observe time moving backwards.
        ASSERT_GE(epoch, lastEpoch);
        lastEpoch = epoch;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(reads.load(), 0u);
  const TrackerStats stats = tracker.stats();
  EXPECT_EQ(stats.active, 0);
  EXPECT_EQ(stats.arrivals, stats.departures);
}

}  // namespace
}  // namespace contend::serve
