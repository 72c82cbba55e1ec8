// Differential test: a live server driven through a randomized (but seeded)
// ARRIVE/DEPART/PREDICT/PREDICT_BATCH/SLOWDOWN schedule — including
// I/O-bearing arrivals (the §4 `io <fraction> <ops>` suffix) and tasks with
// disk shares — checked op-by-op against an offline oracle that never
// touches serve::ConcurrentTracker.
//
// The oracle owns its own sched::OnlineContentionTracker and applies the
// *identical* mutation sequence — that is the only way to get bit-identical
// slowdowns, because the tracker's depart path re-derives mix polynomials by
// deconvolution and a reconstructed-from-scratch mix can differ in final
// ulps (see TrackerCheckpoint's docs). On top of that it re-implements the
// serving layer's pure parts: the FNV mix signature, the prediction-cache
// keying (so cache hit/miss flags are predicted exactly), and the
// prediction arithmetic from model::dcomm / model::shouldOffload.
//
// Every numeric response field is compared through std::bit_cast — the wire
// format's shortest-round-trip double formatting means the client-side
// parse recovers the server's doubles exactly, so the test tolerates zero
// ulps of drift anywhere in the serving stack.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/cm2_model.hpp"
#include "model/comm_model.hpp"
#include "sched/online.hpp"
#include "serve/client.hpp"
#include "serve/concurrent_tracker.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "tools/workload_file.hpp"
#include "serve_loop_layout.hpp"

namespace contend::serve {
namespace {

model::ParagonPlatformModel testPlatform(int maxContenders) {
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

std::string uniqueSocketPath() {
  static int counter = 0;
  return "/tmp/contend_diff_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

// --- the oracle -----------------------------------------------------------
// Duplicates (does not call) the serving layer's hashing so the test fails
// if either side silently changes: same FNV-1a-over-bytes mixing, same
// splitmix64 finalizer on each app hash, same order-independent signature
// sum, same (signature, task) cache key.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnvMix(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t finalize(std::uint64_t hash) {
  hash = (hash ^ (hash >> 30)) * 0xbf58476d1ce4e5b9ull;
  hash = (hash ^ (hash >> 27)) * 0x94d049bb133111ebull;
  return hash ^ (hash >> 31);
}

std::uint64_t appHash(const model::CompetingApp& app) {
  std::uint64_t hash = fnvMix(kFnvOffset,
                              std::bit_cast<std::uint64_t>(app.commFraction));
  hash = fnvMix(hash, static_cast<std::uint64_t>(app.messageWords));
  hash = fnvMix(hash, std::bit_cast<std::uint64_t>(app.ioFraction));
  return finalize(fnvMix(hash, static_cast<std::uint64_t>(app.ioOps)));
}

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

struct OraclePrediction {
  double frontSec = 0.0;
  double remoteSec = 0.0;
  bool offload = false;
  bool cacheHit = false;
};

class ModelOracle {
 public:
  explicit ModelOracle(const model::ParagonPlatformModel& platform)
      : toBackend_(platform.toBackend),
        fromBackend_(platform.fromBackend),
        tracker_(platform) {}

  std::uint64_t arrive(const model::CompetingApp& app) {
    const std::uint64_t id = tracker_.applicationArrived(nextTimeSec(), app);
    signature_ += appHash(app);
    live_.emplace(id, app);
    ++epoch_;
    return id;
  }

  void depart(std::uint64_t id) {
    tracker_.applicationDeparted(nextTimeSec(), id);
    const auto it = live_.find(id);
    ASSERT_NE(it, live_.end());
    signature_ -= appHash(it->second);
    live_.erase(it);
    ++epoch_;
  }

  [[nodiscard]] bool knows(std::uint64_t id) const {
    return live_.count(id) != 0;
  }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] int active() const { return tracker_.activeApplications(); }
  [[nodiscard]] double comp() const { return tracker_.compSlowdown(); }
  [[nodiscard]] double comm() const { return tracker_.commSlowdown(); }
  [[nodiscard]] double io() const { return tracker_.ioSlowdown(); }

  /// Same arithmetic as ConcurrentTracker::predictFromSnapshot, memoized on
  /// the same (mix signature, task hash) key so the hit/miss flag is an
  /// exact expectation, not a maybe.
  OraclePrediction predict(const tools::TaskSpec& task) {
    const std::pair<std::uint64_t, std::uint64_t> key{signature_,
                                                      taskHash(task)};
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
      OraclePrediction out = it->second;
      out.cacheHit = true;
      return out;
    }
    OraclePrediction out;
    const double toBackend =
        model::dcomm(toBackend_, task.toBackend) * comm();
    const double fromBackend =
        model::dcomm(fromBackend_, task.fromBackend) * comm();
    // Mirrors ConcurrentTracker::predictFromView's io-split front-end: the
    // compute share stretches by comp, the disk share by the device
    // slowdown. For ioFraction == 0 this is the IEEE-exact pre-I/O value.
    out.frontSec =
        (task.frontEndSec * (1.0 - task.ioFraction)) * comp() +
        (task.frontEndSec * task.ioFraction) * io();
    out.remoteSec = task.backEndSec + toBackend + fromBackend;
    out.offload = model::shouldOffload(out.frontSec, task.backEndSec,
                                       toBackend, fromBackend);
    out.cacheHit = false;
    memo_.emplace(key, out);
    return out;
  }

 private:
  // The live server stamps events with wall-clock time; the tracker's
  // slowdowns depend only on the mix, so any strictly increasing clock
  // reproduces them.
  double nextTimeSec() { return timeSec_ += 1.0; }

  model::PiecewiseCommParams toBackend_;
  model::PiecewiseCommParams fromBackend_;
  sched::OnlineContentionTracker tracker_;
  std::uint64_t epoch_ = 0;
  std::uint64_t signature_ = 0;
  double timeSec_ = 0.0;
  std::map<std::pair<std::uint64_t, std::uint64_t>, OraclePrediction> memo_;
  std::unordered_map<std::uint64_t, model::CompetingApp> live_;
};

// --- bit-exact comparison helpers ----------------------------------------

void expectBitEqual(double actual, double expected, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << ": server " << actual << " vs oracle " << expected;
}

void expectSnapshotMatches(const Response& response, const ModelOracle& oracle,
                           const std::string& what) {
  ASSERT_TRUE(response.ok) << what << ": " << response.error;
  EXPECT_EQ(response.number("epoch"), static_cast<double>(oracle.epoch()))
      << what;
  EXPECT_EQ(response.number("p"), static_cast<double>(oracle.active()))
      << what;
  expectBitEqual(response.number("comp"), oracle.comp(), what + " comp");
  expectBitEqual(response.number("comm"), oracle.comm(), what + " comm");
  expectBitEqual(response.number("io"), oracle.io(), what + " io");
}

void expectPredictionMatches(const Response& response,
                             const OraclePrediction& expected,
                             std::uint64_t expectedEpoch,
                             const std::string& suffix,
                             const std::string& what) {
  expectBitEqual(response.number("front" + suffix), expected.frontSec,
                 what + " front");
  expectBitEqual(response.number("remote" + suffix), expected.remoteSec,
                 what + " remote");
  const std::string* decision = response.find("decision" + suffix);
  ASSERT_NE(decision, nullptr) << what;
  EXPECT_EQ(*decision, expected.offload ? "back-end" : "front-end") << what;
  const std::string* cache = response.find("cache" + suffix);
  ASSERT_NE(cache, nullptr) << what;
  EXPECT_EQ(*cache, expected.cacheHit ? "hit" : "miss") << what;
  EXPECT_EQ(response.number("epoch"), static_cast<double>(expectedEpoch))
      << what;
}

// --- deterministic schedule generation -----------------------------------

tools::TaskSpec makeTask(std::mt19937& rng) {
  std::uniform_int_distribution<int> setCount(0, 2);
  std::uniform_int_distribution<std::int64_t> messages(1, 64);
  // Words straddle the 1024-word piecewise threshold so both link pieces of
  // dcomm are exercised.
  std::uniform_int_distribution<std::int64_t> words(16, 5000);
  std::uniform_real_distribution<double> seconds(0.05, 20.0);
  std::uniform_real_distribution<double> ioShare(0.05, 0.9);
  std::uniform_int_distribution<std::int64_t> ioOps(1, 4096);
  tools::TaskSpec task;
  task.name = "t" + std::to_string(rng() % 100000);
  task.frontEndSec = seconds(rng);
  task.backEndSec = seconds(rng) * 0.25;
  // About half the tasks carry a §4 disk share, so PREDICT exercises the
  // io-split front-end arithmetic (and its extended cache keying) as hard
  // as the pre-I/O path.
  if (rng() % 2 == 0) {
    task.ioFraction = ioShare(rng);
    task.ioOps = ioOps(rng);
  }
  for (int i = setCount(rng); i > 0; --i) {
    task.toBackend.push_back({messages(rng), words(rng)});
  }
  for (int i = setCount(rng); i > 0; --i) {
    task.fromBackend.push_back({messages(rng), words(rng)});
  }
  return task;
}

/// A 700-op seeded schedule over the wire must produce responses
/// bit-identical to the offline oracle under both loop layouts.
class ServeDifferential : public ::testing::TestWithParam<LoopLayout> {};

CONTEND_INSTANTIATE_LOOP_LAYOUTS(ServeDifferential);

TEST_P(ServeDifferential, RandomScheduleMatchesOfflineOracleBitExactly) {
  constexpr int kMaxContenders = 12;
  constexpr int kMaxActive = 10;
  constexpr int kOps = 700;  // acceptance floor is 500

  const model::ParagonPlatformModel platform = testPlatform(kMaxContenders);
  ServerConfig config;
  config.endpoint = parseEndpoint("unix:" + uniqueSocketPath());
  config.workers = 4;
  config.requestTimeoutMs = 5000;
  config.loopThreads = loopThreadsFor(GetParam());
  ConcurrentTracker tracker(platform);
  Metrics metrics;
  Server server(config, tracker, metrics);
  server.start();

  ModelOracle oracle(platform);
  Client client(config.endpoint);

  std::mt19937 rng(20260805u);
  std::uniform_real_distribution<double> fraction(0.0, 1.0);
  std::uniform_int_distribution<std::int64_t> appWords(0, 4096);
  std::uniform_int_distribution<int> percent(0, 99);

  // A small task pool: re-predicting a pooled task under an unchanged mix is
  // how the schedule provokes cache hits on purpose. Both shapes must be
  // represented, or the io-split prediction path (or the pre-I/O one) would
  // silently drop out of the cache-hit traffic.
  std::vector<tools::TaskSpec> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(makeTask(rng));
  int ioPoolTasks = 0;
  for (const tools::TaskSpec& task : pool) {
    if (task.ioFraction > 0.0) ++ioPoolTasks;
  }
  ASSERT_GT(ioPoolTasks, 0);
  ASSERT_LT(ioPoolTasks, 6);

  std::vector<std::uint64_t> liveIds;
  int mutations = 0;
  int ioArrives = 0;
  int predicts = 0;
  int batches = 0;

  int observes = 0;
  for (int op = 0; op < kOps; ++op) {
    const std::string tag = "op " + std::to_string(op);
    // Recalibration traffic without an APPLY must be invisible to the
    // differential check: OBSERVE folds into the estimator and DRIFT /
    // CALIBRATE only read it — no epoch bump, no snapshot publish, no cache
    // key change. Injected on a fixed cadence outside the RNG stream so the
    // randomized schedule (and the oracle lockstep) is untouched.
    if (op % 50 == 25) {
      CalibrationObservation observation;
      observation.family = (op / 50) % 2 == 0
                               ? ObservationFamily::kCommFromComp
                               : ObservationFamily::kLinkFromBackend;
      observation.contenders = 1 + (op / 50) % kMaxContenders;
      observation.words = 64 * (1 + (op / 50) % 10);
      observation.value = 1.0 + 0.01 * (op / 50);
      const Response observed = client.calibrateObserve(observation);
      ASSERT_TRUE(observed.ok) << tag << ": " << observed.error;
      EXPECT_EQ(*observed.find("generation"), "0") << tag;
      const Response drift = client.drift();
      ASSERT_TRUE(drift.ok) << tag << ": " << drift.error;
      EXPECT_EQ(*drift.find("generation"), "0") << tag;
      const Response report = client.calibrateReport();
      ASSERT_TRUE(report.ok) << tag << ": " << report.error;
      EXPECT_EQ(*report.find("generation"), "0") << tag;
      ++observes;
    }
    const int dice = percent(rng);
    if (dice < 30 && static_cast<int>(liveIds.size()) < kMaxActive) {
      model::CompetingApp app;
      app.commFraction = fraction(rng);
      app.messageWords = appWords(rng);
      // Roughly 40% of arrivals are I/O-bearing (ARRIVE's §4 `io` suffix);
      // the disk share is scaled under 1 - commFraction so the wire-level
      // fraction-sum validation never rejects a generated op. The 4-arg
      // arrive with zeros formats byte-identical lines to the 2-arg one, so
      // pre-I/O ops keep their exact wire bytes.
      if (percent(rng) < 40) {
        app.ioFraction = fraction(rng) * (1.0 - app.commFraction);
        app.ioOps = 1 + appWords(rng);
        ++ioArrives;
      }
      const Response response = client.arrive(app.commFraction,
                                              app.messageWords,
                                              app.ioFraction, app.ioOps);
      const std::uint64_t expectedId = oracle.arrive(app);
      ASSERT_TRUE(response.ok) << tag << ": " << response.error;
      EXPECT_EQ(response.number("id"), static_cast<double>(expectedId)) << tag;
      expectSnapshotMatches(response, oracle, tag + " ARRIVE");
      liveIds.push_back(expectedId);
      ++mutations;
    } else if (dice < 50 && !liveIds.empty()) {
      if (percent(rng) < 5) {
        // Bogus departure: both sides must reject it and stay in lockstep
        // (the server's epoch and signature are untouched by a failed op).
        const std::uint64_t bogus = 1000000 + static_cast<std::uint64_t>(op);
        ASSERT_FALSE(oracle.knows(bogus));
        const Response response = client.depart(bogus);
        EXPECT_FALSE(response.ok) << tag;
        EXPECT_NE(response.error.find("unknown application id"),
                  std::string::npos)
            << tag << ": " << response.error;
        continue;
      }
      std::uniform_int_distribution<std::size_t> pick(0, liveIds.size() - 1);
      const std::size_t index = pick(rng);
      const std::uint64_t id = liveIds[index];
      const Response response = client.depart(id);
      oracle.depart(id);
      expectSnapshotMatches(response, oracle, tag + " DEPART");
      liveIds.erase(liveIds.begin() + static_cast<std::ptrdiff_t>(index));
      ++mutations;
    } else if (dice < 85) {
      std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
      // Mostly pooled tasks (cache hits under a stable mix), occasionally a
      // brand-new one (guaranteed miss).
      const tools::TaskSpec task =
          percent(rng) < 20 ? makeTask(rng) : pool[pick(rng)];
      const Response response = client.predict(task);
      ASSERT_TRUE(response.ok) << tag << ": " << response.error;
      const OraclePrediction expected = oracle.predict(task);
      expectPredictionMatches(response, expected, oracle.epoch(), "",
                              tag + " PREDICT");
      ++predicts;
    } else if (dice < 90) {
      std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
      std::uniform_int_distribution<int> batchSize(2, 4);
      std::vector<tools::TaskSpec> batch;
      for (int i = batchSize(rng); i > 0; --i) batch.push_back(pool[pick(rng)]);
      const Response response = client.predictBatch(batch);
      ASSERT_TRUE(response.ok) << tag << ": " << response.error;
      EXPECT_EQ(response.number("count"), static_cast<double>(batch.size()))
          << tag;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        // Sequential oracle evaluation mirrors the server: a task repeated
        // within one batch is a miss then hits.
        const OraclePrediction expected = oracle.predict(batch[i]);
        expectPredictionMatches(response, expected, oracle.epoch(),
                                '.' + std::to_string(i),
                                tag + " PREDICT_BATCH[" + std::to_string(i) +
                                    "]");
      }
      ++batches;
    } else {
      expectSnapshotMatches(client.slowdown(), oracle, tag + " SLOWDOWN");
    }
    if (::testing::Test::HasFatalFailure()) break;
  }

  // The schedule really exercised every path (guards against a degenerate
  // RNG draw silently weakening the test).
  EXPECT_GE(mutations, 100);
  EXPECT_GE(ioArrives, 20);
  EXPECT_GE(predicts, 150);
  EXPECT_GE(batches, 10);
  EXPECT_GE(observes, 10);

  // Final state agreement, via both SLOWDOWN and STATS.
  expectSnapshotMatches(client.slowdown(), oracle, "final SLOWDOWN");
  const Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.number("epoch"), static_cast<double>(oracle.epoch()));
  EXPECT_EQ(stats.number("p"), static_cast<double>(oracle.active()));
  // All those observations, and the tables never moved.
  EXPECT_EQ(*stats.find("table_generation"), "0");

  server.stop();
}

}  // namespace
}  // namespace contend::serve
