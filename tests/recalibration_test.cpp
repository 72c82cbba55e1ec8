// Tests for the online recalibration subsystem: the Recalibrator's
// deterministic fold/build, drift scoring, the tracker-level atomic table
// swap (the suite name carries "Recalibration" so the CI ThreadSanitizer
// pass picks the concurrency cases up), the CALIBRATE/DRIFT verbs over the
// wire — including the stale-cache regression the tableGeneration key field
// fixes — and the journal-degraded HEALTH/metrics reporting.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/concurrent_tracker.hpp"
#include "serve/journal.hpp"
#include "serve/metrics.hpp"
#include "serve/recalibration.hpp"
#include "serve/server.hpp"
#include "serve_loop_layout.hpp"
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

std::string uniqueSocketPath(const char* tag) {
  static int counter = 0;
  return "/tmp/contend_recal_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter++) + ".sock";
}

std::string uniquePath(const char* tag, const char* suffix) {
  static int counter = 0;
  return "/tmp/contend_recal_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter++) + suffix;
}

CalibrationObservation delayObs(ObservationFamily family, int contenders,
                                Words words, double value) {
  CalibrationObservation observation;
  observation.family = family;
  observation.contenders = contenders;
  observation.words = words;
  observation.value = value;
  return observation;
}

/// Bit-exact platform comparison: the fold is a pure function of the
/// observation sequence, so builds from identical sequences must agree to
/// the last bit, not to a tolerance.
void expectPlatformsIdentical(const model::ParagonPlatformModel& a,
                              const model::ParagonPlatformModel& b) {
  const auto expectLink = [](const model::PiecewiseCommParams& la,
                             const model::PiecewiseCommParams& lb) {
    EXPECT_EQ(la.small.alphaSec, lb.small.alphaSec);
    EXPECT_EQ(la.small.betaWordsPerSec, lb.small.betaWordsPerSec);
    EXPECT_EQ(la.large.alphaSec, lb.large.alphaSec);
    EXPECT_EQ(la.large.betaWordsPerSec, lb.large.betaWordsPerSec);
    EXPECT_EQ(la.thresholdWords, lb.thresholdWords);
  };
  expectLink(a.toBackend, b.toBackend);
  expectLink(a.fromBackend, b.fromBackend);
  EXPECT_EQ(a.delays.commFromComp, b.delays.commFromComp);
  EXPECT_EQ(a.delays.commFromComm, b.delays.commFromComm);
  EXPECT_EQ(a.delays.jBins, b.delays.jBins);
  EXPECT_EQ(a.delays.compFromComm, b.delays.compFromComm);
}

// --- Recalibrator ---------------------------------------------------------

TEST(Recalibration, FamilyNamesRoundTrip) {
  for (int i = 0; i < kObservationFamilyCount; ++i) {
    const auto family = static_cast<ObservationFamily>(i);
    const auto parsed = observationFamilyFromName(observationFamilyName(family));
    ASSERT_TRUE(parsed.has_value()) << observationFamilyName(family);
    EXPECT_EQ(*parsed, family);
  }
  EXPECT_FALSE(observationFamilyFromName("bogus").has_value());
  EXPECT_FALSE(observationFamilyFromName("").has_value());
}

TEST(Recalibration, FoldIsDeterministicAcrossBatchBoundaries) {
  const model::ParagonPlatformModel platform = testPlatform();
  // One long observation sequence mixing every family.
  std::vector<CalibrationObservation> sequence;
  for (int i = 0; i < 40; ++i) {
    sequence.push_back(delayObs(ObservationFamily::kCommFromComp,
                                1 + i % 3, 0, 1.0 + 0.05 * (i % 7)));
    sequence.push_back(delayObs(ObservationFamily::kCompFromComm, 2,
                                100 + 50 * (i % 4), 0.6 + 0.01 * i));
    sequence.push_back(delayObs(ObservationFamily::kLinkToBackend, 0,
                                100 + 37 * i,
                                0.005 + (100.0 + 37 * i) / 700.0));
  }

  Recalibrator oneShot;
  for (const auto& observation : sequence) {
    oneShot.observe(observation, platform);
  }
  // Same sequence, chopped into uneven batches with reports and drift reads
  // interleaved — read-only calls must not perturb the fold.
  Recalibrator batched;
  std::size_t fed = 0;
  for (const std::size_t batch : {7u, 13u, 1u, 40u, 59u}) {
    for (std::size_t i = 0; i < batch && fed < sequence.size(); ++i) {
      batched.observe(sequence[fed++], platform);
    }
    (void)batched.report(platform, 123.0);
    (void)batched.driftScore(platform);
  }
  while (fed < sequence.size()) batched.observe(sequence[fed++], platform);

  const auto builtOne = oneShot.build(platform);
  const auto builtBatched = batched.build(platform);
  ASSERT_TRUE(builtOne.has_value());
  ASSERT_TRUE(builtBatched.has_value());
  expectPlatformsIdentical(*builtOne, *builtBatched);
  EXPECT_EQ(oneShot.driftScore(platform), batched.driftScore(platform));
}

TEST(Recalibration, BuildReplacesOnlyEligibleCells) {
  const model::ParagonPlatformModel platform = testPlatform();
  Recalibrator recalibrator;
  // Cell (commFromComp, 2): past the floor, mean 2.0 (table holds 1.0).
  for (int i = 0; i < 8; ++i) {
    recalibrator.observe(delayObs(ObservationFamily::kCommFromComp, 2, 0, 2.0),
                         platform);
  }
  // Cell (commFromComm, 1): below the floor; must keep the table value.
  for (int i = 0; i < 3; ++i) {
    recalibrator.observe(delayObs(ObservationFamily::kCommFromComm, 1, 0, 9.0),
                         platform);
  }
  const auto built = recalibrator.build(platform);
  ASSERT_TRUE(built.has_value());
  EXPECT_DOUBLE_EQ(built->delays.commFromComp[1], 2.0);   // replaced
  EXPECT_DOUBLE_EQ(built->delays.commFromComp[0], 0.5);   // untouched
  EXPECT_DOUBLE_EQ(built->delays.commFromComm[0], 0.2);   // ineligible
  // Links were never observed: identical to the input.
  EXPECT_EQ(built->toBackend.small.alphaSec, platform.toBackend.small.alphaSec);
}

TEST(Recalibration, BuildReturnsNulloptWhenNothingEligible) {
  const model::ParagonPlatformModel platform = testPlatform();
  Recalibrator recalibrator;
  EXPECT_FALSE(recalibrator.build(platform).has_value());
  for (int i = 0; i < 3; ++i) {
    recalibrator.observe(delayObs(ObservationFamily::kCommFromComp, 1, 0, 2.0),
                         platform);
  }
  EXPECT_FALSE(recalibrator.build(platform).has_value());
}

TEST(Recalibration, LinkRefitRecoversTheObservedLine) {
  const model::ParagonPlatformModel platform = testPlatform();
  Recalibrator recalibrator;
  // Exact points on cost(x) = 0.004 + x / 250: the weighted least-squares
  // fit of noise-free collinear points recovers the line itself.
  for (int i = 1; i <= 10; ++i) {
    const Words words = 80 * i;  // all within the small segment (<= 1024)
    const double cost = 0.004 + static_cast<double>(words) / 250.0;
    recalibrator.observe(
        delayObs(ObservationFamily::kLinkFromBackend, 0, words, cost),
        platform);
  }
  const auto built = recalibrator.build(platform);
  ASSERT_TRUE(built.has_value());
  EXPECT_NEAR(built->fromBackend.small.alphaSec, 0.004, 1e-9);
  EXPECT_NEAR(built->fromBackend.small.betaWordsPerSec, 250.0, 1e-6);
  // The large segment saw nothing; it must keep the table parameters.
  EXPECT_EQ(built->fromBackend.large.alphaSec,
            platform.fromBackend.large.alphaSec);
  // The other direction was never observed at all.
  EXPECT_EQ(built->toBackend.small.alphaSec,
            platform.toBackend.small.alphaSec);
}

TEST(Recalibration, DriftFlipsAtThresholdAndResetsOnApply) {
  const model::ParagonPlatformModel platform = testPlatform();
  Recalibrator recalibrator;  // driftThreshold = 0.25
  // Mean 1.1 against a table value of 1.0: relative residual 0.1, calm.
  for (int i = 0; i < 8; ++i) {
    recalibrator.observe(delayObs(ObservationFamily::kCommFromComp, 2, 0, 1.1),
                         platform);
  }
  EXPECT_LT(recalibrator.driftScore(platform),
            recalibrator.config().driftThreshold);
  CalibrationReportData report = recalibrator.report(platform, 10.0);
  EXPECT_FALSE(report.drifting);
  EXPECT_EQ(report.eligibleCells, 1u);
  EXPECT_LT(report.sinceApplySec, 0.0);  // never applied

  // Pull the same cell's mean far from the table: past the threshold.
  for (int i = 0; i < 40; ++i) {
    recalibrator.observe(delayObs(ObservationFamily::kCommFromComp, 2, 0, 2.0),
                         platform);
  }
  EXPECT_GT(recalibrator.driftScore(platform),
            recalibrator.config().driftThreshold);
  EXPECT_TRUE(recalibrator.report(platform, 20.0).drifting);

  // An accepted swap clears the slate: no eligible cells, score 0.
  recalibrator.noteApplied(25.0);
  EXPECT_EQ(recalibrator.driftScore(platform), 0.0);
  report = recalibrator.report(platform, 30.0);
  EXPECT_FALSE(report.drifting);
  EXPECT_EQ(report.eligibleCells, 0u);
  EXPECT_DOUBLE_EQ(report.sinceApplySec, 5.0);
  EXPECT_EQ(report.applies, 1u);
}

TEST(Recalibration, RejectsUnindexableObservations) {
  const model::ParagonPlatformModel platform = testPlatform();
  Recalibrator recalibrator;
  // Contender counts the tables cannot index.
  EXPECT_THROW(recalibrator.observe(
                   delayObs(ObservationFamily::kCommFromComp, 0, 0, 1.0),
                   platform),
               std::invalid_argument);
  EXPECT_THROW(recalibrator.observe(
                   delayObs(ObservationFamily::kCommFromComp, 9, 0, 1.0),
                   platform),
               std::invalid_argument);
  // Negative, NaN, and infinite values.
  EXPECT_THROW(recalibrator.observe(
                   delayObs(ObservationFamily::kCommFromComm, 1, 0, -0.5),
                   platform),
               std::invalid_argument);
  EXPECT_THROW(
      recalibrator.observe(
          delayObs(ObservationFamily::kLinkToBackend, 0, 100,
                   std::numeric_limits<double>::quiet_NaN()),
          platform),
      std::invalid_argument);
  // Negative message size.
  EXPECT_THROW(recalibrator.observe(
                   delayObs(ObservationFamily::kLinkToBackend, 0, -1, 0.1),
                   platform),
               std::invalid_argument);
  // Nothing above may have perturbed the estimator.
  EXPECT_EQ(recalibrator.report(platform, 0.0).observations, 0u);
}

// --- Tracker: atomic swap under concurrent reads --------------------------

TEST(RecalibrationConcurrency, ApplyIsAtomicAgainstConcurrentPredicts) {
  // Readers hammer PREDICT while the writer repeatedly recalibrates. Each
  // accepted swap changes both the snapshot slowdowns (a delay cell) and
  // the link parameters, so any torn (snapshot, tables) pairing would
  // price with a cross-generation combination whose value appears in no
  // oracle generation. ThreadSanitizer covers the memory-ordering side.
  constexpr int kSwaps = 4;
  constexpr int kReaders = 4;
  constexpr int kPredictsPerReader = 3000;

  tools::TaskSpec task;
  task.name = "probe";
  task.frontEndSec = 8.0;
  task.backEndSec = 1.5;
  task.toBackend.push_back({16, 512});

  const auto observeGeneration = [](auto&& observe, int swap) {
    // Move the comm delay for one computing contender and the to-backend
    // small segment; values differ per generation.
    for (int i = 0; i < 8; ++i) {
      observe(delayObs(ObservationFamily::kCommFromComp, 1, 0,
                       1.0 + 0.5 * swap));
    }
    for (int i = 1; i <= 8; ++i) {
      const Words words = 100 * i;
      observe(delayObs(ObservationFamily::kLinkToBackend, 0, words,
                       0.002 * (swap + 1) +
                           static_cast<double>(words) / (900.0 - 100 * swap)));
    }
  };

  // Oracle: replay the same swaps serially and record each generation's
  // exact (front, remote) price for the probe task.
  std::vector<std::pair<double, double>> oracle;
  {
    ConcurrentTracker serial(testPlatform());
    (void)serial.arrive({0.3, 800});
    const TaskPrediction base = serial.predict(task);
    oracle.emplace_back(base.frontSec, base.remoteSec);
    for (int swap = 0; swap < kSwaps; ++swap) {
      observeGeneration(
          [&](const CalibrationObservation& observation) {
            serial.observeCalibration(observation);
          },
          swap);
      (void)serial.applyCalibration();
      const TaskPrediction prediction = serial.predict(task);
      oracle.emplace_back(prediction.frontSec, prediction.remoteSec);
    }
  }

  ConcurrentTracker tracker(testPlatform());
  (void)tracker.arrive({0.3, 800});
  std::vector<std::vector<std::pair<double, double>>> seen(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&tracker, &task, &seen, r] {
      auto& prices = seen[static_cast<std::size_t>(r)];
      for (int i = 0; i < kPredictsPerReader; ++i) {
        const TaskPrediction prediction = tracker.predict(task);
        if (prices.empty() || prices.back().first != prediction.frontSec ||
            prices.back().second != prediction.remoteSec) {
          prices.emplace_back(prediction.frontSec, prediction.remoteSec);
        }
      }
    });
  }
  for (int swap = 0; swap < kSwaps; ++swap) {
    observeGeneration(
        [&](const CalibrationObservation& observation) {
          tracker.observeCalibration(observation);
        },
        swap);
    const auto applied = tracker.applyCalibration();
    EXPECT_EQ(applied.generation, static_cast<std::uint64_t>(swap + 1));
    std::this_thread::yield();
  }
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(tracker.tableGeneration(), static_cast<std::uint64_t>(kSwaps));
  for (const auto& prices : seen) {
    for (const auto& price : prices) {
      bool matched = false;
      for (const auto& expected : oracle) {
        if (price.first == expected.first &&
            price.second == expected.second) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched)
          << "torn prediction front=" << price.first
          << " remote=" << price.second
          << " matches no serially-recalibrated generation";
    }
  }
}

// --- CALIBRATE / DRIFT over the wire ----------------------------------------

class RecalibrationServerFixture
    : public ::testing::TestWithParam<LoopLayout> {
 protected:
  void start() {
    config_.endpoint = parseEndpoint("unix:" + uniqueSocketPath("fixture"));
    config_.workers = 4;
    config_.requestTimeoutMs = 2000;
    config_.loopThreads = loopThreadsFor(GetParam());
    server_ = std::make_unique<Server>(config_, tracker_, metrics_);
    server_->start();
  }

  ServerConfig config_;
  ConcurrentTracker tracker_{testPlatform()};
  Metrics metrics_;
  std::unique_ptr<Server> server_;
};

TEST_P(RecalibrationServerFixture, CalibrateAndDriftVerbsEndToEnd) {
  start();
  Client client(config_.endpoint);
  ASSERT_TRUE(client.arrive(0.3, 800).ok);

  // Fresh daemon: nothing observed, nothing drifting.
  const Response initial = client.calibrateReport();
  ASSERT_TRUE(initial.ok) << initial.error;
  EXPECT_EQ(*initial.find("verb"), "CALIBRATE");
  EXPECT_EQ(initial.number("generation"), 0.0);
  EXPECT_EQ(initial.number("observations"), 0.0);
  EXPECT_EQ(initial.number("eligible"), 0.0);
  EXPECT_EQ(*initial.find("status"), "ok");
  EXPECT_EQ(initial.find("since_apply_s"), nullptr);

  const Response calm = client.drift();
  ASSERT_TRUE(calm.ok);
  EXPECT_EQ(*calm.find("verb"), "DRIFT");
  EXPECT_EQ(*calm.find("status"), "ok");
  EXPECT_EQ(calm.number("score"), 0.0);

  // APPLY with nothing eligible is an invalid_argument, not a crash.
  const Response premature = client.calibrateApply();
  EXPECT_FALSE(premature.ok);
  EXPECT_EQ(premature.code, kErrInvalidArgument);

  // Price a task and warm its cache entry under generation 0.
  tools::TaskSpec task;
  task.name = "solver";
  task.frontEndSec = 8.0;
  task.backEndSec = 1.5;
  task.toBackend.push_back({16, 512});
  const Response before = client.predict(task);
  ASSERT_TRUE(before.ok);
  EXPECT_EQ(*before.find("cache"), "miss");
  ASSERT_TRUE(client.predict(task).ok);
  EXPECT_EQ(*client.predict(task).find("cache"), "hit");

  // Stream observations that contradict the tables: the comm-from-comp
  // delay doubled and the to-backend link slowed.
  for (int i = 0; i < 10; ++i) {
    CalibrationObservation observation;
    observation.family = ObservationFamily::kCommFromComp;
    observation.contenders = 1;
    observation.value = 2.0;  // table holds 0.5
    ASSERT_TRUE(client.calibrateObserve(observation).ok);
  }
  for (int i = 1; i <= 8; ++i) {
    CalibrationObservation observation;
    observation.family = ObservationFamily::kLinkToBackend;
    observation.words = 100 * i;
    observation.value = 0.01 + static_cast<double>(100 * i) / 400.0;
    ASSERT_TRUE(client.calibrateObserve(observation).ok);
  }

  const Response drifting = client.drift();
  ASSERT_TRUE(drifting.ok);
  EXPECT_EQ(*drifting.find("status"), "drifting");
  EXPECT_GT(drifting.number("score"), drifting.number("threshold"));

  const Response report = client.calibrateReport();
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(*report.find("status"), "drifting");
  EXPECT_GT(report.number("eligible"), 0.0);
  EXPECT_GT(report.number("top"), 0.0);
  // The worst cell leads the indexed list.
  ASSERT_NE(report.find("family.0"), nullptr);
  EXPECT_GT(report.number("residual.0"), 0.0);

  const Response applied = client.calibrateApply();
  ASSERT_TRUE(applied.ok) << applied.error;
  EXPECT_EQ(*applied.find("action"), "apply");
  EXPECT_EQ(applied.number("generation"), 1.0);

  // The stale-cache regression: the same task under the same mix must miss
  // (the old entry is keyed to generation 0) and reprice from the new
  // tables.
  const Response after = client.predict(task);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(*after.find("cache"), "miss");
  EXPECT_NE(after.number("remote"), before.number("remote"));
  EXPECT_EQ(*client.predict(task).find("cache"), "hit");

  // Post-swap: the estimator is reset and DRIFT is calm again.
  const Response settled = client.drift();
  ASSERT_TRUE(settled.ok);
  EXPECT_EQ(*settled.find("status"), "ok");
  EXPECT_EQ(settled.number("generation"), 1.0);
  const Response postReport = client.calibrateReport();
  ASSERT_TRUE(postReport.ok);
  EXPECT_EQ(postReport.number("applies"), 1.0);
  EXPECT_GE(postReport.number("since_apply_s"), 0.0);

  // STATS surfaces the generation.
  const Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.number("table_generation"), 1.0);

  // Malformed calibration requests answer ERR without dropping the
  // connection.
  const Response badFamily = client.raw("CALIBRATE OBSERVE bogus 1 0 1.0\n");
  EXPECT_FALSE(badFamily.ok);
  EXPECT_EQ(badFamily.code, kErrParse);
  const Response badValue =
      client.raw("CALIBRATE OBSERVE comm_from_comp 1 0 -3.0\n");
  EXPECT_FALSE(badValue.ok);
  EXPECT_EQ(badValue.code, kErrParse);
  const Response badContenders =
      client.raw("CALIBRATE OBSERVE comm_from_comp 99 0 1.0\n");
  EXPECT_FALSE(badContenders.ok);
  EXPECT_EQ(badContenders.code, kErrInvalidArgument);
  EXPECT_TRUE(client.drift().ok);  // connection survived

  server_->stop();
}

CONTEND_INSTANTIATE_LOOP_LAYOUTS(RecalibrationServerFixture);

// --- HEALTH degradation on journal append failures ------------------------

class HookGuard {
 public:
  explicit HookGuard(const SyscallHooks* hooks) { installSyscallHooks(hooks); }
  ~HookGuard() { installSyscallHooks(nullptr); }
};

TEST(RecalibrationHealth, JournalDegradedAfterAppendFailure) {
  const std::string journalPath = uniquePath("health", ".journal");
  JournalConfig journalConfig;
  journalConfig.path = journalPath;
  journalConfig.fsync = FsyncPolicy::kOff;
  Journal journal(journalConfig);
  ConcurrentTracker tracker(testPlatform());
  (void)tracker.recoverFromJournal(journal);

  ServerConfig config;
  config.endpoint = parseEndpoint("unix:" + uniqueSocketPath("health"));
  config.workers = 2;
  config.journal = &journal;
  Metrics metrics;
  Server server(config, tracker, metrics);
  server.start();
  Client client(config.endpoint);

  // Healthy journal: HEALTH says "on", the exposition gauges 1.
  ASSERT_TRUE(client.arrive(0.3, 800).ok);
  const Response healthy = client.health();
  ASSERT_TRUE(healthy.ok);
  EXPECT_EQ(*healthy.find("journal"), "on");
  EXPECT_EQ(healthy.number("journal_append_errors"), 0.0);
  EXPECT_NE(client.metricsText().find("contend_journal_healthy 1"),
            std::string::npos);

  // Fail the next journal append: write(2) is only used by the journal
  // (socket traffic goes through send/recv), so the hook is precise.
  SyscallHooks hooks;
  hooks.write = [](int, const void*, std::size_t) -> ssize_t {
    errno = EIO;
    return -1;
  };
  {
    HookGuard guard(&hooks);
    ASSERT_TRUE(client.arrive(0.5, 100).ok);  // mutation applies, append fails
  }

  const Response degraded = client.health();
  ASSERT_TRUE(degraded.ok);
  EXPECT_EQ(*degraded.find("journal"), "degraded");
  EXPECT_GE(degraded.number("journal_append_errors"), 1.0);
  EXPECT_NE(client.metricsText().find("contend_journal_healthy 0"),
            std::string::npos);

  server.stop();
  ::unlink(journalPath.c_str());
  ::unlink((journalPath + ".snapshot").c_str());
}

}  // namespace
}  // namespace contend::serve
