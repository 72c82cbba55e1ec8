// Tests for the run-time contention tracker.
#include <gtest/gtest.h>

#include "sched/online.hpp"

namespace contend::sched {
namespace {

model::ParagonPlatformModel testPlatform(int maxContenders = 4) {
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

TEST(Online, StartsDedicated) {
  OnlineContentionTracker tracker(testPlatform());
  EXPECT_EQ(tracker.activeApplications(), 0);
  EXPECT_DOUBLE_EQ(tracker.compSlowdown(), 1.0);
  EXPECT_DOUBLE_EQ(tracker.commSlowdown(), 1.0);
}

TEST(Online, ArrivalRaisesSlowdowns) {
  OnlineContentionTracker tracker(testPlatform());
  tracker.applicationArrived(1.0, model::CompetingApp{0.0, 0});
  EXPECT_EQ(tracker.activeApplications(), 1);
  EXPECT_DOUBLE_EQ(tracker.compSlowdown(), 2.0);  // pcomp_1 = 1 -> 1 + 1
  EXPECT_DOUBLE_EQ(tracker.commSlowdown(), 1.5);  // 1 + delay_comp^1
}

TEST(Online, DepartureRestoresDedicated) {
  OnlineContentionTracker tracker(testPlatform());
  const auto a = tracker.applicationArrived(1.0, model::CompetingApp{0.5, 500});
  const auto b = tracker.applicationArrived(2.0, model::CompetingApp{0.9, 100});
  // Departing hands back the app that left, so callers keeping content
  // hashes of the mix can subtract it.
  const model::CompetingApp gone = tracker.applicationDeparted(3.0, a);
  EXPECT_DOUBLE_EQ(gone.commFraction, 0.5);
  EXPECT_EQ(gone.messageWords, 500);
  EXPECT_EQ(tracker.applicationDeparted(4.0, b).messageWords, 100);
  EXPECT_EQ(tracker.activeApplications(), 0);
  EXPECT_NEAR(tracker.compSlowdown(), 1.0, 1e-9);
  EXPECT_NEAR(tracker.commSlowdown(), 1.0, 1e-9);
}

TEST(Online, TrackerMatchesBatchPredictor) {
  const auto platform = testPlatform();
  OnlineContentionTracker tracker(platform);
  tracker.applicationArrived(1.0, model::CompetingApp{0.2, 100});
  const auto mid =
      tracker.applicationArrived(2.0, model::CompetingApp{0.9, 1200});
  tracker.applicationArrived(3.0, model::CompetingApp{0.5, 500});
  tracker.applicationDeparted(4.0, mid);

  model::WorkloadMix batch;
  batch.add(model::CompetingApp{0.2, 100});
  batch.add(model::CompetingApp{0.5, 500});
  model::ParagonPredictor predictor(platform, batch);

  EXPECT_NEAR(tracker.compSlowdown(), predictor.compSlowdown(), 1e-9);
  EXPECT_NEAR(tracker.commSlowdown(), predictor.commSlowdown(), 1e-9);

  const std::vector<model::DataSet> sets = {{100, 700}};
  EXPECT_NEAR(tracker.predictCommToBackend(sets),
              predictor.predictCommToBackend(sets), 1e-9);
  EXPECT_NEAR(tracker.predictFrontEndComp(10.0),
              predictor.predictFrontEndComp(10.0), 1e-9);
}

TEST(Online, RejectsBadUsage) {
  OnlineContentionTracker tracker(testPlatform(2));
  tracker.applicationArrived(1.0, model::CompetingApp{0.0, 0});
  // Out-of-order time.
  EXPECT_THROW((void)tracker.applicationArrived(0.5, model::CompetingApp{0.0, 0}),
               std::invalid_argument);
  // Unknown id.
  EXPECT_THROW(tracker.applicationDeparted(2.0, 999), std::invalid_argument);
  // Exceeding calibrated coverage.
  tracker.applicationArrived(2.0, model::CompetingApp{0.0, 0});
  EXPECT_THROW((void)tracker.applicationArrived(3.0, model::CompetingApp{0.0, 0}),
               std::runtime_error);
}

TEST(Online, ManyChurnsStayConsistent) {
  const auto platform = testPlatform(4);
  OnlineContentionTracker tracker(platform);
  std::vector<std::uint64_t> ids;
  double t = 0.0;
  for (int round = 0; round < 50; ++round) {
    if (ids.size() < 3) {
      const double f = 0.1 + 0.2 * (round % 5);
      ids.push_back(tracker.applicationArrived(
          t += 1.0, model::CompetingApp{f, 100 + 100 * (round % 7)}));
    } else {
      tracker.applicationDeparted(t += 1.0, ids.front());
      ids.erase(ids.begin());
    }
    // Slowdowns must always be >= 1 and mix distributions normalized.
    EXPECT_GE(tracker.compSlowdown(), 1.0 - 1e-9);
    EXPECT_GE(tracker.commSlowdown(), 1.0 - 1e-9);
    double sum = 0.0;
    for (int i = 0; i <= tracker.mix().p(); ++i) sum += tracker.mix().pcomm(i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace contend::sched
