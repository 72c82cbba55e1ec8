// Tests for the client's reconnect-backoff jitter: copies must diverge
// (the copy constructor perturbs the jitter state instead of duplicating
// the parent's stream), and every drawn delay must stay inside the
// documented [base, base + base/2] envelope — the multiply-high mapping
// replaced a biased modulo, and this pins its range.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/concurrent_tracker.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"

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
  return "/tmp/contend_jitter_test_" + std::to_string(::getpid()) + "_" +
         tag + "_" + std::to_string(counter++) + ".sock";
}

/// A live server so clients (and their copies) can actually connect.
class JitterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.endpoint = parseEndpoint("unix:" + uniqueSocketPath("jitter"));
    // Every copy opens its own connection; the admission cap (workers +
    // queue) leaves room for all of them.
    config_.workers = 8;
    config_.requestTimeoutMs = 2000;
    server_ = std::make_unique<Server>(config_, tracker_, metrics_);
    server_->start();
  }
  void TearDown() override { server_->stop(); }

  ServerConfig config_;
  ConcurrentTracker tracker_{testPlatform()};
  Metrics metrics_;
  std::unique_ptr<Server> server_;
};

std::vector<int> drawDelays(Client& client, int count, int attempt) {
  std::vector<int> delays;
  delays.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    delays.push_back(client.backoffDelayMs(attempt));
  }
  return delays;
}

TEST_F(JitterFixture, CopiedClientsDrawDivergentBackoffStreams) {
  ReconnectPolicy policy;
  policy.maxAttempts = 3;
  Client original(config_.endpoint, 2000, policy);
  Client copyA(original);
  Client copyB(original);

  // The perturbation lands immediately: the copies' states differ from the
  // parent's and from each other before any draw.
  EXPECT_NE(copyA.jitterState(), original.jitterState());
  EXPECT_NE(copyB.jitterState(), original.jitterState());
  EXPECT_NE(copyA.jitterState(), copyB.jitterState());

  // And the resulting delay streams decorrelate. Identical streams would
  // reconnect a copied fleet in lockstep — the regression this guards: the
  // old deleted-copy design never exercised this path, and a naive copy
  // constructor would have duplicated jitterState_ verbatim.
  const std::vector<int> fromOriginal = drawDelays(original, 32, 5);
  const std::vector<int> fromA = drawDelays(copyA, 32, 5);
  const std::vector<int> fromB = drawDelays(copyB, 32, 5);
  EXPECT_NE(fromOriginal, fromA);
  EXPECT_NE(fromOriginal, fromB);
  EXPECT_NE(fromA, fromB);

  // Copies are fully functional clients on their own connections.
  EXPECT_TRUE(copyA.slowdown().ok);
  EXPECT_TRUE(copyB.health().ok);
  EXPECT_TRUE(original.stats().ok);
}

TEST_F(JitterFixture, CopiesOfCopiesKeepDiverging) {
  Client original(config_.endpoint, 2000);
  Client first(original);
  Client second(first);
  EXPECT_NE(first.jitterState(), second.jitterState());
  EXPECT_NE(original.jitterState(), second.jitterState());
  EXPECT_TRUE(second.slowdown().ok);
}

TEST_F(JitterFixture, BackoffDelayStaysInsideTheJitterEnvelope) {
  ReconnectPolicy policy;
  policy.baseDelayMs = 10;
  policy.maxDelayMs = 1000;
  Client client(config_.endpoint, 2000, policy);

  for (int attempt = 0; attempt < 12; ++attempt) {
    const std::int64_t base =
        std::min<std::int64_t>(policy.maxDelayMs,
                               std::int64_t{policy.baseDelayMs} << attempt);
    for (int draw = 0; draw < 200; ++draw) {
      const int delay = client.backoffDelayMs(attempt);
      EXPECT_GE(delay, base) << "attempt " << attempt;
      EXPECT_LE(delay, base + base / 2) << "attempt " << attempt;
    }
  }
}

TEST_F(JitterFixture, JitterActuallyVaries) {
  // A constant stream (e.g. a zeroed state stuck at the xorshift fixpoint)
  // would defeat the desynchronization entirely.
  Client client(config_.endpoint, 2000);
  const std::vector<int> delays = drawDelays(client, 64, 8);
  bool varied = false;
  for (std::size_t i = 1; i < delays.size(); ++i) {
    if (delays[i] != delays[0]) {
      varied = true;
      break;
    }
  }
  EXPECT_TRUE(varied);
}

}  // namespace
}  // namespace contend::serve
