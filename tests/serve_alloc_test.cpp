// Allocation budget per request on the serving path. A counting global
// operator new wraps Server::answer, the parse-dispatch-encode step both
// engines run for every framed request, and each case asserts how many heap
// allocations one steady-state request costs once the per-connection
// Request and reply buffer are warm.
#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>

#include "serve/concurrent_tracker.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"

namespace {

std::atomic<std::uint64_t> gAllocations{0};

}  // namespace

// All out of line: GCC otherwise sees malloc() or free() through the
// inlined replacements and warns -Wmismatched-new-delete at their callers.
[[gnu::noinline]] void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

namespace contend::serve {
namespace {

constexpr int kWarmup = 16;
constexpr int kMeasured = 256;

model::ParagonPlatformModel testPlatform() {
  model::ParagonPlatformModel platform;
  platform.toBackend.small = {0.001, 1000.0};
  platform.toBackend.large = {0.002, 800.0};
  platform.toBackend.thresholdWords = 1024;
  platform.fromBackend = platform.toBackend;
  platform.delays.jBins = {1, 500, 1000};
  platform.delays.compFromComm.assign(3, {});
  for (int i = 1; i <= 16; ++i) {
    platform.delays.commFromComp.push_back(0.5 * i);
    platform.delays.commFromComm.push_back(0.2 * i);
    platform.delays.compFromComm[0].push_back(0.1 * i);
    platform.delays.compFromComm[1].push_back(0.3 * i);
    platform.delays.compFromComm[2].push_back(0.4 * i);
  }
  return platform;
}

std::string predictText(int index) {
  return "task t" + std::to_string(index) + "\nfront " +
         std::to_string(1 + index) + ".5\nback 0.25\nio 0.125 40\n" +
         "to_backend " + std::to_string(10 + index) + " x 512\n" +
         "from_backend 3 x 4096\nend\n";
}

/// An in-process server that is never started: answer() needs only the
/// tracker, the metrics and the config.
class AllocationBudget : public ::testing::Test {
 protected:
  AllocationBudget() {
    config_.endpoint = parseEndpoint("unix:/tmp/contend_alloc_unused.sock");
    server_ = std::make_unique<Server>(config_, tracker_, metrics_);
    for (int i = 0; i < 4; ++i) ask("ARRIVE 0.25 640\n");
  }

  /// Answers `text` on the shared connection state; the reply is in out_.
  void ask(std::string_view text) {
    out_.clear();
    server_->answer(text, request_, out_, 0);
  }

  /// Mean heap allocations of one answer(text) after a warm-up.
  double allocationsPer(std::string_view text) {
    for (int i = 0; i < kWarmup; ++i) ask(text);
    const std::uint64_t before = gAllocations.load();
    for (int i = 0; i < kMeasured; ++i) ask(text);
    return static_cast<double>(gAllocations.load() - before) / kMeasured;
  }

  ServerConfig config_;
  ConcurrentTracker tracker_{testPlatform()};
  Metrics metrics_;
  std::unique_ptr<Server> server_;
  Request request_;
  std::string out_;
};

TEST_F(AllocationBudget, SlowdownAllocatesNothing) {
  EXPECT_EQ(allocationsPer("SLOWDOWN\n"), 0.0);
  EXPECT_EQ(out_.rfind("OK verb=SLOWDOWN ", 0), 0U) << out_;
}

TEST_F(AllocationBudget, PredictCacheHitAllocatesNothing) {
  const std::string text = "PREDICT " + predictText(0).substr(5);
  EXPECT_EQ(allocationsPer(text), 0.0);
  EXPECT_NE(out_.find(" cache=hit\n"), std::string::npos) << out_;
}

TEST_F(AllocationBudget, BatchOfSixteenHitsAllocatesAtMostTwice) {
  std::string text = "PREDICT_BATCH\n";
  for (int i = 0; i < 16; ++i) text += predictText(i);
  text += "end_batch\n";
  EXPECT_LE(allocationsPer(text), 2.0);
  EXPECT_NE(out_.find(" cache.15=hit\n"), std::string::npos) << out_;
}

// A mutation publishes a fresh snapshot, so it cannot be free; the budget is
// the count the pair reaches today (9: the tracker's and the mix's own
// bookkeeping, none of it in parsing or encoding), pinned so a regression
// shows.
TEST_F(AllocationBudget, ArriveDepartPairStaysWithinItsCount) {
  constexpr double kPairBudget = 9.0;
  const auto pair = [this] {
    ask("ARRIVE 0.3 800 io 0.1 20\n");
    const std::size_t at = out_.find(" id=") + 4;
    std::uint64_t id = 0;
    (void)std::from_chars(out_.data() + at, out_.data() + out_.size(), id);
    char depart[40] = "DEPART ";
    char* end = std::to_chars(depart + 7, depart + sizeof(depart) - 1, id).ptr;
    *end++ = '\n';
    ask(std::string_view(depart, static_cast<std::size_t>(end - depart)));
    ASSERT_EQ(out_.rfind("OK verb=DEPART ", 0), 0U) << out_;
  };
  for (int i = 0; i < kWarmup; ++i) pair();
  const std::uint64_t before = gAllocations.load();
  for (int i = 0; i < kMeasured; ++i) pair();
  const double perPair =
      static_cast<double>(gAllocations.load() - before) / kMeasured;
  EXPECT_LE(perPair, kPairBudget);
}

}  // namespace
}  // namespace contend::serve
