// serve_event_engine_test.cpp — the serving core's socket-level paths that
// a friendly localhost client never hits.
//
// The TCP round-trip test pins TCP_NODELAY: with Nagle left on, a one-line
// request from a freshly connected client can stall against delayed ACKs
// for ~40 ms per direction, which a tight client deadline turns into a
// visible failure. The EAGAIN, backpressure and drain tests shrink the
// accepted socket's SO_SNDBUF so a pipelined burst of responses is
// guaranteed to overrun the kernel buffer, forcing the partial-write /
// EPOLLOUT resumption, the read pause at the write high-water mark, and the
// forced close at the drain deadline. The fd-exhaustion test lowers this
// process's RLIMIT_NOFILE so accept(2) fails with EMFILE, and the two-loop
// test makes loop 0 hand accepted fds to a second loop.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/concurrent_tracker.hpp"
#include "serve/metrics.hpp"
#include "serve/net_util.hpp"
#include "serve/server.hpp"
#include "serve_loop_layout.hpp"

namespace contend::serve {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

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
  return "/tmp/contend_event_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter++) + ".sock";
}

class EventEngineTest : public ::testing::TestWithParam<LoopLayout> {
 protected:
  void startTcp() {
    config_.endpoint = parseEndpoint("tcp:127.0.0.1:0");  // ephemeral port
    config_.workers = 2;
    config_.requestTimeoutMs = 2000;
    config_.loopThreads = loopThreadsFor(GetParam());
    server_ = std::make_unique<Server>(config_, tracker_, metrics_);
    server_->start();
    ASSERT_GT(server_->boundPort(), 0);
  }

  ServerConfig config_;
  ConcurrentTracker tracker_{testPlatform()};
  Metrics metrics_;
  std::unique_ptr<Server> server_;
};

TEST_P(EventEngineTest, SingleTcpRequestRoundTripsUnderATightDeadline) {
  startTcp();
  // A 250 ms client receive deadline: generous for loopback, but far below
  // the ~40 ms-per-direction stalls Nagle-vs-delayed-ACK introduces when
  // TCP_NODELAY is missing on either side, amplified across retries.
  const auto begin = Clock::now();
  Client client(server_->endpoint(), /*timeoutMs=*/250);
  const Response response = client.slowdown();
  const auto elapsed = Clock::now() - begin;
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_DOUBLE_EQ(response.number("comp"), 1.0);
  EXPECT_LE(elapsed, 250ms) << "one-request TCP round-trip stalled";
  server_->stop();
}

CONTEND_INSTANTIATE_LOOP_LAYOUTS(EventEngineTest);

TEST(EventEngineEagain, PartialWriteResumesViaEpollout) {
  ServerConfig config;
  config.endpoint = parseEndpoint("unix:" + uniqueSocketPath("eagain"));
  config.requestTimeoutMs = 5000;
  // Shrink the kernel send buffer on accepted sockets so the coalesced
  // response burst below cannot fit: the engine must take the EAGAIN path
  // and finish the delivery from an EPOLLOUT wakeup.
  config.sendBufBytes = 4096;
  ConcurrentTracker tracker(testPlatform());
  Metrics metrics;
  Server server(config, tracker, metrics);
  server.start();

  // ~600 pipelined requests -> tens of KiB of responses while the client
  // deliberately reads nothing.
  constexpr int kRequests = 600;
  Client client(config.endpoint);
  std::string burst;
  for (int i = 0; i < kRequests; ++i) burst += "SLOWDOWN\n";
  const Response first = client.raw(burst);
  ASSERT_TRUE(first.ok) << first.error;
  // Let the server run into the full socket buffer before we start
  // draining; everything past this point only succeeds if the engine
  // resumes the interrupted write.
  std::this_thread::sleep_for(100ms);
  for (int i = 1; i < kRequests; ++i) {
    const Response response = client.readResponse();
    ASSERT_TRUE(response.ok) << "response " << i << ": " << response.error;
    ASSERT_NE(response.find("verb"), nullptr) << "response " << i;
    EXPECT_EQ(*response.find("verb"), "SLOWDOWN") << "response " << i;
  }

  const Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_GE(stats.number("loop_eagain_writes"), 1.0)
      << "the burst never hit EAGAIN; the resumption path went untested";
  server.stop();
}

/// Polls `done` every 5 ms for up to 2 s; true once it holds.
template <typename Predicate>
bool waitFor(Predicate done) {
  const auto deadline = Clock::now() + 2000ms;
  while (!done()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(5ms);
  }
  return true;
}

std::uint64_t requestsServed(const Metrics& metrics) {
  return metrics.snapshot().requestsTotal;
}

TEST(EventEngineLoops, SecondLoopServesTheConnectionsHandedToIt) {
  ServerConfig config;
  config.endpoint = parseEndpoint("unix:" + uniqueSocketPath("loops"));
  config.loopThreads = 2;
  ConcurrentTracker tracker(testPlatform());
  Metrics metrics;
  Server server(config, tracker, metrics);
  server.start();

  // Loop 0 accepts every connection and keeps every other one; the rest
  // reach loop 1 through its inbox and wake pipe. Each client stays
  // connected, so all four are live on both loops at once.
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(config.endpoint));
    const Response arrived = clients.back()->arrive(0.25, 64);
    ASSERT_TRUE(arrived.ok) << "client " << c << ": " << arrived.error;
    EXPECT_EQ(arrived.number("p"), static_cast<double>(c + 1));
  }
  for (int round = 0; round < 3; ++round) {
    for (const std::unique_ptr<Client>& client : clients) {
      // Pipelined pairs answer in order on either loop.
      const Response first = client->raw("SLOWDOWN\nSTATS\n");
      ASSERT_TRUE(first.ok) << first.error;
      EXPECT_EQ(*first.find("verb"), "SLOWDOWN");
      EXPECT_EQ(first.number("p"), static_cast<double>(kClients));
      const Response second = client->readResponse();
      ASSERT_TRUE(second.ok) << second.error;
      EXPECT_EQ(*second.find("verb"), "STATS");
      EXPECT_EQ(second.number("accepted"), static_cast<double>(kClients));
    }
  }
  // Graceful stop with connections open on both loops: each loop drains
  // its own and joins.
  server.stop();
  EXPECT_EQ(metrics.snapshot().connectionsAccepted,
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(metrics.snapshot().droppedBytes, 0u);
}

TEST(EventEngineDrain, UnflushedConnectionIsForceClosedAtTheDrainDeadline) {
  ServerConfig config;
  config.endpoint = parseEndpoint("unix:" + uniqueSocketPath("drain"));
  config.requestTimeoutMs = 10000;  // the idle timer must not end it first
  config.sendBufBytes = 4096;
  ConcurrentTracker tracker(testPlatform());
  Metrics metrics;
  Server server(config, tracker, metrics);
  server.start();

  // A pipelined burst the client never reads: its replies overrun the
  // shrunken send buffer and stay queued in the connection.
  Client client(config.endpoint);
  std::string burst;
  for (int i = 0; i < 600; ++i) burst += "SLOWDOWN\n";
  ASSERT_TRUE(client.raw(burst).ok);
  // Counted as each request is answered; the send that overruns the buffer
  // comes after the whole batch.
  ASSERT_TRUE(waitFor([&] { return requestsServed(metrics) == 600; }));
  ASSERT_TRUE(
      waitFor([&] { return metrics.snapshot().loopEagainWrites >= 1; }));

  // The drain serves what was received, but this reply backlog can never
  // be delivered: the loop must give up at its deadline (500 ms), count the
  // bytes as dropped, and join — not wait for the 10 s idle timeout.
  const auto begin = Clock::now();
  server.stop();
  const auto elapsed = Clock::now() - begin;
  EXPECT_GE(elapsed, 400ms);
  EXPECT_LE(elapsed, 3000ms) << "drain waited past its deadline";
  EXPECT_GT(metrics.snapshot().droppedBytes, 0u);
}

/// Restores the soft RLIMIT_NOFILE it found, whatever the test does.
class FdLimitGuard {
 public:
  FdLimitGuard() { ::getrlimit(RLIMIT_NOFILE, &saved_); }
  ~FdLimitGuard() { restore(); }
  FdLimitGuard(const FdLimitGuard&) = delete;
  FdLimitGuard& operator=(const FdLimitGuard&) = delete;

  /// Lets this process open no fd numbered `limit` or above.
  bool lowerTo(rlim_t limit) {
    rlimit lowered = saved_;
    lowered.rlim_cur = limit;
    return ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  void restore() { (void)::setrlimit(RLIMIT_NOFILE, &saved_); }

 private:
  rlimit saved_{};
};

TEST(EventEngineAccept, FdExhaustionBacksOffAndResumesAccepting) {
  ServerConfig config;
  config.endpoint = parseEndpoint("unix:" + uniqueSocketPath("emfile"));
  ConcurrentTracker tracker(testPlatform());
  Metrics metrics;
  Server server(config, tracker, metrics);
  server.start();

  // The client's socket exists before the limit drops; connect(2) needs no
  // new fd, but the server's accept(2) does.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config.endpoint.path.c_str(),
               sizeof(addr.sun_path) - 1);
  {
    FdLimitGuard guard;
    // open(2) returns the lowest free fd, so every fd below it is in use:
    // a limit equal to it leaves no fd to accept into.
    const int lowestFree = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    ASSERT_GE(lowestFree, 0);
    ::close(lowestFree);
    ASSERT_TRUE(guard.lowerTo(static_cast<rlim_t>(lowestFree)));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    // The first accept fails, the listen socket is parked, and the backoff
    // retries (10 ms, then 20 ms) fail again instead of spinning.
    EXPECT_TRUE(waitFor([&] { return metrics.snapshot().acceptErrors >= 2; }))
        << "accept errors: " << metrics.snapshot().acceptErrors;
    EXPECT_EQ(metrics.snapshot().connectionsAccepted, 0u);
  }
  const std::uint64_t errorsWhileExhausted = metrics.snapshot().acceptErrors;
  EXPECT_LE(errorsWhileExhausted, 50u) << "accept retried without backing off";

  // With fds available again the next retry accepts the waiting peer.
  ASSERT_TRUE(sendAll(fd, "SLOWDOWN\n"));
  timeval tv{};
  tv.tv_sec = 5;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  FdLineReader reader(fd, kMaxResponseLineBytes);
  std::string line;
  ASSERT_EQ(reader.readLine(line), LineRead::kLine);
  EXPECT_EQ(line.rfind("OK verb=SLOWDOWN", 0), 0u) << line;
  EXPECT_EQ(metrics.snapshot().connectionsAccepted, 1u);
  ::close(fd);

  // Accepting stays healthy afterwards.
  Client next(config.endpoint);
  EXPECT_TRUE(next.slowdown().ok);
  server.stop();
}

TEST(EventEngineBackpressure, ReadsPauseAtTheHighWaterMarkAndResume) {
  ServerConfig config;
  config.endpoint = parseEndpoint("unix:" + uniqueSocketPath("pause"));
  config.requestTimeoutMs = 10000;
  config.sendBufBytes = 4096;
  ConcurrentTracker tracker(testPlatform());
  Metrics metrics;
  Server server(config, tracker, metrics);
  server.start();

  // 8000 replies of ~48 bytes are ~380 KiB, past the 256 KiB write
  // high-water mark, while the client reads nothing.
  constexpr int kFirstWave = 8000;
  constexpr int kSecondWave = 100;
  std::string wave;
  for (int i = 0; i < kFirstWave; ++i) wave += "SLOWDOWN\n";
  Client client(config.endpoint);
  ASSERT_TRUE(client.raw(wave).ok);
  // Wait until the count settles: the server has stopped reading.
  std::uint64_t served = 0;
  ASSERT_TRUE(waitFor([&] {
    const std::uint64_t now = requestsServed(metrics);
    const bool settled = now > 0 && now == served;
    served = now;
    if (!settled) std::this_thread::sleep_for(50ms);
    return settled;
  }));
  // The high-water mark bounds the backlog, so the burst is only partly
  // answered: 256 KiB of replies is about 5400.
  ASSERT_GE(served, 5000u);
  ASSERT_LT(served, static_cast<std::uint64_t>(kFirstWave));

  // Requests sent now stay unread while the backlog is over the mark.
  wave.clear();
  for (int i = 0; i < kSecondWave; ++i) wave += "SLOWDOWN\n";
  ASSERT_TRUE(client.raw(wave).ok);  // answers the first wave's 2nd request
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(requestsServed(metrics), served) << "reads were not paused";

  // Draining the replies lets the partial writes finish; below the low
  // water mark reads resume and the held-back wave is answered, in order.
  for (int i = 2; i < kFirstWave + kSecondWave; ++i) {
    const Response response = client.readResponse();
    ASSERT_TRUE(response.ok) << "response " << i << ": " << response.error;
    ASSERT_EQ(*response.find("verb"), "SLOWDOWN") << "response " << i;
  }
  EXPECT_EQ(requestsServed(metrics),
            static_cast<std::uint64_t>(kFirstWave + kSecondWave));
  EXPECT_GE(metrics.snapshot().loopEagainWrites, 1u);
  server.stop();
  EXPECT_EQ(metrics.snapshot().droppedBytes, 0u);
}

TEST(EventEngineSlowLog, SlowRequestIsLoggedWithItsQueueWait) {
  ServerConfig config;
  config.endpoint = parseEndpoint("unix:" + uniqueSocketPath("slowlog"));
  config.slowRequestUs = 1;  // any METRICS render takes longer
  ConcurrentTracker tracker(testPlatform());
  Metrics metrics;
  Server server(config, tracker, metrics);
  server.start();

  ::testing::internal::CaptureStderr();
  Client client(config.endpoint);
  const std::string exposition = client.metricsText();
  server.stop();
  const std::string log = ::testing::internal::GetCapturedStderr();

  EXPECT_NE(exposition.find("contend_slow_requests_total"), std::string::npos);
  EXPECT_GE(metrics.snapshot().slowRequests, 1u);
  const std::string prefix =
      "contend-served: slow request verb=METRICS bytes=8 duration_us=";
  const auto at = log.find(prefix);
  ASSERT_NE(at, std::string::npos) << log;
  const std::string line = log.substr(at, log.find('\n', at) - at);
  EXPECT_NE(line.find(" queue_wait_us="), std::string::npos) << line;
}

}  // namespace
}  // namespace contend::serve
