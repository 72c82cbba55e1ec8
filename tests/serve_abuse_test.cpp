// serve_abuse_test.cpp — hostile-client tests for the serving stack: the
// server must answer (or shed) slow, malformed, and abusive peers with a
// coded `ERR` and bounded resources, while concurrent well-formed clients
// keep getting answers. A companion unit test pins the line cap of the
// client's FdLineReader.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>

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
  return "/tmp/contend_abuse_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter++) + ".sock";
}

/// Raw unix- or TCP-socket connection, for clients that must misbehave in
/// ways the Client class refuses to.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    connectTo(AF_UNIX, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  RawConn(const std::string& host, int port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ADD_FAILURE() << "bad IPv4 address " << host;
      return;
    }
    connectTo(AF_INET, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  /// Sends ignoring EPIPE; returns false once the peer is gone.
  bool trySend(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Reads one '\n'-terminated line (newline stripped); empty optional on
  /// EOF/error before a full line arrived.
  std::optional<std::string> readLine(int timeoutMs = 5000) {
    timeval tv{};
    tv.tv_sec = timeoutMs / 1000;
    tv.tv_usec = (timeoutMs % 1000) * 1000;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string line;
    char c = 0;
    while (true) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) return std::nullopt;
      if (c == '\n') return line;
      line += c;
    }
  }

  /// True when the next read sees EOF (the server closed the connection).
  bool atEof() {
    char c = 0;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

 private:
  void connectTo(int family, const sockaddr* addr, socklen_t length) {
    fd_ = ::socket(family, SOCK_STREAM, 0);
    if (fd_ < 0) {
      ADD_FAILURE() << "socket: " << std::strerror(errno);
      return;
    }
    if (::connect(fd_, addr, length) != 0) {
      ADD_FAILURE() << "connect: " << std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd_ = -1;
};

/// Drips `byte` every 100 ms until the server replies or closes; returns
/// the server's (newline-stripped) reply line, or nullopt on a bare close.
std::optional<std::string> dripUntilReply(RawConn& conn, const char* byte) {
  for (int i = 0; i < 100; ++i) {
    const bool sent = conn.trySend(byte);
    char peek = 0;
    const ssize_t n = ::recv(conn.fd(), &peek, 1, MSG_DONTWAIT);
    if (n == 1) {
      std::string reply = peek == '\n' ? "" : std::string(1, peek);
      if (peek != '\n') {
        if (const auto tail = conn.readLine()) reply += *tail;
      }
      return reply;
    }
    if (n == 0) return std::nullopt;  // closed without a reply
    if (!sent) return conn.readLine(1000);  // closed; drain the parting ERR
    std::this_thread::sleep_for(100ms);
  }
  return std::nullopt;
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

class ServerAbuseTest : public ::testing::TestWithParam<LoopLayout> {
 protected:
  void start(int workers = 2, int timeoutMs = 2000, int deadlineMs = 0,
             std::size_t queueCapacity = 128, bool tcp = false) {
    config_.endpoint = parseEndpoint(
        tcp ? "tcp:127.0.0.1:0" : "unix:" + uniqueSocketPath("abuse"));
    config_.workers = workers;
    config_.queueCapacity = queueCapacity;
    config_.requestTimeoutMs = timeoutMs;
    config_.requestDeadlineMs = deadlineMs;
    config_.loopThreads = loopThreadsFor(GetParam());
    server_ = std::make_unique<Server>(config_, tracker_, metrics_);
    server_->start();
  }

  [[nodiscard]] const std::string& path() const {
    return config_.endpoint.path;
  }

  /// Where clients connect: the configured endpoint, with the port the
  /// server actually bound for `tcp:...:0`.
  [[nodiscard]] Endpoint liveEndpoint() const {
    Endpoint endpoint = config_.endpoint;
    if (endpoint.kind == Endpoint::Kind::kTcp) {
      endpoint.port = server_->boundPort();
    }
    return endpoint;
  }

  [[nodiscard]] RawConn connectRaw() const {
    const Endpoint endpoint = liveEndpoint();
    return endpoint.kind == Endpoint::Kind::kTcp
               ? RawConn(endpoint.host, endpoint.port)
               : RawConn(endpoint.path);
  }

  /// Streams megabytes with no newline; the server must stop buffering at
  /// kMaxRequestLineBytes, answer ERR line_too_long, and hang up cleanly:
  /// the ERR arrives intact and the next read is EOF, not a reset.
  void expectOversizedLineRefused() {
    RawConn attacker = connectRaw();
    const std::string chunk(64 << 10, 'A');
    std::size_t sent = 0;
    for (int i = 0; i < 1024; ++i) {  // up to 64 MiB
      if (!attacker.trySend(chunk)) break;
      sent += chunk.size();
    }
    const auto reply = attacker.readLine();
    ASSERT_TRUE(reply.has_value()) << "no ERR before close after " << sent
                                   << " bytes";
    const Response parsed = parseResponse(*reply);
    EXPECT_FALSE(parsed.ok);
    EXPECT_EQ(parsed.code, kErrLineTooLong);
    EXPECT_TRUE(attacker.atEof());

    // A well-formed client right after the abuse is answered normally.
    Client wellFormed(liveEndpoint());
    const Response ok = wellFormed.slowdown();
    ASSERT_TRUE(ok.ok);
    const Response stats = wellFormed.stats();
    ASSERT_TRUE(stats.ok);
    EXPECT_GE(stats.number("line_overflows"), 1.0);
  }

  ServerConfig config_;
  ConcurrentTracker tracker_{testPlatform()};
  Metrics metrics_;
  std::unique_ptr<Server> server_;
};

// --- FdLineReader unit guarantee -------------------------------------------

TEST(FdLineReaderGuard, UnterminatedLineIsCappedAndBufferStaysBounded) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  constexpr std::size_t kCap = 64 << 10;
  std::thread writer([fd = pair[1]] {
    const std::string chunk(8192, 'x');  // no newline, ever
    // Far more than the cap; stops when the reader closes its end.
    for (int i = 0; i < 8192; ++i) {
      if (::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) < 0) break;
    }
  });
  {
    FdLineReader reader(pair[0], kCap);
    std::string line;
    EXPECT_EQ(reader.readLine(line), LineRead::kTooLong);
    // The whole point: memory stays bounded by the cap plus one receive
    // chunk, no matter how much the peer streams.
    EXPECT_LE(reader.peakBufferedBytes(), kCap + 4096);
    // The verdict is sticky: the connection is done.
    EXPECT_EQ(reader.readLine(line), LineRead::kTooLong);
  }
  ::close(pair[0]);
  writer.join();
  ::close(pair[1]);
}

// --- Server-level abuse ----------------------------------------------------

TEST_P(ServerAbuseTest, OversizedLineAnsweredWithErrAndDisconnected) {
  start();
  expectOversizedLineRefused();
  server_->stop();
}

TEST_P(ServerAbuseTest, OversizedLineAnsweredWithErrAndDisconnectedTcp) {
  // Over TCP a close with unread input sends a reset, which can also throw
  // away the ERR before the client reads it.
  start(/*workers=*/2, /*timeoutMs=*/2000, /*deadlineMs=*/0,
        /*queueCapacity=*/128, /*tcp=*/true);
  expectOversizedLineRefused();
  server_->stop();
}

TEST_P(ServerAbuseTest, UnterminatedTailIsRefusedAtTheLineCap) {
  start();
  RawConn conn(path());
  // One byte short of the cap with no newline: still a request in progress.
  ASSERT_TRUE(conn.trySend(std::string(kMaxRequestLineBytes - 1, 'A')));
  std::this_thread::sleep_for(100ms);
  char peek = 0;
  EXPECT_EQ(::recv(conn.fd(), &peek, 1, MSG_DONTWAIT), -1)
      << "refused a tail below the cap";
  // The byte that reaches the cap, still unterminated, gets the refusal.
  ASSERT_TRUE(conn.trySend("A"));
  const auto reply = conn.readLine();
  ASSERT_TRUE(reply.has_value());
  const Response parsed = parseResponse(*reply);
  EXPECT_EQ(parsed.code, kErrLineTooLong);
  EXPECT_NE(parsed.error.find("request: line exceeds"), std::string::npos)
      << parsed.error;
  EXPECT_TRUE(conn.atEof());
  EXPECT_EQ(metrics_.snapshot().lineOverflows, 1u);
  server_->stop();
}

TEST_P(ServerAbuseTest, LineReachingTheCapIsRefusedWhenItsNewlineArrives) {
  start();
  RawConn conn(path());
  ASSERT_TRUE(conn.trySend(std::string(kMaxRequestLineBytes - 1, 'A')));
  std::this_thread::sleep_for(100ms);  // buffered as an unterminated tail
  // The terminated line is exactly the cap long: refused, not parsed.
  ASSERT_TRUE(conn.trySend("A\nSLOWDOWN\n"));
  const auto reply = conn.readLine();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(parseResponse(*reply).code, kErrLineTooLong);
  EXPECT_TRUE(conn.atEof());
  EXPECT_EQ(metrics_.snapshot().lineOverflows, 1u);
  server_->stop();
}

TEST_P(ServerAbuseTest, BlockPastItsLineCapIsRefused) {
  start();
  RawConn conn(path());
  // A PREDICT body may hold kMaxPredictBlockLines lines, terminator
  // included; one more without `end` cannot be resynchronized.
  std::string block = "PREDICT endless\n";
  for (int i = 0; i < kMaxPredictBlockLines; ++i) block += "front 1.0\n";
  ASSERT_TRUE(conn.trySend(block));
  const auto reply = conn.readLine();
  ASSERT_TRUE(reply.has_value());
  const Response parsed = parseResponse(*reply);
  EXPECT_EQ(parsed.code, kErrBlockUnterminated);
  EXPECT_NE(parsed.error.find("PREDICT: block not closed with 'end'"),
            std::string::npos)
      << parsed.error;
  EXPECT_TRUE(conn.atEof());
  server_->stop();
}

TEST_P(ServerAbuseTest, SlowLorisIsDisconnectedWithinTwiceTheDeadline) {
  constexpr int kDeadlineMs = 500;
  start(/*workers=*/2, /*timeoutMs=*/300, kDeadlineMs);
  RawConn loris(path());
  const auto begin = Clock::now();
  // Drip one byte per 100 ms: every arrival restarts the idle timeout, so
  // only the request deadline can end the connection.
  const std::optional<std::string> reply = dripUntilReply(loris, "S");
  const auto elapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                             Clock::now() - begin)
                             .count();
  // Acceptance bound: gone within 2x the configured request deadline.
  EXPECT_LE(elapsedMs, 2 * kDeadlineMs) << "slow-loris held its connection";
  ASSERT_TRUE(reply.has_value());
  const Response parsed = parseResponse(*reply);
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.code, kErrDeadline);

  // Meanwhile a concurrent well-formed client keeps getting answers.
  Client wellFormed(config_.endpoint);
  ASSERT_TRUE(wellFormed.slowdown().ok);
  const Response stats = wellFormed.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_GE(stats.number("deadlines_expired"), 1.0);
  server_->stop();
}

TEST_P(ServerAbuseTest, SlowLorisInsideAPredictBlockAlsoDies) {
  start(/*workers=*/2, /*timeoutMs=*/300, /*deadlineMs=*/500);
  RawConn loris(path());
  // A complete verb line, then the block body dripped one byte at a time:
  // the deadline window spans the whole logical request, so it still fires
  // even though every individual recv succeeds.
  ASSERT_TRUE(loris.trySend("PREDICT stuck\n"));
  const auto begin = Clock::now();
  const std::optional<std::string> reply = dripUntilReply(loris, "f");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(parseResponse(*reply).code, kErrDeadline);
  EXPECT_LE(Clock::now() - begin, 2000ms);
  Client wellFormed(config_.endpoint);
  ASSERT_TRUE(wellFormed.slowdown().ok);
  server_->stop();
}

TEST_P(ServerAbuseTest, HalfClosedSocketGetsItsAnswerThenCloses) {
  start();
  RawConn client(path());
  ASSERT_TRUE(client.trySend("SLOWDOWN\n"));
  ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
  const auto reply = client.readLine();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(parseResponse(*reply).ok);
  EXPECT_TRUE(client.atEof());

  // A half-close with nothing sent must simply end the connection.
  {
    RawConn silent(path());
    ASSERT_EQ(::shutdown(silent.fd(), SHUT_WR), 0);
    EXPECT_TRUE(silent.atEof());
  }
  Client wellFormed(config_.endpoint);
  ASSERT_TRUE(wellFormed.slowdown().ok);
  server_->stop();
}

TEST_P(ServerAbuseTest, GarbageBytesAreAnsweredWithCodedErrNotACrash) {
  start();
  Client client(config_.endpoint);
  const Response binary = client.raw(std::string("\x01\x02\x7f garbage\n"));
  EXPECT_FALSE(binary.ok);
  EXPECT_EQ(binary.code, kErrBadVerb);
  const Response badArgs = client.raw("ARRIVE lots of nonsense\n");
  EXPECT_FALSE(badArgs.ok);
  EXPECT_EQ(badArgs.code, kErrParse);
  const Response unknownId = client.depart(424242);
  EXPECT_FALSE(unknownId.ok);
  EXPECT_EQ(unknownId.code, kErrInvalidArgument);
  const Response emptyBatch = client.raw("PREDICT_BATCH\nend_batch\n");
  EXPECT_FALSE(emptyBatch.ok);
  EXPECT_EQ(emptyBatch.code, kErrEmptyBatch);
  // The connection survived every one of those.
  EXPECT_TRUE(client.slowdown().ok);
  server_->stop();
}

TEST_P(ServerAbuseTest, UnterminatedBlockErrNamesTheVerbIntact) {
  start();
  RawConn conn(path());
  // Half-close after a partial block: the server sees EOF mid-block and
  // must refuse with an ERR that still names the verb — a regression test
  // for the verb token dangling into the reused line buffer once the block
  // body had been read over it.
  ASSERT_TRUE(conn.trySend("PREDICT stuck\nfront 1.0\n"));
  ASSERT_EQ(::shutdown(conn.fd(), SHUT_WR), 0);
  const auto reply = conn.readLine();
  ASSERT_TRUE(reply.has_value());
  const Response parsed = parseResponse(*reply);
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.code, kErrBlockUnterminated);
  EXPECT_NE(parsed.error.find("PREDICT"), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("'end'"), std::string::npos) << parsed.error;
  EXPECT_TRUE(conn.atEof());
  server_->stop();
}

TEST_P(ServerAbuseTest, PipelinedGarbageBetweenValidRequestsStaysInSync) {
  start();
  Client client(config_.endpoint);
  const Response first =
      client.raw("SLOWDOWN\nFROBNICATE all the things\nSLOWDOWN\n");
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(*first.find("verb"), "SLOWDOWN");
  const Response second = client.readResponse();
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(second.code, kErrBadVerb);
  const Response third = client.readResponse();
  ASSERT_TRUE(third.ok);
  EXPECT_EQ(*third.find("verb"), "SLOWDOWN");
  server_->stop();
}

TEST_P(ServerAbuseTest, QueueOverflowReceivesTheFullErrLineBeforeClose) {
  start(/*workers=*/1, /*timeoutMs=*/3000, /*deadlineMs=*/0,
        /*queueCapacity=*/1);
  // Fill the admission cap (workers + queue = 2) with idle connections.
  RawConn busy(path());
  std::this_thread::sleep_for(100ms);  // let the loop accept `busy`
  RawConn queued(path());
  std::this_thread::sleep_for(100ms);  // and `queued`
  // The next connection must be refused with a complete ERR line, not a
  // bare close.
  RawConn refused(path());
  const auto reply = refused.readLine();
  ASSERT_TRUE(reply.has_value()) << "connection closed without an ERR line";
  const Response parsed = parseResponse(*reply);
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.code, kErrOverloaded);
  EXPECT_NE(parsed.error.find("overloaded"), std::string::npos);
  EXPECT_TRUE(refused.atEof());
  server_->stop();
}

TEST_P(ServerAbuseTest, SilentConnectionIsClosedAfterTheIdleTimeout) {
  start(/*workers=*/2, /*timeoutMs=*/200);
  RawConn conn(path());
  ASSERT_TRUE(conn.trySend("SLOWDOWN\n"));
  const auto reply = conn.readLine();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(parseResponse(*reply).ok);
  // Silence after the reply: the connection is closed without a parting
  // ERR once --timeout-ms passes.
  const auto begin = Clock::now();
  EXPECT_TRUE(conn.atEof());
  const auto waited = Clock::now() - begin;
  EXPECT_GE(waited, 150ms);
  EXPECT_LE(waited, 1500ms);
  EXPECT_EQ(metrics_.snapshot().errors, 0u);
  server_->stop();
}

TEST_P(ServerAbuseTest, IdleOpenBlockIsRefusedAsUnterminated) {
  start(/*workers=*/2, /*timeoutMs=*/200, /*deadlineMs=*/0);
  RawConn conn(path());
  // A block the peer stops sending mid-way: a silent close would leave it
  // guessing, so it gets the same ERR as a block cut off by EOF.
  ASSERT_TRUE(conn.trySend("PREDICT_BATCH\ntask a\nfront 1.0\n"));
  const auto begin = Clock::now();
  const auto reply = conn.readLine();
  ASSERT_TRUE(reply.has_value());
  const Response parsed = parseResponse(*reply);
  EXPECT_EQ(parsed.code, kErrBlockUnterminated);
  EXPECT_NE(parsed.error.find("PREDICT_BATCH: block not closed with "
                              "'end_batch'"),
            std::string::npos)
      << parsed.error;
  EXPECT_TRUE(conn.atEof());
  EXPECT_GE(Clock::now() - begin, 150ms);
  EXPECT_EQ(metrics_.snapshot().errors, 1u);
  server_->stop();
}

TEST_P(ServerAbuseTest, RefusalQueuedBehindUnsentRepliesArrivesLast) {
  config_.sendBufBytes = 4096;
  start(/*workers=*/2, /*timeoutMs=*/5000);
  // 600 replies the peer does not read yet, then a tail past the line
  // cap: the ERR has to wait behind the replies in the output buffer.
  constexpr int kRequests = 600;
  RawConn conn(path());
  std::string burst;
  for (int i = 0; i < kRequests; ++i) burst += "SLOWDOWN\n";
  burst += std::string(kMaxRequestLineBytes, 'A');
  ASSERT_TRUE(conn.trySend(burst));
  ASSERT_TRUE(waitFor([&] { return metrics_.snapshot().lineOverflows == 1; }));
  for (int i = 0; i < kRequests; ++i) {
    const auto reply = conn.readLine();
    ASSERT_TRUE(reply.has_value()) << "reply " << i;
    ASSERT_EQ(reply->rfind("OK verb=SLOWDOWN", 0), 0u) << "reply " << i;
  }
  const auto refusal = conn.readLine();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(parseResponse(*refusal).code, kErrLineTooLong);
  EXPECT_TRUE(conn.atEof());
  EXPECT_EQ(metrics_.snapshot().droppedBytes, 0u);
  server_->stop();
}

TEST_P(ServerAbuseTest, PeerThatVanishesMidReplyIsClosedAndCounted) {
  config_.sendBufBytes = 4096;
  start(/*workers=*/1, /*timeoutMs=*/5000, /*deadlineMs=*/0,
        /*queueCapacity=*/1);
  {
    RawConn conn(path());
    std::string burst;
    for (int i = 0; i < 600; ++i) burst += "SLOWDOWN\n";
    ASSERT_TRUE(conn.trySend(burst));
    // Counted as each request is answered; the send that overruns the
    // buffer comes after the whole batch.
    ASSERT_TRUE(
        waitFor([&] { return metrics_.snapshot().requestsTotal == 600; }));
    ASSERT_TRUE(
        waitFor([&] { return metrics_.snapshot().loopEagainWrites >= 1; }));
  }  // closes with the replies unread
  // The failed send closes the connection and counts what never left.
  ASSERT_TRUE(waitFor([&] { return metrics_.snapshot().droppedBytes > 0; }));
  // Its admission slot is free again: both slots of the cap of 2 fit.
  Client first(config_.endpoint);
  Client second(config_.endpoint);
  EXPECT_TRUE(first.slowdown().ok);
  EXPECT_TRUE(second.slowdown().ok);
  EXPECT_EQ(metrics_.snapshot().connectionsRejected, 0u);
  server_->stop();
}

TEST_P(ServerAbuseTest, StatsExposeTheNewAbuseCounters) {
  start();
  Client client(config_.endpoint);
  const Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  for (const char* field : {"accept_errors", "line_overflows",
                            "deadlines_expired", "dropped_bytes"}) {
    ASSERT_NE(stats.find(field), nullptr) << field;
    EXPECT_GE(stats.number(field), 0.0) << field;
  }
  server_->stop();
}

CONTEND_INSTANTIATE_LOOP_LAYOUTS(ServerAbuseTest);

}  // namespace
}  // namespace contend::serve
