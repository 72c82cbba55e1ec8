// End-to-end tests for serve::Server + serve::Client over real sockets:
// endpoint parsing, the full verb set over Unix and TCP transports,
// concurrent clients, error surfacing, and graceful shutdown.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/concurrent_tracker.hpp"
#include "serve/metrics.hpp"
#include "serve/net_util.hpp"
#include "serve/prometheus.hpp"
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
  return "/tmp/contend_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter++) + ".sock";
}

/// A plain blocking connection to a unix endpoint; -1 on failure.
int connectUnix(const Endpoint& endpoint) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, endpoint.path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(Endpoint, ParsesSpecs) {
  const Endpoint unixEp = parseEndpoint("unix:/tmp/x.sock");
  EXPECT_EQ(unixEp.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unixEp.path, "/tmp/x.sock");
  EXPECT_EQ(endpointToString(unixEp), "unix:/tmp/x.sock");

  const Endpoint tcpShort = parseEndpoint("tcp:7411");
  EXPECT_EQ(tcpShort.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcpShort.host, "127.0.0.1");
  EXPECT_EQ(tcpShort.port, 7411);

  const Endpoint tcpFull = parseEndpoint("tcp:0.0.0.0:80");
  EXPECT_EQ(tcpFull.host, "0.0.0.0");
  EXPECT_EQ(tcpFull.port, 80);
}

TEST(Endpoint, RejectsBadSpecs) {
  EXPECT_THROW((void)parseEndpoint("http:8080"), std::invalid_argument);
  EXPECT_THROW((void)parseEndpoint("unix:"), std::invalid_argument);
  EXPECT_THROW((void)parseEndpoint("tcp:"), std::invalid_argument);
  EXPECT_THROW((void)parseEndpoint("tcp:host:notaport"),
               std::invalid_argument);
  EXPECT_THROW((void)parseEndpoint("tcp:1.2.3.4:70000"),
               std::invalid_argument);
  EXPECT_THROW((void)parseEndpoint("unix:" + std::string(200, 'a')),
               std::invalid_argument);
}

// Table of malformed specs: every entry must throw, none may crash or be
// silently coerced into a listenable endpoint.
TEST(Endpoint, MalformedSpecTable) {
  const char* kMalformed[] = {
      "",              // no scheme at all
      "tcp",           // scheme without the colon
      "tcp:",          // scheme with nothing after it
      "tcp::",         // empty host AND empty port
      "tcp:host:",     // host present, port missing
      "tcp:-1",        // negative port
      "tcp:65536",     // one past the maximum port
      "tcp:1.2.3.4:65536",
      "tcp:7411 ",     // trailing junk after the port digits
      "tcp:0x1f4",     // hex is not a port
      "unix",          // unix scheme without the colon
  };
  for (const char* spec : kMalformed) {
    SCOPED_TRACE(std::string("spec: '") + spec + "'");
    EXPECT_THROW((void)parseEndpoint(spec), std::invalid_argument);
  }
  // Boundary cases that must be accepted.
  EXPECT_EQ(parseEndpoint("tcp:0").port, 0);          // ephemeral
  EXPECT_EQ(parseEndpoint("tcp:65535").port, 65535);  // maximum port
  EXPECT_EQ(parseEndpoint("tcp::7411").host, "127.0.0.1");  // empty host OK
  // sun_path is 108 bytes including the NUL: a 107-char path is the longest
  // bindable one, 108 chars must be rejected before bind() truncates it.
  const std::string longestOk = "/" + std::string(106, 'a');
  EXPECT_EQ(parseEndpoint("unix:" + longestOk).path, longestOk);
  EXPECT_THROW((void)parseEndpoint("unix:/" + std::string(107, 'a')),
               std::invalid_argument);
}

// Every end-to-end case runs against both serving cores: the protocol,
// error surfacing, and shutdown behavior must be engine-independent.
class ServerFixture : public ::testing::TestWithParam<EngineKind> {
 protected:
  void startUnix() {
    config_.endpoint = parseEndpoint("unix:" + uniqueSocketPath("fixture"));
    config_.workers = 4;
    config_.requestTimeoutMs = 2000;
    config_.engine = GetParam();
    server_ = std::make_unique<Server>(config_, tracker_, metrics_);
    server_->start();
  }

  ServerConfig config_;
  ConcurrentTracker tracker_{testPlatform()};
  Metrics metrics_;
  std::unique_ptr<Server> server_;
};

TEST_P(ServerFixture, FullVerbSetOverUnixSocket) {
  startUnix();
  Client client(config_.endpoint);

  const Response arrived = client.arrive(0.3, 800);
  ASSERT_TRUE(arrived.ok) << arrived.error;
  EXPECT_EQ(*arrived.find("verb"), "ARRIVE");
  const auto id = static_cast<std::uint64_t>(arrived.number("id"));
  EXPECT_EQ(arrived.number("epoch"), 1.0);
  EXPECT_EQ(arrived.number("p"), 1.0);
  EXPECT_GT(arrived.number("comp"), 1.0);

  const Response slowdown = client.slowdown();
  ASSERT_TRUE(slowdown.ok);
  EXPECT_DOUBLE_EQ(slowdown.number("comp"), arrived.number("comp"));
  EXPECT_DOUBLE_EQ(slowdown.number("comm"), arrived.number("comm"));

  tools::TaskSpec task;
  task.name = "solver";
  task.frontEndSec = 8.0;
  task.backEndSec = 1.5;
  task.toBackend.push_back({512, 512});
  const Response first = client.predict(task);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(*first.find("cache"), "miss");
  EXPECT_DOUBLE_EQ(first.number("front"),
                   8.0 * slowdown.number("comp"));
  const Response second = client.predict(task);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(*second.find("cache"), "hit");
  EXPECT_DOUBLE_EQ(second.number("front"), first.number("front"));
  EXPECT_NE(first.find("decision"), nullptr);

  const Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_GE(stats.number("requests"), 4.0);
  EXPECT_EQ(stats.number("cache_hits"), 1.0);
  EXPECT_EQ(stats.number("cache_misses"), 1.0);
  EXPECT_GE(stats.number("accepted"), 1.0);
  EXPECT_GE(stats.number("lat_samples"), 4.0);

  const Response departed = client.depart(id);
  ASSERT_TRUE(departed.ok);
  EXPECT_DOUBLE_EQ(departed.number("comp"), 1.0);
  EXPECT_DOUBLE_EQ(departed.number("p"), 0.0);

  server_->stop();
}

TEST_P(ServerFixture, ErrorsAreReportedNotFatal) {
  startUnix();
  Client client(config_.endpoint);

  const Response unknownId = client.depart(12345);
  EXPECT_FALSE(unknownId.ok);
  EXPECT_NE(unknownId.error.find("unknown application id"), std::string::npos)
      << unknownId.error;

  const Response badVerb = client.raw("FROBNICATE\n");
  EXPECT_FALSE(badVerb.ok);
  EXPECT_NE(badVerb.error.find("unknown verb"), std::string::npos);

  const Response badArrive = client.raw("ARRIVE 2.0 100\n");
  EXPECT_FALSE(badArrive.ok);

  // The connection survives all of the above.
  const Response alive = client.slowdown();
  ASSERT_TRUE(alive.ok);
  EXPECT_DOUBLE_EQ(alive.number("comp"), 1.0);

  const Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_GE(stats.number("errors"), 3.0);
  server_->stop();
}

TEST_P(ServerFixture, ServesOverTcp) {
  config_.endpoint = parseEndpoint("tcp:127.0.0.1:0");  // ephemeral port
  config_.workers = 2;
  config_.engine = GetParam();
  server_ = std::make_unique<Server>(config_, tracker_, metrics_);
  server_->start();
  ASSERT_GT(server_->boundPort(), 0);

  Client client(server_->endpoint());
  const Response response = client.slowdown();
  ASSERT_TRUE(response.ok);
  EXPECT_DOUBLE_EQ(response.number("comp"), 1.0);
  server_->stop();
}

TEST_P(ServerFixture, ManyConcurrentClients) {
  startUnix();
  constexpr int kClients = 8;
  constexpr int kRequests = 50;
  std::vector<std::thread> threads;
  std::vector<int> okCounts(kClients, 0);
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(config_.endpoint);
      tools::TaskSpec task;
      task.name = "t" + std::to_string(c);
      task.frontEndSec = 1.0 + c;
      task.backEndSec = 0.5;
      for (int r = 0; r < kRequests; ++r) {
        if (client.predict(task).ok) ++okCounts[static_cast<std::size_t>(c)];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(okCounts[static_cast<std::size_t>(c)], kRequests) << c;
  }
  const Response stats = Client(config_.endpoint).stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_GE(stats.number("predict"), double(kClients * kRequests));
  server_->stop();
}

TEST_P(ServerFixture, GracefulShutdownStopsAccepting) {
  startUnix();
  {
    Client client(config_.endpoint);
    ASSERT_TRUE(client.slowdown().ok);
  }
  server_->stop();
  // The socket file is unlinked only at destruction; connecting now must
  // fail either way because nobody is accepting.
  EXPECT_THROW(
      {
        Client late(config_.endpoint);
        (void)late.slowdown();
      },
      std::runtime_error);
}

TEST_P(ServerFixture, PredictBatchOverTheWire) {
  startUnix();
  Client client(config_.endpoint);
  ASSERT_TRUE(client.arrive(0.3, 800).ok);
  const Response slowdown = client.slowdown();
  ASSERT_TRUE(slowdown.ok);

  tools::TaskSpec solver;
  solver.name = "solver";
  solver.frontEndSec = 8.0;
  solver.backEndSec = 1.5;
  solver.toBackend.push_back({512, 512});
  tools::TaskSpec reducer;
  reducer.name = "reducer";
  reducer.frontEndSec = 2.0;
  reducer.backEndSec = 0.5;

  const Response batch = client.predictBatch({solver, reducer});
  ASSERT_TRUE(batch.ok) << batch.error;
  EXPECT_EQ(*batch.find("verb"), "PREDICT_BATCH");
  EXPECT_DOUBLE_EQ(batch.number("count"), 2.0);
  EXPECT_EQ(*batch.find("name.0"), "solver");
  EXPECT_EQ(*batch.find("name.1"), "reducer");
  // Batch answers must match what per-task PREDICTs compute.
  EXPECT_DOUBLE_EQ(batch.number("front.0"), 8.0 * slowdown.number("comp"));
  EXPECT_DOUBLE_EQ(batch.number("front.1"), 2.0 * slowdown.number("comp"));
  EXPECT_NE(batch.find("decision.0"), nullptr);
  EXPECT_EQ(*batch.find("cache.0"), "miss");

  // Same batch again: every entry now comes from the cache, same numbers,
  // same (single) epoch field.
  const Response again = client.predictBatch({solver, reducer});
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(*again.find("cache.0"), "hit");
  EXPECT_EQ(*again.find("cache.1"), "hit");
  EXPECT_DOUBLE_EQ(again.number("front.0"), batch.number("front.0"));
  EXPECT_DOUBLE_EQ(again.number("epoch"), batch.number("epoch"));

  // Per-task PREDICT agrees with the batch (and hits the same cache).
  const Response single = client.predict(solver);
  ASSERT_TRUE(single.ok);
  EXPECT_EQ(*single.find("cache"), "hit");
  EXPECT_DOUBLE_EQ(single.number("front"), batch.number("front.0"));

  // Verb accounting: STATS sees predict_batch as its own counter.
  const Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.number("predict_batch"), 2.0);
  EXPECT_GE(stats.number("cache_shards"), 1.0);
  EXPECT_GE(stats.number("shard0_hits") + stats.number("shard0_misses"), 0.0);

  // Malformed batches answer ERR without killing the connection...
  const Response empty = client.raw("PREDICT_BATCH\nend_batch\n");
  EXPECT_FALSE(empty.ok);
  EXPECT_TRUE(client.slowdown().ok);
  server_->stop();
}

TEST_P(ServerFixture, PipelinedRequestsGetCoalescedResponses) {
  startUnix();
  Client client(config_.endpoint);
  // One write carrying four requests, with a comment line, a blank line and
  // a PREDICT block among them; the server must answer every request (in
  // order, skipping the comment and the blank line) even though it flushes
  // its buffered responses at once.
  const std::string burst =
      "SLOWDOWN\n"
      "# a comment between requests\n"
      "\n"
      "ARRIVE 0.3 800\n"
      "PREDICT piped\n"
      "front 2.0\n"
      "back 1.0\n"
      "end\n"
      "SLOWDOWN\n";
  const Response first = client.raw(burst);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(*first.find("verb"), "SLOWDOWN");
  EXPECT_DOUBLE_EQ(first.number("comp"), 1.0);
  const Response second = client.readResponse();
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(*second.find("verb"), "ARRIVE");
  const Response third = client.readResponse();
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_EQ(*third.find("verb"), "PREDICT");
  EXPECT_EQ(*third.find("name"), "piped");
  EXPECT_DOUBLE_EQ(third.number("front"), 2.0 * second.number("comp"));
  const Response fourth = client.readResponse();
  ASSERT_TRUE(fourth.ok);
  EXPECT_EQ(*fourth.find("verb"), "SLOWDOWN");
  EXPECT_DOUBLE_EQ(fourth.number("comp"), second.number("comp"));
  server_->stop();
}

TEST_P(ServerFixture, CrlfRequestsGetTheirLfReplies) {
  startUnix();
  Client client(config_.endpoint);
  const auto crlf = [](const std::string& text) {
    std::string out;
    for (const char c : text) {
      if (c == '\n') out += '\r';
      out += c;
    }
    return out;
  };
  // ARRIVE changes the mix, so each form arrives on the same (empty) mix:
  // arrive, depart, arrive again. Only the id and the epoch may differ.
  const std::string arrive = "ARRIVE 0.3 800\n";
  const Response arriveCrlf = client.raw(crlf(arrive));
  ASSERT_TRUE(arriveCrlf.ok) << arriveCrlf.error;
  const Response departCrlf =
      client.raw(crlf("DEPART " + *arriveCrlf.find("id") + "\n"));
  ASSERT_TRUE(departCrlf.ok) << departCrlf.error;
  const Response arriveLf = client.raw(arrive);
  ASSERT_TRUE(arriveLf.ok);
  ASSERT_EQ(arriveCrlf.fields.size(), arriveLf.fields.size());
  for (std::size_t i = 0; i < arriveLf.fields.size(); ++i) {
    const auto& [key, value] = arriveLf.fields[i];
    EXPECT_EQ(arriveCrlf.fields[i].first, key);
    if (key != "id" && key != "epoch") {
      EXPECT_EQ(arriveCrlf.fields[i].second, value) << key;
    }
  }
  // PREDICT leaves the mix alone: once a first call has warmed the cache,
  // the CRLF and LF blocks must get the same reply line.
  const std::string predict =
      "PREDICT framed\n"
      "front 2.0\n"
      "back 1.0\n"
      "to_backend 10 x 100\n"
      "end\n";
  ASSERT_TRUE(client.raw(predict).ok);
  const Response predictCrlf = client.raw(crlf(predict));
  ASSERT_TRUE(predictCrlf.ok) << predictCrlf.error;
  EXPECT_EQ(*predictCrlf.find("name"), "framed");
  EXPECT_EQ(formatResponse(predictCrlf), formatResponse(client.raw(predict)));
  server_->stop();
}

TEST_P(ServerFixture, PredictBlockArrivesOverTheWire) {
  startUnix();
  Client client(config_.endpoint);
  const Response response = client.raw(
      "PREDICT wired\n"
      "front 2.0\n"
      "back 1.0\n"
      "to_backend 10 x 100\n"
      "end\n");
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(*response.find("name"), "wired");
  EXPECT_DOUBLE_EQ(response.number("front"), 2.0);  // dedicated: no mix
  server_->stop();
}

TEST_P(ServerFixture, HealthVerbOverTheWire) {
  startUnix();
  Client client(config_.endpoint);
  // No journal configured: HEALTH still answers, with the journal off.
  const Response health = client.health();
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(*health.find("verb"), "HEALTH");
  EXPECT_GE(health.number("uptime_s"), 0.0);
  EXPECT_EQ(*health.find("epoch"), "0");
  EXPECT_EQ(*health.find("recovered"), "0");
  EXPECT_EQ(*health.find("journal"), "off");

  ASSERT_TRUE(client.arrive(0.4, 500).ok);
  const Response after = client.health();
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(*after.find("epoch"), "1");
  server_->stop();
}

TEST_P(ServerFixture, MetricsVerbEmitsExposition) {
  startUnix();
  Client client(config_.endpoint);
  ASSERT_TRUE(client.arrive(0.3, 800).ok);
  ASSERT_TRUE(client.slowdown().ok);

  const std::string text = client.metricsText();
  // The exposition is multi-line, '# EOF'-terminated, and conformant per
  // the same lint `contend_client metrics --check` runs.
  ASSERT_GE(text.size(), std::string("# EOF\n").size());
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  EXPECT_NE(text.find("contend_requests_total{verb=\"ARRIVE\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("contend_request_duration_us_count{verb=\"ARRIVE\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("contend_active_applications 1"), std::string::npos);
  const std::vector<std::string> violations = lintPrometheusText(text);
  EXPECT_TRUE(violations.empty()) << "first violation: " << violations.front();

  // The connection stays usable after a multi-line response, and METRICS
  // itself shows up in the counters on the next scrape.
  const Response stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.number("metrics"), 1.0);
  EXPECT_NE(client.metricsText().find("contend_requests_total{verb=\"METRICS\"} 1"),
            std::string::npos);
  server_->stop();
}

TEST_P(ServerFixture, StatsReportSignature) {
  startUnix();
  Client client(config_.endpoint);
  const Response before = client.stats();
  ASSERT_TRUE(before.ok);
  EXPECT_EQ(*before.find("signature"), "0");  // empty mix
  ASSERT_TRUE(client.arrive(0.4, 500).ok);
  const Response after = client.stats();
  ASSERT_TRUE(after.ok);
  EXPECT_NE(*after.find("signature"), "0");
  server_->stop();
}

// The exact reply bytes of the hot verbs, captured once and committed: the
// differential suites compare parsed numbers, so only this pins field order,
// number text and ERR wording. Each request goes out on one connection and
// its reply is read through its newline, byte for byte.
TEST_P(ServerFixture, HotVerbRepliesAreBytePinned) {
  startUnix();
  struct Exchange {
    const char* request;
    const char* reply;
  };
  const Exchange kExchanges[] = {
      {"ARRIVE 0.3 800\n",
       "OK verb=ARRIVE id=1 epoch=1 p=1 comp=1.8199999999999998 "
       "comm=1.4100000000000001 io=1.07\n"},
      {"ARRIVE 0.05 4000 io 0.2 10\n",
       "OK verb=ARRIVE id=2 epoch=2 p=2 comp=2.5899999999999994 comm=1.795 "
       "io=1.345\n"},
      {"SLOWDOWN\n",
       "OK verb=SLOWDOWN epoch=2 p=2 comp=2.5899999999999994 comm=1.795 "
       "io=1.345\n"},
      {"PREDICT solver\nfront 8.0\nback 1.5\nto_backend 512 x 512\n"
       "from_backend 64 x 2048\nend\n",
       "OK verb=PREDICT name=solver epoch=2 front=20.719999999999995 "
       "remote=767.29008 decision=front-end cache=miss\n"},
      {"PREDICT solver\nfront 8.0\nback 1.5\nto_backend 512 x 512\n"
       "from_backend 64 x 2048\nend\n",
       "OK verb=PREDICT name=solver epoch=2 front=20.719999999999995 "
       "remote=767.29008 decision=front-end cache=hit\n"},
      {"PREDICT_BATCH\ntask a\nfront 2.5\nback 0.25\nio 0.125 40\nend\n"
       "task b\nfront 0.75\nback 3\nto_backend 10 x 100\n"
       "from_backend 3 x 5000\nend\ntask c\nfront 12\nback 0.5\nend\n"
       "end_batch\n",
       "OK verb=PREDICT_BATCH count=3 epoch=2 name.0=a "
       "front.0=6.085937499999998 remote.0=0.25 decision.0=back-end "
       "cache.0=miss name.1=b front.1=1.9424999999999994 remote.1=38.47997 "
       "decision.1=front-end cache.1=miss name.2=c front.2=31.07999999999999 "
       "remote.2=0.5 decision.2=back-end cache.2=miss\n"},
      {"DEPART 1\n",
       "OK verb=DEPART id=1 epoch=3 p=1 comp=1.77 comm=1.385 io=1.275\n"},
      {"SLOWDOWN\n",
       "OK verb=SLOWDOWN epoch=3 p=1 comp=1.77 comm=1.385 io=1.275\n"},
      {"ARRIVE 1.5 100\n", "ERR parse ARRIVE: comm fraction outside [0, 1]\n"},
      {"FROBNICATE now\n", "ERR bad_verb unknown verb 'FROBNICATE'\n"},
      {"DEPART 999\n",
       "ERR invalid_argument OnlineContentionTracker: unknown application id "
       "999\n"},
  };
  const int fd = connectUnix(config_.endpoint);
  ASSERT_GE(fd, 0);
  FdLineReader reader(fd, kMaxResponseLineBytes);
  for (const Exchange& exchange : kExchanges) {
    ASSERT_TRUE(sendAll(fd, exchange.request));
    std::string line;
    ASSERT_EQ(reader.readLine(line), LineRead::kLine) << exchange.request;
    EXPECT_EQ(line + '\n', exchange.reply) << exchange.request;
  }
  ::close(fd);
  server_->stop();
}

// A dead daemon leaves its socket file behind; the next start must reclaim
// it (probe with connect(), unlink on refusal) instead of failing — and
// must NOT steal the file from a daemon that is still alive.
INSTANTIATE_TEST_SUITE_P(Engines, ServerFixture,
                         ::testing::Values(EngineKind::kThreads,
                                           EngineKind::kEpoll),
                         [](const auto& param) {
                           return std::string(engineKindName(param.param));
                         });

TEST(StaleSocket, DeadSocketFileIsReclaimed) {
  const std::string path = uniqueSocketPath("stale");
  ConcurrentTracker trackerA(testPlatform());
  Metrics metricsA;
  ServerConfig config;
  config.endpoint = parseEndpoint("unix:" + path);
  config.workers = 2;
  // Plant an orphaned socket file with no listener behind it — exactly
  // what a SIGKILLed daemon leaves on disk.
  ASSERT_EQ(::mknod(path.c_str(), S_IFSOCK | 0600, 0), 0);

  ConcurrentTracker trackerB(testPlatform());
  Metrics metricsB;
  Server serverB(config, trackerB, metricsB);
  serverB.start();  // must reclaim, not throw
  Client client(config.endpoint);
  EXPECT_TRUE(client.slowdown().ok);
  serverB.stop();
  ::unlink(path.c_str());
}

TEST(StaleSocket, LiveServerIsNotHijacked) {
  const std::string path = uniqueSocketPath("live");
  ConcurrentTracker trackerA(testPlatform());
  Metrics metricsA;
  ServerConfig config;
  config.endpoint = parseEndpoint("unix:" + path);
  config.workers = 2;
  Server serverA(config, trackerA, metricsA);
  serverA.start();

  // A second daemon pointed at the same path must refuse to start: the
  // connect() probe succeeds, so the file is NOT stale.
  ConcurrentTracker trackerB(testPlatform());
  Metrics metricsB;
  Server serverB(config, trackerB, metricsB);
  EXPECT_THROW(serverB.start(), std::runtime_error);

  // And the original server is untouched by the failed takeover.
  Client client(config.endpoint);
  EXPECT_TRUE(client.slowdown().ok);
  serverA.stop();
}

}  // namespace
}  // namespace contend::serve
