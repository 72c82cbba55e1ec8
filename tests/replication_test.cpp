// Journal-streaming replication: the hex/frame codecs, the bounded
// ReplicationLog, follower catch-up (streamed and snapshot-seeded) landing
// bit-identical to the primary, read gating on a lagging follower,
// promotion, fault injection on the replication connection, and the
// topology-aware ClusterClient — including the pin that a scatter-gather
// PREDICT_BATCH replays a failing shard's sub-batch without ever re-sending
// the sub-batches that already succeeded.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/cluster_client.hpp"
#include "serve/concurrent_tracker.hpp"
#include "serve/metrics.hpp"
#include "serve/replication.hpp"
#include "serve/ring.hpp"
#include "serve/server.hpp"
#include "serve/syscall_hooks.hpp"

namespace contend::serve {
namespace {

model::ParagonPlatformModel testPlatform(int maxContenders = 64) {
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

std::string uniquePath(const char* tag) {
  static int counter = 0;
  return "/tmp/contend_repl_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter++) + ".sock";
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

tools::TaskSpec probeTask() {
  tools::TaskSpec task;
  task.name = "probe";
  task.frontEndSec = 8.0;
  task.backEndSec = 1.5;
  task.toBackend.push_back({512, 512});
  task.fromBackend.push_back({512, 512});
  return task;
}

/// One in-process daemon: tracker + optional replication state + server.
struct Node {
  explicit Node(const std::string& socketPath,
                ReplRole role = ReplRole::kStandalone,
                std::uint64_t maxLag = 64, std::size_t logCapacity = 65536)
      : socket(socketPath), tracker(testPlatform()) {
    ServerConfig config;
    config.endpoint = parseEndpoint("unix:" + socketPath);
    config.workers = 2;
    if (role != ReplRole::kStandalone) {
      repl = std::make_unique<ReplicationState>(maxLag, logCapacity);
      repl->setRole(role);
      repl->log().start(0);
      tracker.attachReplicationLog(&repl->log());
      config.replication = repl.get();
    }
    server = std::make_unique<Server>(config, tracker, metrics);
    server->start();
  }
  ~Node() {
    server->stop();
    ::unlink(socket.c_str());
  }

  std::string socket;
  ConcurrentTracker tracker;
  std::unique_ptr<ReplicationState> repl;
  Metrics metrics;
  std::unique_ptr<Server> server;
};

JournalRecord arriveRecord(std::uint64_t epoch, double fraction, Words words) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kArrive;
  record.epoch = epoch;
  record.id = epoch;
  record.app.commFraction = fraction;
  record.app.messageWords = words;
  return record;
}

/// Blocks until the predicate holds or ~5s pass; returns the final value.
bool eventually(const std::function<bool()>& predicate) {
  for (int i = 0; i < 2500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

void expectTrackersMatch(ConcurrentTracker& follower,
                         ConcurrentTracker& primary) {
  const SlowdownSnapshot a = follower.slowdowns();
  const SlowdownSnapshot b = primary.slowdowns();
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(bits(a.comp), bits(b.comp));
  EXPECT_EQ(bits(a.comm), bits(b.comm));
  EXPECT_EQ(a.signature, b.signature);
  // The mutation counts ride in the same snapshot, on every path that sets
  // them: replicated apply and snapshot install.
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.departures, b.departures);
  const TaskPrediction pa = follower.predict(probeTask());
  const TaskPrediction pb = primary.predict(probeTask());
  EXPECT_EQ(bits(pa.frontSec), bits(pb.frontSec));
  EXPECT_EQ(bits(pa.remoteSec), bits(pb.remoteSec));
  EXPECT_EQ(pa.offload, pb.offload);
}

TEST(Replication, HexCodecRoundTripsAndRejectsGarbage) {
  const std::string raw("\x00\x01\xfe\xffhex", 7);
  const std::string hex = encodeHex(raw);
  EXPECT_EQ(hex.size(), raw.size() * 2);
  const auto decoded = decodeHex(hex);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, raw);
  EXPECT_EQ(decodeHex("abc"), std::nullopt);   // odd length
  EXPECT_EQ(decodeHex("zz"), std::nullopt);    // not hex
  const auto empty = decodeHex("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(Replication, FrameCodecRejectsTornAndCorruptFrames) {
  const JournalRecord record = arriveRecord(7, 0.42, 2048);
  const std::string frame = encodeReplFrame(record);
  const auto decoded = decodeReplFrame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, JournalRecord::Kind::kArrive);
  EXPECT_EQ(decoded->epoch, 7u);
  EXPECT_EQ(bits(decoded->app.commFraction), bits(0.42));
  EXPECT_EQ(decoded->app.messageWords, 2048);

  // Torn: any truncation must be rejected as a whole.
  EXPECT_EQ(decodeReplFrame(frame.substr(0, frame.size() - 2)), std::nullopt);
  EXPECT_EQ(decodeReplFrame(frame.substr(0, 8)), std::nullopt);
  // Corrupt: flip one payload nibble; the CRC must catch it.
  std::string flipped = frame;
  flipped[flipped.size() - 1] = flipped.back() == '0' ? '1' : '0';
  EXPECT_EQ(decodeReplFrame(flipped), std::nullopt);
  // Trailing garbage: two concatenated frames are not one frame.
  EXPECT_EQ(decodeReplFrame(frame + frame), std::nullopt);
  EXPECT_EQ(decodeReplFrame(""), std::nullopt);
}

TEST(Replication, LogServesSinceAndSignalsSnapshotBelowFloor) {
  ReplicationLog log(100);
  log.start(5);
  for (std::uint64_t epoch = 6; epoch <= 15; ++epoch) {
    log.append(epoch, encodeReplFrame(arriveRecord(epoch, 0.3, 100)));
  }
  EXPECT_EQ(log.floorEpoch(), 5u);
  EXPECT_EQ(log.headEpoch(), 15u);

  const ReplicationLog::Batch all = log.since(5, 100, 1 << 20);
  EXPECT_FALSE(all.snapshotNeeded);
  ASSERT_EQ(all.frames.size(), 10u);
  EXPECT_EQ(all.frames.front().first, 6u);
  EXPECT_EQ(all.frames.back().first, 15u);
  EXPECT_EQ(all.headEpoch, 15u);

  const ReplicationLog::Batch tail = log.since(12, 100, 1 << 20);
  ASSERT_EQ(tail.frames.size(), 3u);
  EXPECT_EQ(tail.frames.front().first, 13u);

  EXPECT_TRUE(log.since(4, 100, 1 << 20).snapshotNeeded);
  EXPECT_TRUE(log.since(15, 100, 1 << 20).frames.empty());
}

TEST(Replication, LogDropsOldestPastCapacityAndAdvancesFloor) {
  ReplicationLog log(4);
  log.start(0);
  for (std::uint64_t epoch = 1; epoch <= 10; ++epoch) {
    log.append(epoch, encodeReplFrame(arriveRecord(epoch, 0.3, 100)));
  }
  EXPECT_EQ(log.floorEpoch(), 6u);  // epochs 1..6 dropped
  EXPECT_EQ(log.headEpoch(), 10u);
  EXPECT_TRUE(log.since(0, 100, 1 << 20).snapshotNeeded);
  EXPECT_TRUE(log.since(5, 100, 1 << 20).snapshotNeeded);
  const ReplicationLog::Batch batch = log.since(6, 100, 1 << 20);
  EXPECT_FALSE(batch.snapshotNeeded);
  ASSERT_EQ(batch.frames.size(), 4u);
  EXPECT_EQ(batch.frames.front().first, 7u);
}

TEST(Replication, LogSinceHonorsFrameAndByteCaps) {
  ReplicationLog log(100);
  log.start(0);
  for (std::uint64_t epoch = 1; epoch <= 8; ++epoch) {
    log.append(epoch, encodeReplFrame(arriveRecord(epoch, 0.3, 100)));
  }
  EXPECT_EQ(log.since(0, 3, 1 << 20).frames.size(), 3u);
  // A 1-byte budget still delivers the first frame (progress guarantee).
  EXPECT_EQ(log.since(0, 100, 1).frames.size(), 1u);
}

TEST(Replication, FollowerCatchesUpBitIdenticalAndStreamsIncrements) {
  Node primary(uniquePath("prim"), ReplRole::kPrimary);
  Client client("unix:" + primary.socket);
  std::vector<std::uint64_t> live;
  for (int i = 0; i < 12; ++i) {
    const Response response = client.arrive(0.1 + 0.05 * i, 128 + 64 * i);
    ASSERT_TRUE(response.ok) << response.error;
    live.push_back(static_cast<std::uint64_t>(response.number("id")));
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.depart(live[static_cast<std::size_t>(i) * 2]).ok);
  }

  ConcurrentTracker followerTracker(testPlatform());
  ReplicationState followerState;
  followerState.setRole(ReplRole::kFollower);
  followerState.log().start(0);
  followerTracker.attachReplicationLog(&followerState.log());
  ReplicationFollowerConfig config;
  config.primary = parseEndpoint("unix:" + primary.socket);
  ReplicationFollower follower(config, followerTracker, followerState);
  follower.start();

  ASSERT_TRUE(eventually([&] {
    return followerTracker.slowdowns().epoch == primary.tracker.slowdowns().epoch;
  }));
  expectTrackersMatch(followerTracker, primary.tracker);
  EXPECT_EQ(followerState.lagRecords(), 0u);
  EXPECT_EQ(follower.snapshotCatchups(), 0u);
  EXPECT_GE(follower.appliedRecords(), 16u);

  // Increments stream while the follower is live.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.arrive(0.8 - 0.1 * i, 4096 + i).ok);
  }
  ASSERT_TRUE(eventually([&] {
    return followerTracker.slowdowns().epoch == primary.tracker.slowdowns().epoch;
  }));
  expectTrackersMatch(followerTracker, primary.tracker);

  // The primary learned the follower's progress through ACKs.
  EXPECT_TRUE(eventually([&] {
    return primary.repl->ackedEpoch() == primary.tracker.slowdowns().epoch;
  }));
  follower.stop();
}

TEST(Replication, ColdFollowerSeedsFromSnapshotWhenLogCompacted) {
  // Log capacity 8 with 40 pre-follower mutations: epoch 1..32 are gone, so
  // the follower's SINCE 0 must answer snapshot_needed and the follower must
  // seed itself from the chunked snapshot image before streaming the tail.
  Node primary(uniquePath("prim"), ReplRole::kPrimary, 64, 8);
  Client client("unix:" + primary.socket);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.arrive(0.1 + 0.02 * i, 100 + 32 * i).ok);
  }

  ConcurrentTracker followerTracker(testPlatform());
  ReplicationState followerState;
  followerState.setRole(ReplRole::kFollower);
  followerState.log().start(0);
  followerTracker.attachReplicationLog(&followerState.log());
  ReplicationFollowerConfig config;
  config.primary = parseEndpoint("unix:" + primary.socket);
  ReplicationFollower follower(config, followerTracker, followerState);
  follower.start();

  ASSERT_TRUE(eventually([&] {
    return followerTracker.slowdowns().epoch == primary.tracker.slowdowns().epoch;
  }));
  EXPECT_GE(follower.snapshotCatchups(), 1u);
  expectTrackersMatch(followerTracker, primary.tracker);

  // Post-snapshot mutations stream normally.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.arrive(0.9, 8192 + i).ok);
  }
  ASSERT_TRUE(eventually([&] {
    return followerTracker.slowdowns().epoch == primary.tracker.slowdowns().epoch;
  }));
  expectTrackersMatch(followerTracker, primary.tracker);
  follower.stop();
}

TEST(Replication, LaggingFollowerRefusesReadsAndAllWrites) {
  Node node(uniquePath("fol"), ReplRole::kFollower, /*maxLag=*/4);
  Client client("unix:" + node.socket);

  node.repl->setLagRecords(5);  // beyond the threshold
  const Response predict = client.predict(probeTask());
  EXPECT_FALSE(predict.ok);
  EXPECT_EQ(predict.code, kErrNotCaughtUp);
  const Response slowdown = client.slowdown();
  EXPECT_FALSE(slowdown.ok);
  EXPECT_EQ(slowdown.code, kErrNotCaughtUp);
  const Response batch = client.predictBatch({probeTask()});
  EXPECT_FALSE(batch.ok);
  EXPECT_EQ(batch.code, kErrNotCaughtUp);

  // Mutations are refused regardless of lag — a follower is read-only.
  const Response arrive = client.arrive(0.5, 512);
  EXPECT_FALSE(arrive.ok);
  EXPECT_EQ(arrive.code, kErrReadOnly);
  const Response depart = client.depart(1);
  EXPECT_FALSE(depart.ok);
  EXPECT_EQ(depart.code, kErrReadOnly);
  const Response apply = client.calibrateApply();
  EXPECT_FALSE(apply.ok);
  EXPECT_EQ(apply.code, kErrReadOnly);
  EXPECT_TRUE(client.calibrateReport().ok);  // reports stay readable

  // Control-plane reads always answer, with the lag visible.
  const Response stats = client.stats();
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(*stats.find("repl_role"), "follower");
  EXPECT_EQ(*stats.find("repl_lag_records"), "5");
  const Response health = client.health();
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(*health.find("repl_role"), "follower");
  EXPECT_EQ(*health.find("repl_lag_records"), "5");

  // Back under the threshold, reads flow again.
  node.repl->setLagRecords(4);
  EXPECT_TRUE(client.predict(probeTask()).ok);
  EXPECT_TRUE(client.slowdown().ok);
}

TEST(Replication, StandaloneDaemonReportsStandaloneReplFields) {
  Node node(uniquePath("solo"));
  Client client("unix:" + node.socket);
  const Response stats = client.stats();
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(*stats.find("repl_role"), "standalone");
  EXPECT_EQ(*stats.find("repl_lag_records"), "0");
  const Response status = client.replStatus();
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(*status.find("role"), "standalone");
  EXPECT_EQ(*status.find("caught_up"), "1");
  // Standalone daemons have no log to stream from.
  Request since;
  since.verb = Verb::kRepl;
  since.repl = ReplAction::kSince;
  const Response refused = client.call(since);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, kErrInvalidArgument);
}

TEST(Replication, PrimaryServesSinceFramesOverTheWire) {
  Node primary(uniquePath("prim"), ReplRole::kPrimary);
  Client client("unix:" + primary.socket);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.arrive(0.2 + 0.1 * i, 256).ok);
  }
  const Response hello = client.replHello();
  ASSERT_TRUE(hello.ok) << hello.error;
  EXPECT_EQ(*hello.find("role"), "primary");
  EXPECT_EQ(*hello.find("epoch"), "5");

  Request since;
  since.verb = Verb::kRepl;
  since.repl = ReplAction::kSince;
  since.replEpoch = 2;
  const Response batch = client.call(since);
  ASSERT_TRUE(batch.ok) << batch.error;
  EXPECT_EQ(*batch.find("count"), "3");
  for (int i = 0; i < 3; ++i) {
    const std::string* frame =
        batch.find("frame." + std::to_string(i));
    ASSERT_NE(frame, nullptr);
    const auto record = decodeReplFrame(*frame);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->epoch, static_cast<std::uint64_t>(3 + i));
  }
}

TEST(Replication, PromoteFlipsFollowerToWritablePrimary) {
  Node primary(uniquePath("prim"), ReplRole::kPrimary);
  Node follower(uniquePath("fol"), ReplRole::kFollower);
  ReplicationFollowerConfig config;
  config.primary = parseEndpoint("unix:" + primary.socket);
  ReplicationFollower apply(config, follower.tracker, *follower.repl);
  apply.start();

  Client primaryClient("unix:" + primary.socket);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(primaryClient.arrive(0.3 + 0.05 * i, 512 + i).ok);
  }
  ASSERT_TRUE(eventually([&] {
    return follower.tracker.slowdowns().epoch ==
           primary.tracker.slowdowns().epoch;
  }));

  Client followerClient("unix:" + follower.socket);
  const Response promoted = followerClient.replPromote();
  ASSERT_TRUE(promoted.ok) << promoted.error;
  EXPECT_EQ(*promoted.find("role"), "primary");
  // Idempotent: promoting a primary answers the same role.
  const Response again = followerClient.replPromote();
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(*again.find("role"), "primary");

  // Writable now, and the epoch/id sequence continues without a gap.
  const Response arrive = followerClient.arrive(0.9, 4096);
  ASSERT_TRUE(arrive.ok) << arrive.error;
  EXPECT_EQ(arrive.number("epoch"), 9.0);
  EXPECT_EQ(*arrive.find("id"), "9");

  // The promoted node's log held the replicated tail, so it can feed the
  // next follower generation without a snapshot.
  Request since;
  since.verb = Verb::kRepl;
  since.repl = ReplAction::kSince;
  const Response batch = followerClient.call(since);
  ASSERT_TRUE(batch.ok) << batch.error;
  EXPECT_EQ(*batch.find("count"), "9");
  // The apply loop notices the role flip and stops on its own.
  apply.stop();
}

TEST(Replication, FollowerRidesThroughInjectedConnectFailures) {
  Node primary(uniquePath("prim"), ReplRole::kPrimary);
  Client client("unix:" + primary.socket);  // connects before hooks install
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.arrive(0.25 + 0.1 * i, 300 + i).ok);
  }

  std::atomic<int> failuresLeft{3};
  std::atomic<int> injected{0};
  SyscallHooks hooks;
  hooks.connect = [&](int fd, const struct sockaddr* addr, socklen_t len) {
    if (failuresLeft.fetch_sub(1) > 0) {
      ++injected;
      errno = ECONNREFUSED;
      return -1;
    }
    return ::connect(fd, addr, len);
  };
  installSyscallHooks(&hooks);

  ConcurrentTracker followerTracker(testPlatform());
  ReplicationState followerState;
  followerState.setRole(ReplRole::kFollower);
  followerState.log().start(0);
  followerTracker.attachReplicationLog(&followerState.log());
  ReplicationFollowerConfig config;
  config.primary = parseEndpoint("unix:" + primary.socket);
  ReplicationFollower follower(config, followerTracker, followerState);
  follower.start();

  EXPECT_TRUE(eventually([&] {
    return followerTracker.slowdowns().epoch ==
           primary.tracker.slowdowns().epoch;
  }));
  follower.stop();
  installSyscallHooks(nullptr);
  EXPECT_EQ(injected.load(), 3);
  expectTrackersMatch(followerTracker, primary.tracker);
}

/// Accepts connections and closes them immediately — the shape of a shard
/// whose primary's listener is up but whose process dies mid-conversation.
class CloseOnAccept {
 public:
  explicit CloseOnAccept(const std::string& socketPath) : path_(socketPath) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(socketPath.c_str());
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 8) != 0) {
      ADD_FAILURE() << "CloseOnAccept setup failed: " << std::strerror(errno);
    }
    thread_ = std::thread([this] {
      while (true) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) return;  // listener closed: stop
        ::close(conn);
      }
    });
  }
  ~CloseOnAccept() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
    ::unlink(path_.c_str());
  }

 private:
  std::string path_;
  int fd_ = -1;
  std::thread thread_;
};

ClusterTopology twoShardTopology(const std::string& a, const std::string& b) {
  ClusterTopology topology;
  topology.shards.resize(2);
  topology.shards[0].primary = "unix:" + a;
  topology.shards[1].primary = "unix:" + b;
  return topology;
}

/// A task whose pricing key lands on `wantShard` of the client's ring.
tools::TaskSpec taskForShard(const ClusterClient& client, int wantShard) {
  tools::TaskSpec task = probeTask();
  for (int i = 0; i < 100000; ++i) {
    task.frontEndSec = 1.0 + 0.001 * i;
    task.name = "t" + std::to_string(wantShard);
    if (client.shardForTask(task) == wantShard) return task;
  }
  ADD_FAILURE() << "no key found for shard " << wantShard;
  return task;
}

TEST(ClusterClient, RoutesMutationsAndRemembersIdOwnership) {
  Node shard0(uniquePath("cc0"));
  Node shard1(uniquePath("cc1"));
  ClusterClient cluster(twoShardTopology(shard0.socket, shard1.socket));

  std::vector<std::pair<std::uint64_t, int>> ids;  // (id, owning shard)
  for (int i = 0; i < 16; ++i) {
    model::CompetingApp app;
    app.commFraction = 0.1 + 0.05 * i;
    app.messageWords = 100 + 37 * i;
    const Response response =
        cluster.arrive(app.commFraction, app.messageWords);
    ASSERT_TRUE(response.ok) << response.error;
    ids.emplace_back(static_cast<std::uint64_t>(response.number("id")),
                     cluster.shardForApp(app));
  }
  // Both shards took a slice of the keyspace.
  const std::uint64_t epoch0 = shard0.tracker.slowdowns().epoch;
  const std::uint64_t epoch1 = shard1.tracker.slowdowns().epoch;
  EXPECT_EQ(epoch0 + epoch1, 16u);
  EXPECT_GT(epoch0, 0u);
  EXPECT_GT(epoch1, 0u);

  // Per-shard id sequences collide (both shards assigned an id 1), so the
  // single-arg depart must refuse the ambiguous id rather than guess.
  EXPECT_THROW((void)cluster.depart(1), std::invalid_argument);

  // Disambiguated departs land on the shard that assigned each id.
  for (const auto& [id, shard] : ids) {
    const Response response = cluster.depart(id, shard);
    ASSERT_TRUE(response.ok) << response.error;
  }
  EXPECT_EQ(shard0.tracker.slowdowns().active, 0u);
  EXPECT_EQ(shard1.tracker.slowdowns().active, 0u);
  EXPECT_THROW((void)cluster.depart(999999), std::invalid_argument);
  EXPECT_EQ(cluster.failovers(), 0u);
}

TEST(ClusterClient, PredictBatchMergesInCallerOrderBitIdentical) {
  Node shard0(uniquePath("cc0"));
  Node shard1(uniquePath("cc1"));
  ClusterClient cluster(twoShardTopology(shard0.socket, shard1.socket));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.arrive(0.2 + 0.1 * i, 200 + 81 * i).ok);
  }

  // Interleave tasks owned by both shards.
  std::vector<tools::TaskSpec> tasks;
  for (int i = 0; i < 6; ++i) {
    tools::TaskSpec task = taskForShard(cluster, i % 2);
    task.name = "task" + std::to_string(i);
    tasks.push_back(task);
  }
  const Response merged = cluster.predictBatch(tasks);
  ASSERT_TRUE(merged.ok) << merged.error;
  EXPECT_EQ(*merged.find("count"), "6");
  ASSERT_NE(merged.find("epoch.shard0"), nullptr);
  ASSERT_NE(merged.find("epoch.shard1"), nullptr);

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::string suffix = '.' + std::to_string(i);
    EXPECT_EQ(*merged.find("name" + suffix), tasks[i].name);
    EXPECT_EQ(merged.number("shard" + suffix),
              static_cast<double>(cluster.shardForTask(tasks[i])));
    // Bit-identical to a direct single-task PREDICT against the same shard.
    const Response direct = cluster.predict(tasks[i]);
    ASSERT_TRUE(direct.ok) << direct.error;
    EXPECT_EQ(bits(merged.number("front" + suffix)),
              bits(direct.number("front")));
    EXPECT_EQ(bits(merged.number("remote" + suffix)),
              bits(direct.number("remote")));
    EXPECT_EQ(*merged.find("decision" + suffix), *direct.find("decision"));
  }
}

TEST(ClusterClient, FailsOverToFollowerWhenPrimaryIsDown) {
  const std::string deadPath = uniquePath("dead");  // nothing listens here
  Node follower(uniquePath("fol"));
  ClusterTopology topology;
  topology.shards.resize(1);
  topology.shards[0].primary = "unix:" + deadPath;
  topology.shards[0].followers = {"unix:" + follower.socket};
  ClusterClient cluster(topology);

  const Response response = cluster.slowdownShard(0);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_GE(cluster.failovers(), 1u);
  // Subsequent calls stick to the live endpoint without re-failing-over.
  const std::uint64_t failovers = cluster.failovers();
  ASSERT_TRUE(cluster.slowdownShard(0).ok);
  EXPECT_EQ(cluster.failovers(), failovers);
}

TEST(ClusterClient, ScatterGatherReplaysOnlyTheFailedShardExactlyOnce) {
  // Shard 1's primary accepts and drops the connection, so its sub-batch
  // fails over to its follower mid-PREDICT_BATCH. The pin: shards 0 and 2
  // answered before/independently and must see their sub-batch exactly once
  // — an at-least-once replay that re-scattered the whole batch would bump
  // their PREDICT_BATCH counters to 2.
  Node shard0(uniquePath("sg0"));
  const std::string flakyPath = uniquePath("sg1flaky");
  CloseOnAccept flaky(flakyPath);
  Node shard1Follower(uniquePath("sg1fol"));
  Node shard2(uniquePath("sg2"));

  ClusterTopology topology;
  topology.shards.resize(3);
  topology.shards[0].primary = "unix:" + shard0.socket;
  topology.shards[1].primary = "unix:" + flakyPath;
  topology.shards[1].followers = {"unix:" + shard1Follower.socket};
  topology.shards[2].primary = "unix:" + shard2.socket;
  ClusterClient cluster(topology);

  std::vector<tools::TaskSpec> tasks;
  for (int i = 0; i < 9; ++i) {
    tools::TaskSpec task = taskForShard(cluster, i % 3);
    task.name = "task" + std::to_string(i);
    tasks.push_back(task);
  }
  const Response merged = cluster.predictBatch(tasks);
  ASSERT_TRUE(merged.ok) << merged.error;
  EXPECT_EQ(*merged.find("count"), "9");
  EXPECT_GE(cluster.failovers(), 1u);

  const auto batchCount = [](const Node& node) {
    return node.metrics.snapshot()
        .requestsByVerb[static_cast<std::size_t>(Verb::kPredictBatch)];
  };
  EXPECT_EQ(batchCount(shard0), 1u);
  EXPECT_EQ(batchCount(shard2), 1u);
  EXPECT_EQ(batchCount(shard1Follower), 1u);
  // Every task still answered, including shard 1's, through the follower.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ASSERT_NE(merged.find("decision." + std::to_string(i)), nullptr);
  }
}

}  // namespace
}  // namespace contend::serve
