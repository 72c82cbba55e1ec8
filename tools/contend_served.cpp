// contend_served — the contention-advisory daemon.
//
// Usage:
//   contend_served <profile.txt> [--listen <endpoint>] [--workers N]
//                  [--queue N] [--timeout-ms N] [--deadline-ms N]
//                  [--loop-threads N] [--backlog N] [--cache N]
//                  [--journal <path>] [--snapshot-every N]
//                  [--fsync always|interval|off]
//                  [--slow-request-us N]
//                  [--cluster <topology> --shard-id K [--replica R]
//                   [--repl-max-lag N]]
//
// Loads a calibrated platform profile (see `contend_predict --calibrate`)
// and serves the Paragon-style slowdown models over a line protocol (see
// docs/SERVING.md). Endpoints: `unix:/path/to.sock` (default
// unix:/tmp/contend.sock) or `tcp:[host:]port`. SIGTERM/SIGINT drain
// gracefully: requests already received are answered, then the process
// exits 0.
//
// With --journal, every ARRIVE/DEPART is appended to a write-ahead journal
// and the tracker state is rebuilt from it on startup, so a crash resumes
// at the exact pre-crash epoch (docs/SERVING.md, "Durability & recovery").
//
// With --cluster, the daemon is one replica of one shard of a static ring
// (docs/SERVING.md, "Clustering & replication"): --shard-id picks the shard,
// --replica the replica within it (0 = primary, R >= 1 = the R-th declared
// follower), and the listen endpoint comes from the topology file (--listen
// is rejected to keep one source of truth). A follower pulls the primary's
// journal stream and serves reads only while caught up (--repl-max-lag).
#include <csignal>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "calib/profile_io.hpp"
#include "serve/concurrent_tracker.hpp"
#include "serve/journal.hpp"
#include "serve/metrics.hpp"
#include "serve/replication.hpp"
#include "serve/ring.hpp"
#include "serve/server.hpp"

using namespace contend;

namespace {

serve::Server* gServer = nullptr;

void onSignal(int) {
  if (gServer != nullptr) gServer->requestStop();  // async-signal-safe
}

[[noreturn]] void usage() {
  std::cerr << "usage: contend_served <profile.txt> [--listen <endpoint>]\n"
               "                      [--workers N] [--queue N]\n"
               "                      [--timeout-ms N] [--deadline-ms N]\n"
               "                      [--loop-threads N] [--backlog N]\n"
               "                      [--cache N] [--journal <path>]\n"
               "                      [--snapshot-every N]\n"
               "                      [--fsync always|interval|off]\n"
               "                      [--slow-request-us N]\n"
               "endpoints: unix:/path/to.sock | tcp:[host:]port\n"
               "--deadline-ms is the wall-clock budget per request\n"
               "  (guards against slow-loris clients; 0 disables)\n"
               "--workers + --queue is the admission cap: live connections\n"
               "  past it are answered ERR overloaded and closed\n"
               "--loop-threads sets the event-loop count (default 1, the\n"
               "  least CPU per request; more loops help only with many\n"
               "  clients); --backlog the listen(2) queue length\n"
               "--journal enables the write-ahead journal (crash recovery);\n"
               "  --snapshot-every sets records between compacting snapshots\n"
               "  (0 disables snapshots), --fsync picks the durability mode\n"
               "--slow-request-us logs one stderr line per request at least\n"
               "  that slow and counts it in METRICS/STATS (0 disables)\n"
               "--cluster joins a static ring declared in <topology>;\n"
               "  --shard-id picks the shard, --replica the replica in it\n"
               "  (0 = primary, R >= 1 = the R-th follower; default 0) and\n"
               "  --repl-max-lag the records a follower may lag while still\n"
               "  serving reads (default 64)\n";
  std::exit(2);
}

long parseCount(const char* text, const char* flag, long minValue = 1) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < minValue) {
    std::cerr << "error: " << flag << " expects an integer >= " << minValue
              << ", got '" << text << "'\n";
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string profilePath = argv[1];
  serve::ServerConfig config;
  config.endpoint = serve::parseEndpoint("unix:/tmp/contend.sock");
  std::size_t cacheCapacity = 4096;
  serve::JournalConfig journalConfig;  // path stays empty unless --journal
  std::string clusterPath;
  int shardId = -1;
  int replica = 0;
  std::uint64_t replMaxLag = 64;
  bool listenGiven = false;

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    try {
      if (flag == "--listen") {
        config.endpoint = serve::parseEndpoint(value);
        listenGiven = true;
      } else if (flag == "--cluster") {
        clusterPath = value;
      } else if (flag == "--shard-id") {
        shardId = static_cast<int>(parseCount(value, "--shard-id", 0));
      } else if (flag == "--replica") {
        replica = static_cast<int>(parseCount(value, "--replica", 0));
      } else if (flag == "--repl-max-lag") {
        replMaxLag =
            static_cast<std::uint64_t>(parseCount(value, "--repl-max-lag", 0));
      } else if (flag == "--workers") {
        config.workers = static_cast<int>(parseCount(value, "--workers"));
      } else if (flag == "--queue") {
        config.queueCapacity =
            static_cast<std::size_t>(parseCount(value, "--queue"));
      } else if (flag == "--timeout-ms") {
        config.requestTimeoutMs =
            static_cast<int>(parseCount(value, "--timeout-ms"));
      } else if (flag == "--deadline-ms") {
        config.requestDeadlineMs =
            static_cast<int>(parseCount(value, "--deadline-ms", 0));
      } else if (flag == "--loop-threads") {
        config.loopThreads =
            static_cast<int>(parseCount(value, "--loop-threads"));
      } else if (flag == "--backlog") {
        config.backlog = static_cast<int>(parseCount(value, "--backlog"));
      } else if (flag == "--cache") {
        cacheCapacity = static_cast<std::size_t>(parseCount(value, "--cache"));
      } else if (flag == "--journal") {
        journalConfig.path = value;
      } else if (flag == "--slow-request-us") {
        config.slowRequestUs = static_cast<std::uint64_t>(
            parseCount(value, "--slow-request-us", 0));
      } else if (flag == "--snapshot-every") {
        journalConfig.snapshotEvery = static_cast<std::uint64_t>(
            parseCount(value, "--snapshot-every", 0));
      } else if (flag == "--fsync") {
        const auto policy = serve::fsyncPolicyFromName(value);
        if (!policy) {
          std::cerr << "error: --fsync expects always|interval|off, got '"
                    << value << "'\n";
          return 2;
        }
        journalConfig.fsync = *policy;
      } else {
        usage();
      }
    } catch (const std::invalid_argument& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 2;
    }
  }

  try {
    serve::ClusterTopology topology;
    std::string primarySpec;  // set when this daemon is a follower
    if (!clusterPath.empty()) {
      if (listenGiven) {
        std::cerr << "error: --listen conflicts with --cluster (the topology "
                     "file is the one source of endpoints)\n";
        return 2;
      }
      topology = serve::loadTopologyFile(clusterPath);
      if (shardId < 0 || shardId >= topology.shardCount()) {
        std::cerr << "error: --cluster requires --shard-id in [0, "
                  << topology.shardCount() << ")\n";
        return 2;
      }
      const std::vector<std::string> endpoints =
          serve::shardEndpoints(topology, shardId);
      if (static_cast<std::size_t>(replica) >= endpoints.size()) {
        std::cerr << "error: shard " << shardId << " declares "
                  << endpoints.size() - 1 << " follower(s); --replica "
                  << replica << " does not exist\n";
        return 2;
      }
      config.endpoint =
          serve::parseEndpoint(endpoints[static_cast<std::size_t>(replica)]);
      if (replica > 0) primarySpec = endpoints[0];
    } else if (shardId >= 0) {
      std::cerr << "error: --shard-id requires --cluster\n";
      return 2;
    }

    const calib::PlatformProfile profile =
        calib::loadProfileFile(profilePath);
    serve::ConcurrentTracker tracker(profile.paragon, cacheCapacity);

    std::unique_ptr<serve::Journal> journal;
    if (!journalConfig.path.empty()) {
      journal = std::make_unique<serve::Journal>(journalConfig);
      const serve::RecoveryReport report = tracker.recoverFromJournal(*journal);
      config.journal = journal.get();
      config.recovered = report.recovered;
      if (report.recovered) {
        std::cout << "contend_served: recovered epoch " << report.epoch
                  << " from '" << journalConfig.path << "' ("
                  << (report.snapshotLoaded ? "snapshot + " : "")
                  << report.replayedRecords << " replayed records";
        if (report.truncatedBytes > 0) {
          std::cout << ", " << report.truncatedBytes
                    << " torn tail bytes truncated";
        }
        std::cout << ")\n" << std::flush;
      }
    }

    // Clustered daemons attach the in-memory replication log before serving,
    // so the very first mutation is streamable; the log's floor is anchored
    // at whatever epoch journal recovery reached.
    std::unique_ptr<serve::ReplicationState> replication;
    std::unique_ptr<serve::ReplicationFollower> follower;
    if (!clusterPath.empty()) {
      replication = std::make_unique<serve::ReplicationState>(replMaxLag);
      replication->setRole(replica == 0 ? serve::ReplRole::kPrimary
                                        : serve::ReplRole::kFollower);
      replication->log().start(tracker.stats().epoch);
      tracker.attachReplicationLog(&replication->log());
      config.replication = replication.get();
      if (replica > 0) {
        serve::ReplicationFollowerConfig followerConfig;
        followerConfig.primary = serve::parseEndpoint(primarySpec);
        followerConfig.reconnect.maxAttempts = 2;
        follower = std::make_unique<serve::ReplicationFollower>(
            followerConfig, tracker, *replication);
      }
    }

    serve::Metrics metrics;
    serve::Server server(config, tracker, metrics);
    server.start();
    if (follower) follower->start();
    gServer = &server;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    std::cout << "contend_served: profile '" << profile.platformName
              << "', listening on "
              << serve::endpointToString(server.endpoint())
              << ", engine epoll (" << config.loopThreads << " loop threads)";
    if (replication) {
      std::cout << ", shard " << shardId << " "
                << serve::replRoleName(replication->role());
    }
    std::cout << "\n" << std::flush;
    server.wait();
    if (follower) follower->stop();
    gServer = nullptr;

    const serve::TrackerStats stats = tracker.stats();
    std::cout << "contend_served: drained after epoch " << stats.epoch
              << " (" << stats.arrivals << " arrivals, " << stats.departures
              << " departures, cache " << stats.cacheHits << " hits / "
              << stats.cacheMisses << " misses)\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
