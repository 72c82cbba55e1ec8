// serve_throughput — closed-loop benchmark of the contend-serve daemon.
//
// Spins up an in-process Server on a Unix socket, registers a fixed
// competing mix, then hammers the daemon from N concurrent client
// connections (closed loop: each client issues the next request as soon as
// the previous response lands). By default every request is a PREDICT
// against an unchanged mix, so everything after the first request rides the
// prediction cache — this measures the serving hot path, not the model.
// `--write-ratio` mixes in ARRIVE/DEPART pairs to exercise the read path
// *under mutation* (the mix signature churns and recurs), and `--batch`
// switches the readers to batched PREDICT so protocol overhead amortizes.
//
// `--scenario <file.scn>` replaces the synthetic mix with traffic derived
// from a scenario's task classes: each client replays one class's arrival
// schedule (fixed / poisson / burst, from the class seed), every arrival
// issuing an ARRIVE(comm fraction, message words) + a PREDICT batch sized by
// the class's SLA tier (SLA0→1, SLA1→4, SLA2→16, SLA3→64) + a DEPART — so
// verb mix, pacing, and batch sizes all come from the scenario file, and the
// schedule wraps cyclically until the measurement window closes. The
// scenario name is recorded in the JSON record.
//
// `--trace <file.trace>` instead derives the traffic from a replayable job
// trace (trace/job_trace.hpp): every job becomes one stream whose single
// arrival offset is the job's trace arrival time, the ARRIVE carries the
// job's comm *and I/O* shape (§4 io suffix on the wire), and the PREDICTs
// price the job's own task spec via the shared tools::traceTaskSpec mapping
// — so the bench and contend_tracegen agree byte-for-byte on what a trace
// means. The replay wraps after the last arrival + 1s. Composes with
// --journal (I/O-bearing ARRIVEs land in the write-ahead journal); mutually
// exclusive with --scenario and --cluster.
//
// Usage: serve_throughput [--seconds S] [--warmup S] [--clients N]
//                         [--workers N] [--loop-threads N]
//                         [--write-ratio F] [--batch N]
//                         [--scenario <file.scn>] [--min-rps R]
//                         [--json <path>]
//                         [--journal <path>] [--fsync always|interval|off]
//                         [--nojournal-rps R] [--ring-rps R]
// Exits non-zero when --min-rps is given and the measured rate is below it
// (used as the acceptance gate). --json writes a machine-readable
// BENCH_serve.json-style record so the perf trajectory is diffable across
// PRs; --baseline-rps embeds a reference number (e.g. the pre-RCU mutex
// build) and the computed speedup in that record. --journal runs the bench
// with the write-ahead journal enabled (--fsync picks the durability
// mode); --nojournal-rps embeds the journal-less reference rate and the
// relative overhead in the JSON record. --ring-rps embeds the rate measured
// by the old sampled-latency-ring build and the relative overhead of the
// per-verb histograms that replaced it (acceptance bar: < 2%).
// --loop-threads sizes the server's event-loop ring.
// `--cluster <topology>` boots every replica of the topology in-process
// (followers replicating live), drives topology-aware ClusterClients
// instead of single-socket clients, and reports aggregate + per-shard
// rates; --single-rps embeds the single-node reference rate and the
// cluster speedup in the JSON record's cluster_baseline block.
// Latency percentiles come from the server's merged log-scale histograms
// (STATS p50/p90/p99/p999), not from client-side sorted vectors.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/cluster_client.hpp"
#include "serve/concurrent_tracker.hpp"
#include "serve/journal.hpp"
#include "serve/metrics.hpp"
#include "serve/replication.hpp"
#include "serve/ring.hpp"
#include "serve/server.hpp"
#include "tools/trace_schedule.hpp"
#include "trace/job_trace.hpp"
#include "util/table.hpp"

using namespace contend;

namespace {

/// Synthetic-but-valid delay tables; the bench measures serving overhead,
/// not calibration, so there is no need to run the system test suite.
model::ParagonPlatformModel benchPlatform(int maxContenders) {
  model::ParagonPlatformModel platform;
  platform.toBackend.small = {0.0005, 2.0e6};
  platform.toBackend.large = {0.0010, 3.0e6};
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

tools::TaskSpec benchTask() {
  tools::TaskSpec task;
  task.name = "solver";
  task.frontEndSec = 8.0;
  task.backEndSec = 1.5;
  task.toBackend.push_back({512, 512});
  task.fromBackend.push_back({512, 512});
  return task;
}

std::string jsonNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

struct BenchConfig {
  double seconds = 2.0;
  double warmup = 0.0;
  int clients = 8;
  int workers = 8;
  int loopThreads = 1;
  double writeRatio = 0.0;
  int batch = 1;
  double minRps = 0.0;
  double baselineRps = 0.0;
  std::string jsonPath;
  std::string journalPath;
  serve::FsyncPolicy fsync = serve::FsyncPolicy::kOff;
  double nojournalRps = 0.0;
  double ringRps = 0.0;
  std::string scenarioPath;
  std::string scenarioName;  // filled after parsing
  std::string tracePath;
  std::string traceName;  // filled after parsing
  std::string clusterPath;
  double singleRps = 0.0;
};

/// One client's scenario-derived traffic stream: the class's arrival offsets
/// within [0, windowSec), replayed cyclically, plus the request shapes.
struct StreamPlan {
  std::string className;
  double commFraction = 0.0;
  Words messageWords = 0;
  double ioFraction = 0.0;     // disk share the ARRIVE advertises (trace mode)
  std::int64_t ioOps = 0;
  std::vector<double> offsets;
  double windowSec = 1.0;
  std::vector<tools::TaskSpec> batch;
};

int batchForTier(contend::scenario::SlaTier tier) {
  switch (tier) {
    case contend::scenario::SlaTier::kSla0: return 1;
    case contend::scenario::SlaTier::kSla1: return 4;
    case contend::scenario::SlaTier::kSla2: return 16;
    case contend::scenario::SlaTier::kSla3: return 64;
  }
  return 1;
}

std::vector<StreamPlan> buildStreamPlans(
    const contend::scenario::Scenario& scenario) {
  std::vector<StreamPlan> plans;
  for (const contend::scenario::TaskClass& taskClass : scenario.taskClasses) {
    StreamPlan plan;
    plan.className = taskClass.name;
    plan.commFraction = taskClass.commFraction;
    plan.messageWords = taskClass.messageWords;
    plan.windowSec = taskClass.endSec;
    contend::scenario::ArrivalSequence arrivals(taskClass);
    while (const auto at = arrivals.next()) {
      plan.offsets.push_back(*at);
      if (plan.offsets.size() >= 200'000) break;  // bound replay memory
    }
    if (plan.offsets.empty()) plan.offsets.push_back(taskClass.startSec);
    tools::TaskSpec task;
    task.name = taskClass.name;
    task.frontEndSec = taskClass.runtimeSec * (1.0 - taskClass.commFraction);
    task.backEndSec = taskClass.runtimeSec * taskClass.commFraction;
    if (taskClass.messageWords > 0) {
      task.toBackend.push_back({1, taskClass.messageWords});
      task.fromBackend.push_back({1, taskClass.messageWords});
    }
    plan.batch.assign(static_cast<std::size_t>(batchForTier(taskClass.sla)),
                      task);
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// Trace mode: one stream per trace job. The stream fires once per window at
/// the job's own arrival offset, the window spanning the whole trace (last
/// arrival + 1s) so cyclic replay preserves relative spacing. ARRIVE shape
/// and PREDICT task both come from tools::trace_schedule, the same mapping
/// contend_tracegen serializes.
std::vector<StreamPlan> buildTracePlans(
    const std::vector<trace::JobProfile>& jobs) {
  double window = 0.0;
  for (const trace::JobProfile& job : jobs) {
    window = std::max(window, job.arriveSec);
  }
  window += 1.0;
  std::vector<StreamPlan> plans;
  plans.reserve(jobs.size());
  for (const trace::JobProfile& job : jobs) {
    StreamPlan plan;
    plan.className = job.className.empty() ? job.name : job.className;
    plan.commFraction = job.commFraction;
    plan.messageWords = job.messageWords;
    plan.ioFraction = job.ioFraction;
    plan.ioOps = job.ioOps;
    plan.offsets.push_back(job.arriveSec);
    plan.windowSec = window;
    plan.batch.assign(4, tools::traceTaskSpec(job));
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// One in-process replica of the benched ring: primaries take routed
/// traffic, followers replicate their shard's journal stream live, so the
/// measured rate includes the cost of feeding REPL SINCE/ACK polls.
struct BenchReplica {
  BenchReplica(const std::string& endpointSpec, serve::ReplRole role,
               const BenchConfig& config, int maxContenders)
      : tracker(benchPlatform(maxContenders)) {
    repl.setRole(role);
    repl.log().start(0);
    tracker.attachReplicationLog(&repl.log());
    serve::ServerConfig serverConfig;
    serverConfig.endpoint = serve::parseEndpoint(endpointSpec);
    serverConfig.workers = config.workers;
    serverConfig.loopThreads = config.loopThreads;
    serverConfig.queueCapacity = static_cast<std::size_t>(config.clients) * 4;
    serverConfig.replication = &repl;
    server = std::make_unique<serve::Server>(serverConfig, tracker, metrics);
    server->start();
  }
  ~BenchReplica() {
    if (follower) follower->stop();
    server->stop();
  }

  serve::ConcurrentTracker tracker;
  serve::ReplicationState repl;
  serve::Metrics metrics;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::ReplicationFollower> follower;
};

std::uint64_t servedRequests(const serve::Metrics& metrics) {
  return metrics.snapshot().requestsTotal;
}

int runClusterBench(const BenchConfig& config) {
  serve::ClusterTopology topology;
  try {
    topology = serve::loadTopologyFile(config.clusterPath);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
  const int shards = topology.shardCount();

  // Boot the whole ring in-process: every replica of every shard, with
  // followers streaming from their shard's primary for the entire run.
  std::vector<std::vector<std::unique_ptr<BenchReplica>>> ring(
      static_cast<std::size_t>(shards));
  try {
    for (int s = 0; s < shards; ++s) {
      const std::vector<std::string> endpoints =
          serve::shardEndpoints(topology, s);
      for (std::size_t r = 0; r < endpoints.size(); ++r) {
        auto replica = std::make_unique<BenchReplica>(
            endpoints[r],
            r == 0 ? serve::ReplRole::kPrimary : serve::ReplRole::kFollower,
            config, config.clients + 8);
        if (r > 0) {
          serve::ReplicationFollowerConfig followerConfig;
          followerConfig.primary = serve::parseEndpoint(endpoints[0]);
          replica->follower = std::make_unique<serve::ReplicationFollower>(
              followerConfig, replica->tracker, replica->repl);
          replica->follower->start();
        }
        ring[static_cast<std::size_t>(s)].push_back(std::move(replica));
      }
    }
    // The same base mix on every shard, so each one prices a realistic,
    // cacheable signature rather than an empty platform.
    for (int s = 0; s < shards; ++s) {
      serve::Client setup(serve::shardEndpoints(topology, s)[0]);
      if (!setup.arrive(0.30, 800).ok || !setup.arrive(0.0, 0).ok) {
        std::cerr << "error: mix setup failed on shard " << s << "\n";
        return 1;
      }
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  // A spread of tasks whose pricing keys scatter across the ring; each
  // client cycles through them, so every shard takes routed read traffic.
  std::vector<tools::TaskSpec> tasks;
  {
    const serve::ConsistentHashRing router(shards);
    std::vector<int> perShard(static_cast<std::size_t>(shards), 0);
    tools::TaskSpec task = benchTask();
    for (int i = 0; tasks.size() < 16 && i < 100000; ++i) {
      task.frontEndSec = 2.0 + 0.001 * i;
      const int shard =
          router.shardFor(serve::taskRouteKey(task));
      // Take the first 16 overall but make sure no shard is left out.
      if (tasks.size() < 12 ||
          perShard[static_cast<std::size_t>(shard)] == 0) {
        tasks.push_back(task);
        ++perShard[static_cast<std::size_t>(shard)];
      }
    }
  }

  std::atomic<int> phase{config.warmup > 0.0 ? 0 : 1};
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(config.clients),
                                    0);
  std::vector<std::uint64_t> shardBase(static_cast<std::size_t>(shards), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(config.clients));
  for (int c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        serve::ClusterClient cluster(topology);
        std::mt19937 rng(7777u + static_cast<unsigned>(c));
        std::uniform_real_distribution<double> uniform(0.0, 1.0);
        std::uint64_t sent = 0;
        std::size_t next = static_cast<std::size_t>(c);
        int current;
        while ((current = phase.load(std::memory_order_relaxed)) != 2) {
          std::uint64_t requests = 0;
          if (config.writeRatio > 0.0 && uniform(rng) < config.writeRatio) {
            const double fraction = 0.15 + 0.5 * uniform(rng);
            const Words words = 200 + static_cast<Words>(600 * uniform(rng));
            model::CompetingApp app;
            app.commFraction = fraction;
            app.messageWords = words;
            const serve::Response arrived = cluster.arrive(fraction, words);
            if (!arrived.ok) break;
            const serve::Response departed = cluster.depart(
                static_cast<std::uint64_t>(arrived.number("id")),
                cluster.shardForApp(app));
            if (!departed.ok) break;
            requests = 2;
          } else if (config.batch > 1) {
            // Scatter-gather: one PREDICT_BATCH fanned across the ring.
            const serve::Response response = cluster.predictBatch(tasks);
            if (!response.ok) break;
            requests = tasks.size();
          } else {
            const serve::Response response =
                cluster.predict(tasks[next++ % tasks.size()]);
            if (!response.ok) break;
            requests = 1;
          }
          if (current == 1) sent += requests;
        }
        counts[static_cast<std::size_t>(c)] = sent;
      } catch (const std::exception& error) {
        std::cerr << "client " << c << ": " << error.what() << "\n";
      }
    });
  }
  if (config.warmup > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(config.warmup));
    phase.store(1, std::memory_order_relaxed);
  }
  for (int s = 0; s < shards; ++s) {
    shardBase[static_cast<std::size_t>(s)] =
        servedRequests(ring[static_cast<std::size_t>(s)][0]->metrics);
  }
  const auto begin = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(config.seconds));
  phase.store(2, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  std::uint64_t total = 0;
  for (const std::uint64_t count : counts) total += count;
  const double rps = static_cast<double>(total) / elapsed;
  // Per-shard rates come from each primary's own metrics and count wire
  // requests: a 16-task PREDICT_BATCH is one wire request on each shard it
  // scatters to, while the aggregate counts the 16 batch items — so under
  // --batch the breakdown is deliberately in a smaller unit than the total.
  std::vector<double> shardRps(static_cast<std::size_t>(shards), 0.0);
  for (int s = 0; s < shards; ++s) {
    const std::uint64_t served =
        servedRequests(ring[static_cast<std::size_t>(s)][0]->metrics) -
        shardBase[static_cast<std::size_t>(s)];
    shardRps[static_cast<std::size_t>(s)] =
        static_cast<double>(served) / elapsed;
  }

  TextTable table({"metric", "value"});
  table.addRow({"topology", config.clusterPath});
  table.addRow({"shards", std::to_string(shards)});
  table.addRow({"clients", std::to_string(config.clients)});
  table.addRow({"workers/shard", std::to_string(config.workers)});
  table.addRow({"write ratio", TextTable::num(config.writeRatio, 2)});
  table.addRow({"batch", std::to_string(config.batch)});
  table.addRow({"elapsed (s)", TextTable::num(elapsed, 3)});
  table.addRow({"requests", std::to_string(total)});
  table.addRow({"aggregate req/s", TextTable::num(rps, 0)});
  for (int s = 0; s < shards; ++s) {
    table.addRow({"shard " + std::to_string(s) + " wire req/s",
                  TextTable::num(shardRps[static_cast<std::size_t>(s)], 0)});
  }
  printTable("contend-serve cluster closed-loop throughput", table);

  if (!config.jsonPath.empty()) {
    std::ofstream out(config.jsonPath);
    if (!out) {
      std::cerr << "warning: cannot write " << config.jsonPath << "\n";
    } else {
      out << "{\n"
          << "  \"bench\": \"serve_throughput_cluster\",\n"
          << "  \"config\": {\n"
          << "    \"topology\": \"" << config.clusterPath << "\",\n"
          << "    \"shards\": " << shards << ",\n"
          << "    \"clients\": " << config.clients << ",\n"
          << "    \"workers\": " << config.workers << ",\n"
          << "    \"engine\": \"epoll\",\n"
          << "    \"seconds\": " << jsonNumber(config.seconds) << ",\n"
          << "    \"warmup\": " << jsonNumber(config.warmup) << ",\n"
          << "    \"write_ratio\": " << jsonNumber(config.writeRatio) << ",\n"
          << "    \"batch\": " << config.batch << "\n"
          << "  },\n"
          << "  \"results\": {\n"
          << "    \"elapsed_sec\": " << jsonNumber(elapsed) << ",\n"
          << "    \"requests\": " << total << ",\n"
          << "    \"aggregate_rps\": " << jsonNumber(rps) << ",\n"
          << "    \"shard_wire_rps\": [";
      for (int s = 0; s < shards; ++s) {
        out << (s == 0 ? "" : ", ")
            << jsonNumber(shardRps[static_cast<std::size_t>(s)]);
      }
      out << "]\n  }";
      if (config.singleRps > 0.0) {
        out << ",\n  \"cluster_baseline\": {\n"
            << "    \"single_node_rps\": " << jsonNumber(config.singleRps)
            << ",\n"
            << "    \"speedup\": " << jsonNumber(rps / config.singleRps)
            << "\n  }";
      }
      out << "\n}\n";
    }
  }
  if (config.minRps > 0.0 && rps < config.minRps) {
    std::cerr << "FAIL: " << rps << " req/s below required " << config.minRps
              << "\n";
    return 1;
  }
  return 0;
}

void writeJson(const BenchConfig& config, double elapsed, std::uint64_t total,
               double rps, const serve::Response& stats) {
  std::ofstream out(config.jsonPath);
  if (!out) {
    std::cerr << "warning: cannot write " << config.jsonPath << "\n";
    return;
  }
  out << "{\n"
      << "  \"bench\": \"serve_throughput\",\n"
      << "  \"config\": {\n"
      << "    \"clients\": " << config.clients << ",\n"
      << "    \"workers\": " << config.workers << ",\n"
      << "    \"engine\": \"epoll\",\n"
      << "    \"loop_threads\": " << config.loopThreads << ",\n"
      << "    \"seconds\": " << jsonNumber(config.seconds) << ",\n"
      << "    \"warmup\": " << jsonNumber(config.warmup) << ",\n"
      << "    \"write_ratio\": " << jsonNumber(config.writeRatio) << ",\n"
      << "    \"batch\": " << config.batch << ",\n"
      << "    \"scenario\": \""
      << (config.scenarioName.empty() ? "none" : config.scenarioName)
      << "\",\n"
      << "    \"trace\": \""
      << (config.traceName.empty() ? "none" : config.traceName) << "\",\n"
      << "    \"journal\": "
      << (config.journalPath.empty() ? "false" : "true") << ",\n"
      << "    \"fsync\": \"" << serve::fsyncPolicyName(config.fsync)
      << "\"\n"
      << "  },\n"
      << "  \"results\": {\n"
      << "    \"elapsed_sec\": " << jsonNumber(elapsed) << ",\n"
      << "    \"requests\": " << total << ",\n"
      << "    \"rps\": " << jsonNumber(rps);
  if (stats.ok) {
    out << ",\n    \"cache_hit_rate\": "
        << jsonNumber(stats.number("cache_hit_rate"))
        << ",\n    \"p50_us\": " << *stats.find("p50_us")
        << ",\n    \"p90_us\": " << *stats.find("p90_us")
        << ",\n    \"p99_us\": " << *stats.find("p99_us")
        << ",\n    \"p999_us\": " << *stats.find("p999_us");
    if (const std::string* epoch = stats.find("epoch")) {
      out << ",\n    \"epoch\": " << *epoch;
    }
  }
  out << "\n  }";
  if (config.baselineRps > 0.0) {
    out << ",\n  \"baseline\": {\n"
        << "    \"mutex_rps\": " << jsonNumber(config.baselineRps) << ",\n"
        << "    \"speedup\": " << jsonNumber(rps / config.baselineRps) << "\n"
        << "  }";
  }
  if (config.nojournalRps > 0.0) {
    // overhead < 0.05 is the acceptance bar: journaling with --fsync off
    // must stay within 5% of the journal-less rate.
    out << ",\n  \"journal_baseline\": {\n"
        << "    \"nojournal_rps\": " << jsonNumber(config.nojournalRps)
        << ",\n"
        << "    \"overhead\": "
        << jsonNumber(1.0 - rps / config.nojournalRps) << "\n"
        << "  }";
  }
  if (config.ringRps > 0.0) {
    // overhead < 0.02 is the acceptance bar: the per-verb histograms must
    // stay within 2% of the sampled-ring build they replaced.
    out << ",\n  \"histogram_baseline\": {\n"
        << "    \"ring_rps\": " << jsonNumber(config.ringRps) << ",\n"
        << "    \"overhead\": " << jsonNumber(1.0 - rps / config.ringRps)
        << "\n  }";
  }
  out << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seconds") config.seconds = std::atof(value);
    else if (flag == "--warmup") config.warmup = std::atof(value);
    else if (flag == "--clients") config.clients = std::atoi(value);
    else if (flag == "--workers") config.workers = std::atoi(value);
    else if (flag == "--loop-threads") config.loopThreads = std::atoi(value);
    else if (flag == "--write-ratio") config.writeRatio = std::atof(value);
    else if (flag == "--batch") config.batch = std::atoi(value);
    else if (flag == "--min-rps") config.minRps = std::atof(value);
    else if (flag == "--baseline-rps") config.baselineRps = std::atof(value);
    else if (flag == "--scenario") config.scenarioPath = value;
    else if (flag == "--trace") config.tracePath = value;
    else if (flag == "--cluster") config.clusterPath = value;
    else if (flag == "--single-rps") config.singleRps = std::atof(value);
    else if (flag == "--json") config.jsonPath = value;
    else if (flag == "--journal") config.journalPath = value;
    else if (flag == "--nojournal-rps") config.nojournalRps = std::atof(value);
    else if (flag == "--ring-rps") config.ringRps = std::atof(value);
    else if (flag == "--fsync") {
      const auto policy = serve::fsyncPolicyFromName(value);
      if (!policy) {
        std::cerr << "error: --fsync expects always|interval|off\n";
        return 2;
      }
      config.fsync = *policy;
    }
    else {
      std::cerr << "usage: serve_throughput [--seconds S] [--warmup S] "
                   "[--clients N] [--workers N] "
                   "[--loop-threads N] "
                   "[--write-ratio F] "
                   "[--batch N] [--scenario <file.scn>] "
                   "[--trace <file.trace>] "
                   "[--cluster <topology>] [--single-rps R] [--min-rps R] "
                   "[--baseline-rps R] [--json <path>] [--journal <path>] "
                   "[--fsync always|interval|off] [--nojournal-rps R] "
                   "[--ring-rps R]\n";
      return 2;
    }
  }
  if (config.seconds <= 0 || config.clients < 1 || config.workers < 1 ||
      config.loopThreads < 1 ||
      config.writeRatio < 0.0 || config.writeRatio > 1.0 ||
      config.batch < 1) {
    std::cerr << "error: bad arguments\n";
    return 2;
  }

  if (!config.clusterPath.empty()) {
    if (!config.scenarioPath.empty() || !config.tracePath.empty() ||
        !config.journalPath.empty()) {
      std::cerr << "error: --cluster composes with the traffic flags "
                   "(--write-ratio/--batch), not --scenario/--trace/"
                   "--journal\n";
      return 2;
    }
    return runClusterBench(config);
  }
  if (!config.scenarioPath.empty() && !config.tracePath.empty()) {
    std::cerr << "error: --scenario and --trace are mutually exclusive\n";
    return 2;
  }

  std::vector<StreamPlan> plans;
  if (!config.scenarioPath.empty()) {
    try {
      const contend::scenario::Scenario scenario =
          contend::scenario::parseScenarioFile(config.scenarioPath);
      config.scenarioName = scenario.name;
      plans = buildStreamPlans(scenario);
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 2;
    }
  } else if (!config.tracePath.empty()) {
    try {
      const trace::JobTrace parsed = trace::parseTraceFile(config.tracePath);
      config.traceName = parsed.name;
      plans = buildTracePlans(trace::profileTrace(parsed));
      if (plans.empty()) {
        std::cerr << "error: trace has no jobs\n";
        return 2;
      }
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 2;
    }
  }

  const std::string socketPath =
      "/tmp/contend_serve_bench_" + std::to_string(::getpid()) + ".sock";
  serve::ServerConfig serverConfig;
  serverConfig.endpoint = serve::parseEndpoint("unix:" + socketPath);
  serverConfig.workers = config.workers;
  serverConfig.loopThreads = config.loopThreads;
  serverConfig.queueCapacity = static_cast<std::size_t>(config.clients) * 4;

  // Two base apps plus at most one in-flight transient per writer client.
  serve::ConcurrentTracker tracker(benchPlatform(config.clients + 2));
  std::unique_ptr<serve::Journal> journal;
  serve::Metrics metrics;
  try {
    if (!config.journalPath.empty()) {
      serve::JournalConfig journalCfg;
      journalCfg.path = config.journalPath;
      journalCfg.fsync = config.fsync;
      journal = std::make_unique<serve::Journal>(journalCfg);
      (void)tracker.recoverFromJournal(*journal);
      serverConfig.journal = journal.get();
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  serve::Server server(serverConfig, tracker, metrics);
  try {
    server.start();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  // A fixed base mix: one chatty app, one CPU-bound app. Writer iterations
  // push a transient third app and pop it again, so the signature churns but
  // keeps *recurring* — the steady-state read mix stays cacheable.
  {
    serve::Client setup(serverConfig.endpoint);
    if (!setup.arrive(0.30, 800).ok || !setup.arrive(0.0, 0).ok) {
      std::cerr << "error: mix setup failed\n";
      return 1;
    }
  }

  const tools::TaskSpec task = benchTask();
  const std::vector<tools::TaskSpec> batchTasks(
      static_cast<std::size_t>(config.batch), task);
  // 0 = warming up (don't count), 1 = measuring, 2 = done.
  std::atomic<int> phase{config.warmup > 0.0 ? 0 : 1};
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(config.clients),
                                    0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(config.clients));
  for (int c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        serve::Client client(serverConfig.endpoint);
        if (!plans.empty()) {
          // Scenario mode: replay one class's arrival schedule (open loop),
          // each arrival an ARRIVE + tier-sized PREDICT + DEPART.
          const StreamPlan& plan =
              plans[static_cast<std::size_t>(c) % plans.size()];
          const auto start = std::chrono::steady_clock::now();
          std::size_t index = 0;
          double cycleSec = 0.0;
          std::uint64_t sent = 0;
          int current;
          while ((current = phase.load(std::memory_order_relaxed)) != 2) {
            const auto due =
                start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                cycleSec + plan.offsets[index]));
            // Sleep in short slices so shutdown never waits out a long gap.
            while (std::chrono::steady_clock::now() < due &&
                   phase.load(std::memory_order_relaxed) != 2) {
              std::this_thread::sleep_for(std::min<
                  std::chrono::steady_clock::duration>(
                  due - std::chrono::steady_clock::now(),
                  std::chrono::milliseconds(20)));
            }
            if (phase.load(std::memory_order_relaxed) == 2) break;
            // Trace-derived plans advertise their disk shape; the io-free
            // overload keeps the scenario-mode wire lines byte-identical to
            // what they were before the I/O extension.
            const serve::Response arrived =
                plan.ioFraction > 0.0
                    ? client.arrive(plan.commFraction, plan.messageWords,
                                    plan.ioFraction, plan.ioOps)
                    : client.arrive(plan.commFraction, plan.messageWords);
            if (!arrived.ok) break;
            const serve::Response predicted =
                plan.batch.size() > 1 ? client.predictBatch(plan.batch)
                                      : client.predict(plan.batch.front());
            if (!predicted.ok) break;
            const serve::Response departed = client.depart(
                static_cast<std::uint64_t>(arrived.number("id")));
            if (!departed.ok) break;
            if (current == 1) sent += 2 + plan.batch.size();
            if (++index == plan.offsets.size()) {
              index = 0;
              cycleSec += plan.windowSec;
            }
          }
          counts[static_cast<std::size_t>(c)] = sent;
          return;
        }
        std::mt19937 rng(7777u + static_cast<unsigned>(c));
        std::uniform_real_distribution<double> uniform(0.0, 1.0);
        std::uint64_t sent = 0;
        int current;
        while ((current = phase.load(std::memory_order_relaxed)) != 2) {
          std::uint64_t requests = 0;
          if (config.writeRatio > 0.0 && uniform(rng) < config.writeRatio) {
            // One write "iteration" is an arrive/depart pair: the mix
            // mutates twice and returns to the base signature.
            const serve::Response arrived = client.arrive(0.20, 400);
            if (!arrived.ok) break;
            const serve::Response departed = client.depart(
                static_cast<std::uint64_t>(arrived.number("id")));
            if (!departed.ok) break;
            requests = 2;
          } else if (config.batch > 1) {
            const serve::Response response = client.predictBatch(batchTasks);
            if (!response.ok) break;
            requests = static_cast<std::uint64_t>(config.batch);
          } else {
            const serve::Response response = client.predict(task);
            if (!response.ok) break;
            requests = 1;
          }
          if (current == 1) sent += requests;
        }
        counts[static_cast<std::size_t>(c)] = sent;
      } catch (const std::exception& error) {
        std::cerr << "client " << c << ": " << error.what() << "\n";
      }
    });
  }
  if (config.warmup > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(config.warmup));
    phase.store(1, std::memory_order_relaxed);
  }
  const auto begin = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(config.seconds));
  phase.store(2, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  serve::Response stats;
  {
    serve::Client reader(serverConfig.endpoint);
    stats = reader.stats();
  }
  server.stop();

  std::uint64_t total = 0;
  for (const std::uint64_t count : counts) total += count;
  const double rps = static_cast<double>(total) / elapsed;

  TextTable table({"metric", "value"});
  table.addRow({"clients", std::to_string(config.clients)});
  table.addRow({"workers", std::to_string(config.workers)});
  table.addRow({"loop threads", std::to_string(config.loopThreads)});
  table.addRow({"write ratio", TextTable::num(config.writeRatio, 2)});
  table.addRow({"batch", std::to_string(config.batch)});
  if (!config.scenarioName.empty()) {
    table.addRow({"scenario", config.scenarioName});
  }
  if (!config.traceName.empty()) {
    table.addRow({"trace", config.traceName});
  }
  table.addRow({"elapsed (s)", TextTable::num(elapsed, 3)});
  table.addRow({"requests", std::to_string(total)});
  table.addRow({"requests/sec", TextTable::num(rps, 0)});
  if (stats.ok) {
    table.addRow({"cache hit rate",
                  TextTable::num(stats.number("cache_hit_rate"), 4)});
    table.addRow({"p50 latency (us)", *stats.find("p50_us")});
    table.addRow({"p90 latency (us)", *stats.find("p90_us")});
    table.addRow({"p99 latency (us)", *stats.find("p99_us")});
    table.addRow({"p99.9 latency (us)", *stats.find("p999_us")});
  }
  printTable("contend-serve closed-loop throughput", table);

  if (!config.jsonPath.empty()) {
    writeJson(config, elapsed, total, rps, stats);
  }
  if (config.minRps > 0.0 && rps < config.minRps) {
    std::cerr << "FAIL: " << rps << " req/s below required " << config.minRps
              << "\n";
    return 1;
  }
  return 0;
}
