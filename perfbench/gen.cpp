// gen.cpp — seeded generator for every workload input. The same (workload,
// seed, seconds) always yields byte-identical files: all randomness comes
// from SplitMix64 streams derived from the seed, and every number is
// written with shortest round-trip formatting (no locale, no streams).
//
// Work is fixed per run, not per time window: request and pass counts are
// `seconds` times a per-workload quota sized so the reference build takes
// about `seconds` to do it. A faster build finishes sooner instead of doing
// more work, so it is never charged memory or set-up for extra work.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "calib/calibration.hpp"
#include "calib/profile_io.hpp"
#include "model/io_tables.hpp"
#include "perfbench.hpp"
#include "scenario/engine.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "trace/job_trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using contend::SplitMix64;
namespace model = contend::model;
namespace serve = contend::serve;
namespace tools = contend::tools;
namespace trace = contend::trace;

// Delay-table depth of the generated profile: deeper than any mix a
// workload builds (serve_churn's 96 residents plus its clients, and the
// scenario traffic replayed through one tracker in traced runs).
constexpr int kProfileDepth = 512;

// Per-second-of-run quotas (see the file comment).
constexpr std::uint64_t kHotRequestsPerSec = 70000;  // both connections
constexpr std::uint64_t kHotWarmup = 2000;           // per connection
constexpr std::uint64_t kChurnLoopsPerSec = 10000;    // both connections
constexpr std::uint64_t kChurnWarmupLoops = 200;     // per connection
constexpr int kChurnResidents = 96;
constexpr int kChurnHistoryPairs = 1400;  // journal replayed at start-up
constexpr int kBatchTasks = 16;
constexpr int kChurnBatchPool = 256;
constexpr double kWidePassesPerSec = 12;
constexpr int kWideTraceJobs = 1200;
constexpr std::size_t kCompanionJobs = 256;

std::string num(double value) {
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) throw std::runtime_error("unformattable number");
  return std::string(buffer, ptr);
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + salt);
  return rng.next();
}

double uniform(SplitMix64& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.nextDouble();
}

/// A competing application: comm share, message size, and for about 40% of
/// them a disk-I/O share.
model::CompetingApp randomApp(SplitMix64& rng) {
  model::CompetingApp app;
  app.commFraction = uniform(rng, 0.05, 0.6);
  static constexpr contend::Words kWords[] = {64, 128, 512, 1000, 2048, 4096};
  app.messageWords = kWords[rng.nextBelow(std::size(kWords))];
  if (rng.nextDouble() < 0.4) {
    app.ioFraction = uniform(rng, 0.05, std::min(0.3, 1.0 - app.commFraction));
    app.ioOps = 10 + static_cast<std::int64_t>(rng.nextBelow(190));
  }
  return app;
}

tools::TaskSpec randomTask(SplitMix64& rng, const std::string& name) {
  tools::TaskSpec task;
  task.name = name;
  task.frontEndSec = uniform(rng, 0.5, 20.0);
  task.backEndSec = uniform(rng, 0.1, 5.0);
  if (rng.nextDouble() < 0.3) {
    task.ioFraction = uniform(rng, 0.05, 0.4);
    task.ioOps = 1 + static_cast<std::int64_t>(rng.nextBelow(400));
  }
  task.toBackend.push_back(
      {1 + static_cast<std::int64_t>(rng.nextBelow(1000)),
       64 + static_cast<contend::Words>(rng.nextBelow(4033))});
  task.fromBackend.push_back(
      {1 + static_cast<std::int64_t>(rng.nextBelow(1000)),
       64 + static_cast<contend::Words>(rng.nextBelow(4033))});
  return task;
}

std::string arriveText(const model::CompetingApp& app) {
  serve::Request request;
  request.verb = serve::Verb::kArrive;
  request.app = app;
  return serve::formatRequest(request);
}

/// The deep profile: the simulated platform's dedicated-mode link fits plus
/// the canonical delay and I/O tables at kProfileDepth contenders.
void writeProfile(const Inputs& in) {
  contend::calib::PlatformProfile profile =
      contend::calib::calibrateDedicatedOnly(contend::sim::PlatformConfig{});
  profile.paragon.delays = contend::scenario::canonicalDelayTables(kProfileDepth);
  profile.io = model::canonicalIoDelayTables(kProfileDepth);
  contend::calib::saveProfile(profile, in.path("profile.txt"));
}

/// One trace job whose profiled shape approximates `app` at `dedicatedSec`
/// under the default trace cost model.
trace::TraceJob jobFor(const model::CompetingApp& app, double dedicatedSec,
                       double arriveSec, const std::string& name) {
  const trace::TraceCostModel cost;
  trace::TraceJob job;
  job.name = name;
  job.className = "served";
  job.arriveSec = arriveSec;
  trace::TracePhase compute;
  compute.seconds = dedicatedSec * (1.0 - app.commFraction - app.ioFraction);
  job.phases.push_back(compute);
  if (app.commFraction > 0.0 && app.messageWords > 0) {
    trace::TracePhase comm;
    comm.kind = trace::TracePhase::Kind::kComm;
    comm.words = app.messageWords;
    const double perMessage =
        cost.commAlphaSec +
        static_cast<double>(app.messageWords) / cost.commBetaWordsPerSec;
    comm.messages = std::max<std::int64_t>(
        1, std::llround(app.commFraction * dedicatedSec / perMessage));
    job.phases.push_back(comm);
  }
  if (app.ioFraction > 0.0) {
    trace::TracePhase io;
    io.kind = trace::TracePhase::Kind::kIo;
    io.ops = std::max<std::int64_t>(
        1, std::llround(app.ioFraction * dedicatedSec / cost.ioOpSec));
    io.bytes = io.ops * 4096;
    io.direction = trace::IoDirection::kReadWrite;
    job.phases.push_back(io);
  }
  return job;
}

/// The serve workloads' apps replayed as a scenario (traced runs only): the
/// base mix lands as one burst at time zero, then kCompanionJobs arrivals
/// cycle through the streamed shapes (or the base ones when none stream).
void writeCompanion(const Inputs& in, const std::vector<model::CompetingApp>& base,
                    const std::vector<model::CompetingApp>& streamed) {
  trace::JobTrace jobs;
  jobs.name = "companion";
  for (std::size_t i = 0; i < base.size(); ++i) {
    jobs.jobs.push_back(jobFor(base[i], 0.2, 0.0, "base" + std::to_string(i)));
  }
  const std::vector<model::CompetingApp>& shapes = streamed.empty() ? base : streamed;
  for (std::size_t i = 0; i < kCompanionJobs; ++i) {
    jobs.jobs.push_back(jobFor(shapes[i % shapes.size()], 0.2,
                               0.15 * static_cast<double>(i + 1),
                               "s" + std::to_string(i)));
  }
  writeFile(in.path("companion.trace"), trace::writeTrace(jobs));
  writeFile(in.path("companion.scn"),
            "machine class:\n{\n    Name: served\n    Number of machines: 1\n"
            "    Number of cores: 2\n    Speed: 1.0\n    Comm alpha: 0.0005\n"
            "    Comm beta: 2e6\n}\n\ntask class:\n{\n"
            "    Trace: companion.trace\n    SLA type: SLA2\n}\n");
}

void generateServeHot(const Inputs& in) {
  SplitMix64 rng(mixSeed(in.seed, 1));
  std::vector<model::CompetingApp> base{randomApp(rng), randomApp(rng)};
  std::vector<StreamRecord> baseStream;
  for (const model::CompetingApp& app : base) {
    baseStream.push_back({'A', 1, 0, arriveText(app)});
  }
  writeStream(in.path("base.stream"), baseStream);

  serve::Request predict;
  predict.verb = serve::Verb::kPredict;
  predict.task = randomTask(rng, "hot");
  const std::uint64_t perConn =
      kHotRequestsPerSec * static_cast<std::uint64_t>(in.seconds) / 2;
  for (int c = 0; c < 2; ++c) {
    writeStream(in.path("conn" + std::to_string(c) + ".stream"),
                {{'Q', kHotWarmup + perConn, 0, serve::formatRequest(predict)}});
  }
  writeFile(in.path("meta.txt"),
            "connections=2\nwarmup=" + std::to_string(kHotWarmup) +
                "\njournal=0\npool=0\nbase_active=0\nbase_epoch=0\n");
  writeCompanion(in, base, {});
}

/// The prepared journal: kChurnResidents arrivals, then a history of
/// arrive/depart pairs that leaves exactly kChurnResidents live apps.
/// Records stay below the default snapshot cadence, so recovery replays
/// every one of them through the tracker.
std::vector<model::CompetingApp> writeChurnJournal(const Inputs& in,
                                                   SplitMix64& rng,
                                                   std::uint64_t& epochOut) {
  serve::JournalConfig config;
  config.path = in.path("churn.journal");
  config.fsync = serve::FsyncPolicy::kOff;
  std::remove(config.path.c_str());
  serve::Journal journal(config);
  (void)journal.load();
  journal.start(0);
  std::vector<std::uint64_t> liveIds;
  std::vector<model::CompetingApp> liveApps;
  std::uint64_t epoch = 0;
  std::uint64_t nextId = 1;
  const auto arrive = [&] {
    const model::CompetingApp app = randomApp(rng);
    journal.appendArrive(++epoch, nextId, app, 0.0);
    liveIds.push_back(nextId++);
    liveApps.push_back(app);
  };
  for (int i = 0; i < kChurnResidents; ++i) arrive();
  for (int i = 0; i < kChurnHistoryPairs; ++i) {
    arrive();
    const std::size_t victim = rng.nextBelow(liveIds.size());
    journal.appendDepart(++epoch, liveIds[victim], 0.0);
    liveIds.erase(liveIds.begin() + static_cast<std::ptrdiff_t>(victim));
    liveApps.erase(liveApps.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  epochOut = epoch;
  return liveApps;
}

void generateServeChurn(const Inputs& in) {
  SplitMix64 rng(mixSeed(in.seed, 2));
  std::uint64_t baseEpoch = 0;
  const std::vector<model::CompetingApp> base =
      writeChurnJournal(in, rng, baseEpoch);

  // Batches come from a pool of distinct tasks; every one still misses the
  // cache, because each loop's ARRIVE gives the mix a new signature.
  std::vector<StreamRecord> pool;
  std::uint64_t taskCounter = 0;
  for (int b = 0; b < kChurnBatchPool; ++b) {
    serve::Request batch;
    batch.verb = serve::Verb::kPredictBatch;
    for (int t = 0; t < kBatchTasks; ++t) {
      batch.batch.push_back(randomTask(rng, "b" + std::to_string(taskCounter++)));
    }
    pool.push_back({'Q', 1, 0, serve::formatRequest(batch)});
  }
  writeStream(in.path("pool.stream"), pool);

  const std::uint64_t loops =
      kChurnWarmupLoops +
      kChurnLoopsPerSec * static_cast<std::uint64_t>(in.seconds) / 2;
  std::vector<model::CompetingApp> streamed;
  for (int c = 0; c < 2; ++c) {
    std::vector<StreamRecord> stream;
    for (std::uint64_t loop = 0; loop < loops; ++loop) {
      const model::CompetingApp app = randomApp(rng);
      if (c == 0) streamed.push_back(app);
      stream.push_back({'A', 1, 0, arriveText(app)});
      stream.push_back({'P', 1, rng.nextBelow(pool.size()), ""});
      stream.push_back({'D', 1, loop, ""});
    }
    writeStream(in.path("conn" + std::to_string(c) + ".stream"), stream);
  }
  writeFile(in.path("meta.txt"),
            "connections=2\nwarmup=" + std::to_string(3 * kChurnWarmupLoops) +
                "\njournal=1\npool=1\nbase_active=" + std::to_string(base.size()) +
                "\nbase_epoch=" + std::to_string(baseEpoch) + "\n");
  writeCompanion(in, base, streamed);
}

std::string taskClassText(const std::string& name, double endSec,
                          double interArrival, const std::string& arrival,
                          double runtime, double comm, int words, int state,
                          const std::string& sla, std::uint64_t seed) {
  return "task class:\n{\n    Name: " + name + "\n    Start time: 0.0\n" +
         "    End time: " + num(endSec) + "\n    Inter arrival: " +
         num(interArrival) + "\n    Arrival: " + arrival + "\n" +
         (arrival == "burst" ? "    Burst size: 16\n" : "") +
         "    Expected runtime: " + num(runtime) + "\n    Comm fraction: " +
         num(comm) + "\n    Message words: " + std::to_string(words) +
         "\n    State words: " + std::to_string(state) + "\n    SLA type: " +
         sla + "\n    Seed: " + std::to_string(seed) + "\n}\n\n";
}

/// sla_mix's 12 machines and four SLA tiers, plus a trace-backed class whose
/// jobs carry comm and disk phases. One pass simulates sla_mix's 60 s; a run
/// makes many passes (see runScenario for why passes are short).
void generateScenarioWide(const Inputs& in) {
  SplitMix64 rng(mixSeed(in.seed, 3));
  const double endSec = 60.0;
  // sla_mix's 2:1 speed ratio is expressed as Speed 1.0 / 0.5 with halved
  // runtimes, which gives every task the same dedicated time on each class.
  // Speeds above 1 make Engine::adviseMigration normalise factors below 1
  // by multiplying with their reciprocal, which can round to just under 1
  // and abort the run ("adviseMigration: slowdown below 1").
  std::string text =
      "machine class:\n{\n    Name: fast\n    Number of machines: 4\n"
      "    Number of cores: 2\n    Speed: 1.0\n    Comm alpha: 0.0002\n"
      "    Comm beta: 4e6\n    Comm threshold: 2048\n}\n\n"
      "machine class:\n{\n    Name: slow\n    Number of machines: 8\n"
      "    Number of cores: 2\n    Speed: 0.5\n    Comm alpha: 0.0005\n"
      "    Comm beta: 2e6\n}\n\n";
  text += taskClassText("interactive", endSec, 0.02, "poisson", 0.02, 0.15,
                        128, 256, "SLA0", rng.next());
  text += taskClassText("latency", endSec, 0.02, "poisson", 0.04, 0.2, 256,
                        512, "SLA1", rng.next());
  text += taskClassText("analytics", endSec, 0.04, "burst", 0.06, 0.3, 512,
                        1024, "SLA2", rng.next());
  text += taskClassText("batch", endSec, 0.015, "poisson", 0.075, 0.1, 64, 128,
                        "SLA3", rng.next());
  text += "task class:\n{\n    Name: traced\n    Trace: wide.trace\n"
          "    SLA type: SLA2\n    State words: 512\n}\n";
  writeFile(in.path("wide.scn"), text);

  trace::JobTrace jobs;
  jobs.name = "wide";
  double at = 0.0;
  for (int i = 0; i < kWideTraceJobs; ++i) {
    at += uniform(rng, 0.0, 2.0 * endSec / kWideTraceJobs);
    model::CompetingApp app;
    app.commFraction = uniform(rng, 0.05, 0.3);
    app.messageWords = 128 + static_cast<contend::Words>(rng.nextBelow(900));
    app.ioFraction = uniform(rng, 0.1, 0.4);
    jobs.jobs.push_back(jobFor(app, uniform(rng, 0.025, 0.075),
                               std::min(at, endSec - 1.0),
                               "w" + std::to_string(i)));
  }
  writeFile(in.path("wide.trace"), trace::writeTrace(jobs));
  const int passes = std::max(
      3, static_cast<int>(std::lround(kWidePassesPerSec * in.seconds)));
  writeFile(in.path("meta.txt"), "scenario=wide.scn\ntrace=wide.trace\npasses=" +
                                     std::to_string(passes) + "\n");
}

}  // namespace

void generate(const Inputs& in) {
  writeProfile(in);
  if (in.workload == "serve_hot") {
    generateServeHot(in);
  } else if (in.workload == "serve_churn") {
    generateServeChurn(in);
  } else if (in.workload == "scenario_wide") {
    generateScenarioWide(in);
  } else {
    throw std::invalid_argument("unknown workload '" + in.workload + "'");
  }
}

}  // namespace perfbench
