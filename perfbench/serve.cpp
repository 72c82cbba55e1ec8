// serve.cpp — the serve workloads: contend_served driven over its wire
// protocol by closed-loop client threads, and (traced runs) the same
// traffic replayed in-process through the serve layers.
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <barrier>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "calib/profile_io.hpp"
#include "perfbench.hpp"
#include "serve/concurrent_tracker.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace serve = contend::serve;
namespace model = contend::model;

constexpr const char* kSocket = "served.sock";
constexpr const char* kDaemonJournal = "served.journal";

std::string field(std::string_view reply, std::string_view key) {
  std::size_t at = 0;
  while ((at = reply.find(key, at)) != std::string_view::npos) {
    if ((at == 0 || reply[at - 1] == ' ') && at + key.size() < reply.size() &&
        reply[at + key.size()] == '=') {
      const std::size_t begin = at + key.size() + 1;
      const std::size_t end = reply.find(' ', begin);
      return std::string(reply.substr(
          begin, end == std::string_view::npos ? std::string_view::npos
                                               : end - begin));
    }
    at += key.size();
  }
  return {};
}

std::uint64_t toU64(const std::string& text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::runtime_error("not a count: '" + text + "'");
  }
  return value;
}

void copyFile(const std::string& from, const std::string& to) {
  writeFile(to, readFile(from));
}

/// One client connection: newline-framed request/reply over a unix socket.
class Connection {
 public:
  Connection() {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends one request and returns its reply line (without the newline).
  std::string_view roundTrip(std::string_view request) {
    for (std::size_t sent = 0; sent < request.size();) {
      const ssize_t n =
          ::send(fd_, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    buffer_.erase(0, consumed_);
    consumed_ = 0;
    for (std::size_t scanned = 0;;) {
      const std::size_t eol = buffer_.find('\n', scanned);
      if (eol != std::string::npos) {
        consumed_ = eol + 1;
        return std::string_view(buffer_).substr(0, eol);
      }
      scanned = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed mid-reply");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t consumed_ = 0;
};

/// A spawned contend_served; the destructor kills and reaps it if still up.
class Daemon {
 public:
  Daemon(const std::string& binDir, const std::string& profile, bool journal) {
    ::unlink(kSocket);
    std::vector<std::string> args{binDir + "/contend_served", profile,
                                  "--listen", std::string("unix:") + kSocket};
    if (journal) {
      args.insert(args.end(), {"--journal", kDaemonJournal, "--fsync", "off"});
    }
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(fds[1], 1);
      const int log = ::open("served.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) ::dup2(log, 2);
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    stdout_ = fds[0];
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::close(stdout_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int pid() const { return pid_; }

  /// Waits for the daemon's "listening on" line, then for the OK answer to
  /// a first STATS; returns that reply.
  std::string awaitFirstOk() {
    std::string printed;
    while (printed.find("listening on") == std::string::npos) {
      pollfd ready{stdout_, POLLIN, 0};
      char chunk[4096];
      const ssize_t n =
          ::poll(&ready, 1, 60'000) == 1 ? ::read(stdout_, chunk, sizeof(chunk)) : 0;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("contend_served did not come up");
      printed.append(chunk, static_cast<std::size_t>(n));
    }
    Connection probe;
    if (!probe.connected()) throw std::runtime_error("cannot connect to daemon");
    std::string reply(probe.roundTrip("STATS\n"));
    if (reply.rfind("OK ", 0) != 0) {
      throw std::runtime_error("first reply not OK: " + reply);
    }
    return reply;
  }

  /// SIGTERM, then reap; true when it drained and exited 0.
  bool stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  int pid_ = -1;
  int stdout_ = -1;  // read end of the daemon's stdout; open until reaped
};

/// Barrier completion step; the wrapped callable must not throw.
struct SyncHook {
  std::function<void()>* step;
  void operator()() noexcept { (*step)(); }
};

struct ClientOutcome {
  std::vector<double> latencyNs;
  std::uint64_t attempted = 0;
  std::uint64_t mutations = 0;
  std::vector<std::string> failures;
};

/// One closed-loop client: warm-up, then the timed remainder of its stream.
void runClient(const ServeTraffic& traffic, std::size_t index,
               const std::function<bool(std::string_view)>& checkReply,
               std::barrier<SyncHook>& sync, ClientOutcome& out) {
  bool started = false;
  const auto startMeasuring = [&] {
    if (!started) {
      started = true;
      sync.arrive_and_wait();
    }
  };
  const std::vector<StreamRecord>& stream = traffic.conns[index];
  try {
    Connection conn;
    if (!conn.connected()) throw std::runtime_error("client connect failed");
    std::vector<std::uint64_t> arrivedIds;
    std::vector<std::string> accepted;
    std::string departText;
    std::uint64_t sent = 0;
    out.latencyNs.reserve(static_cast<std::size_t>(streamRequests(stream)));
    for (const StreamRecord& record : stream) {
      for (std::uint64_t rep = 0; rep < record.count; ++rep) {
        if (sent == traffic.warmup) startMeasuring();
        std::string_view request = requestBytes(traffic, record);
        if (record.kind == 'D') {
          departText = "DEPART " +
                       std::to_string(arrivedIds.at(record.arg)) + "\n";
          request = departText;
        }
        const std::int64_t t0 = nowNs();
        const std::string_view reply = conn.roundTrip(request);
        const std::int64_t t1 = nowNs();
        ++out.attempted;
        if (started) {
          out.latencyNs.push_back(static_cast<double>(t1 - t0));
          if (record.kind == 'A' || record.kind == 'D') ++out.mutations;
        }
        ++sent;
        if (reply.rfind("OK ", 0) != 0) {
          out.failures.push_back(std::string(reply.substr(0, 200)));
          if (record.kind == 'A') arrivedIds.push_back(0);
          continue;
        }
        if (record.kind == 'A') {
          arrivedIds.push_back(toU64(field(reply, "id")));
        } else if (record.kind != 'D' && checkReply) {
          bool known = false;
          for (const std::string& ok : accepted) known = known || ok == reply;
          if (!known) {
            if (checkReply(reply)) {
              if (accepted.size() < 8) accepted.emplace_back(reply);
            } else {
              out.failures.push_back("wrong answer: " +
                                     std::string(reply.substr(0, 200)));
            }
          }
        }
      }
    }
  } catch (const std::exception& error) {
    out.failures.push_back(error.what());
  }
  startMeasuring();
  sync.arrive_and_wait();
}

}  // namespace

DaemonReport runDaemon(const ServeTraffic& traffic, const std::string& profile,
                         const std::string& binDir, int setupTrials,
                         const std::function<bool(std::string_view)>& checkReply,
                         Result& out) {
  DaemonReport report;
  const bool journaled = !traffic.journal.empty();
  std::unique_ptr<Daemon> daemon;
  for (int trial = 0; trial < setupTrials; ++trial) {
    if (journaled) {
      copyFile(traffic.journal, kDaemonJournal);
      ::unlink((std::string(kDaemonJournal) + ".snapshot").c_str());
    }
    const std::int64_t t0 = nowNs();
    daemon = std::make_unique<Daemon>(binDir, profile, journaled);
    const std::string first = daemon->awaitFirstOk();
    report.setupSec.push_back(1e-9 * static_cast<double>(nowNs() - t0));
    ++out.attempted;
    out.info["engine"] = field(first, "engine");
    if (trial + 1 < setupTrials && !daemon->stop()) {
      out.fail("contend_served did not exit cleanly on SIGTERM");
    }
  }

  {
    Connection conn;
    for (const StreamRecord& record : traffic.base) {
      const std::string_view reply = conn.roundTrip(record.bytes);
      ++out.attempted;
      if (reply.rfind("OK ", 0) != 0) out.fail("base: " + std::string(reply));
    }
  }

  const int pid = daemon->pid();
  double cpu0 = 0.0;
  double rss0 = 0.0;
  int phase = 0;
  std::function<void()> onSync = [&] {
    try {
      if (phase++ == 0) {
        cpu0 = procCpuSec(pid);
        rss0 = procStatusKb(pid, "VmRSS");
      } else {
        report.daemonCpuSec = procCpuSec(pid) - cpu0;
        report.rssGrowthKb = procStatusKb(pid, "VmRSS") - rss0;
      }
    } catch (...) {
    }
  };
  std::barrier<SyncHook> sync(
      static_cast<std::ptrdiff_t>(traffic.conns.size()), SyncHook{&onSync});
  std::vector<ClientOutcome> outcomes(traffic.conns.size());
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < traffic.conns.size(); ++c) {
      clients.emplace_back([&, c] {
        runClient(traffic, c, checkReply, sync, outcomes[c]);
      });
    }
  }
  for (ClientOutcome& outcome : outcomes) {
    out.attempted += outcome.attempted;
    report.mutations += outcome.mutations;
    for (const std::string& failure : outcome.failures) out.fail(failure);
    const std::size_t n = outcome.latencyNs.size();
    report.latencyNs.resize(kLatencyWindows);
    for (std::size_t w = 0; w < kLatencyWindows; ++w) {
      report.latencyNs[w].insert(
          report.latencyNs[w].end(),
          outcome.latencyNs.begin() + static_cast<std::ptrdiff_t>(w * n / kLatencyWindows),
          outcome.latencyNs.begin() +
              static_cast<std::ptrdiff_t>((w + 1) * n / kLatencyWindows));
    }
  }

  try {
    Connection conn;
    const std::string stats(conn.roundTrip("STATS\n"));
    ++out.attempted;
    if (stats.rfind("OK ", 0) != 0) out.fail("STATS: " + stats);
    for (const char* key : {"epoch", "p", "engine"}) {
      report.stats[key] = field(stats, key);
    }
    report.hwmKb = procStatusKb(pid, "VmHWM");
  } catch (const std::exception& error) {
    out.fail(std::string("final STATS: ") + error.what());
  }
  if (!daemon->stop()) out.fail("contend_served did not exit cleanly");
  return report;
}

namespace {

struct Replay {
  double wallNs = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Per-stream interleaving the clients would produce with equal speed:
/// base first, then one request from each stream in turn.
template <typename Visit>
void interleave(const ServeTraffic& traffic, std::uint64_t cap, Visit visit) {
  std::uint64_t visited = 0;
  for (const StreamRecord& record : traffic.base) {
    visit(traffic.conns.size(), record);
    ++visited;
  }
  struct Cursor {
    std::size_t record = 0;
    std::uint64_t rep = 0;
  };
  std::vector<Cursor> cursors(traffic.conns.size());
  for (bool progressed = true; progressed && visited < cap;) {
    progressed = false;
    for (std::size_t c = 0; c < traffic.conns.size() && visited < cap; ++c) {
      Cursor& cursor = cursors[c];
      const std::vector<StreamRecord>& stream = traffic.conns[c];
      if (cursor.record >= stream.size()) continue;
      visit(c, stream[cursor.record]);
      ++visited;
      progressed = true;
      if (++cursor.rep >= stream[cursor.record].count) {
        cursor.rep = 0;
        ++cursor.record;
      }
    }
  }
}

constexpr std::uint64_t kReplayCap = 60000;

/// Replays the traffic through parse -> tracker -> encode on a fresh tracker
/// whose journal starts from the prepared one. With a tracer, every layer
/// call becomes a span under its request's root span.
Replay replay(const ServeTraffic& traffic,
              const model::ParagonPlatformModel& platform, Tracer* tracer,
              const std::string& journalPath, std::vector<model::CompetingApp>* apps,
              std::vector<double>* depths) {
  if (traffic.journal.empty()) {
    ::unlink(journalPath.c_str());
  } else {
    copyFile(traffic.journal, journalPath);
  }
  ::unlink((journalPath + ".snapshot").c_str());
  serve::JournalConfig config;
  config.path = journalPath;
  config.fsync = serve::FsyncPolicy::kOff;
  serve::Journal journal(config);
  serve::ConcurrentTracker tracker(platform);
  (void)tracker.recoverFromJournal(journal);

  std::uint32_t nRequest = 0, nParse = 0, nEncode = 0, nArrive = 0,
                nDepart = 0, nHit = 0, nMiss = 0, nPredict = 0;
  if (tracer != nullptr) {
    nRequest = tracer->intern("request");
    nParse = tracer->intern("protocol.parse");
    nEncode = tracer->intern("protocol.encode");
    nArrive = tracer->intern("tracker.arrive");
    nDepart = tracer->intern("tracker.depart");
    nPredict = tracer->intern("tracker.predict");
    nHit = tracer->intern("tracker.predict_hit");
    nMiss = tracer->intern("tracker.predict_miss");
  }
  const auto open = [&](std::uint32_t name, std::uint32_t parent,
                        std::uint64_t request) {
    return tracer != nullptr ? tracer->open(name, parent, request) : 0u;
  };
  const auto close = [&](std::uint32_t span) {
    if (tracer != nullptr) tracer->close(span);
  };

  Replay result;
  std::vector<std::vector<std::uint64_t>> ids(traffic.conns.size() + 1);
  std::string departText;
  const std::int64_t start = nowNs();
  interleave(traffic, kReplayCap, [&](std::size_t stream,
                                      const StreamRecord& record) {
    const std::uint64_t id = result.requests++;
    std::string_view text = requestBytes(traffic, record);
    if (record.kind == 'D') {
      departText = "DEPART " + std::to_string(ids[stream].at(record.arg)) + "\n";
      text = departText;
    }
    const std::uint32_t root = open(nRequest, Span::kNoParent, id);
    std::uint32_t span = open(nParse, root, id);
    const serve::Request request = *serve::parseRequestText(text);
    close(span);

    serve::Response response;
    response.add("verb", std::string(serve::verbName(request.verb)));
    const auto addSnapshot = [&](const serve::MixSnapshot& snapshot) {
      response.add("epoch", snapshot.epoch);
      response.add("p", static_cast<std::uint64_t>(snapshot.active));
      response.add("comp", snapshot.comp);
      response.add("comm", snapshot.comm);
      response.add("io", snapshot.io);
    };
    const auto addPrediction = [&](const std::string& suffix,
                                   const std::string& name,
                                   const serve::TaskPrediction& prediction) {
      response.add("name" + suffix, name);
      response.add("front" + suffix, prediction.frontSec);
      response.add("remote" + suffix, prediction.remoteSec);
      response.add("decision" + suffix,
                   std::string(prediction.offload ? "back-end" : "front-end"));
      response.add("cache" + suffix,
                   std::string(prediction.cacheHit ? "hit" : "miss"));
      ++(prediction.cacheHit ? result.hits : result.misses);
    };
    switch (request.verb) {
      case serve::Verb::kArrive: {
        span = open(nArrive, root, id);
        const serve::MutationResult mutation = tracker.arrive(request.app);
        close(span);
        ids[stream].push_back(mutation.id);
        if (apps != nullptr) apps->push_back(request.app);
        response.add("id", mutation.id);
        addSnapshot(mutation.after);
        break;
      }
      case serve::Verb::kDepart: {
        span = open(nDepart, root, id);
        const serve::MutationResult mutation =
            tracker.depart(request.applicationId);
        close(span);
        response.add("id", mutation.id);
        addSnapshot(mutation.after);
        break;
      }
      case serve::Verb::kPredict: {
        span = open(nPredict, root, id);
        const serve::TaskPrediction prediction = tracker.predict(request.task);
        close(span);
        if (tracer != nullptr) {
          tracer->rename(span, prediction.cacheHit ? nHit : nMiss);
        }
        response.add("epoch", prediction.epoch);
        addPrediction("", request.task.name, prediction);
        break;
      }
      case serve::Verb::kPredictBatch: {
        const std::int64_t t0 = nowNs();
        const std::vector<serve::TaskPrediction> predictions =
            tracker.predictBatch(request.batch);
        const std::int64_t t1 = nowNs();
        // One span per task, splitting the batch call evenly, so per-task
        // hit/miss costs stay comparable with single PREDICTs.
        if (tracer != nullptr) {
          const std::int64_t each =
              (t1 - t0) / static_cast<std::int64_t>(predictions.size());
          for (std::size_t i = 0; i < predictions.size(); ++i) {
            const std::int64_t from = t0 + each * static_cast<std::int64_t>(i);
            tracer->add(predictions[i].cacheHit ? nHit : nMiss, root, id, from,
                        from + each);
          }
        }
        response.add("count", static_cast<std::uint64_t>(predictions.size()));
        response.add("epoch", predictions.front().epoch);
        for (std::size_t i = 0; i < predictions.size(); ++i) {
          addPrediction('.' + std::to_string(i), request.batch[i].name,
                        predictions[i]);
        }
        break;
      }
      default:
        throw std::runtime_error("unexpected verb in a benchmark stream");
    }
    span = open(nEncode, root, id);
    const std::string line = serve::formatResponse(response);
    close(span);
    close(root);
    if (line.rfind("OK ", 0) != 0) throw std::runtime_error("replay: " + line);
    if (depths != nullptr) depths->push_back(tracker.slowdowns().active);
  });
  result.wallNs = static_cast<double>(nowNs() - start);

  if (tracer != nullptr) {
    // Probes at the final mix, so every tracker call has samples on every
    // workload: repeats of one task (hits), fresh tasks (misses), and
    // arrive/depart pairs of the workload's own application shapes.
    contend::SplitMix64 rng(7);
    contend::tools::TaskSpec task;
    task.name = "probe";
    task.frontEndSec = 3.0;
    task.backEndSec = 1.0;
    task.toBackend.push_back({100, 512});
    task.fromBackend.push_back({100, 512});
    for (int i = 0; i < 4000; ++i) {
      if (i % 2 == 1) task.frontEndSec = 1.0 + rng.nextDouble();
      const std::uint32_t span = open(nPredict, Span::kNoParent, 0);
      const serve::TaskPrediction prediction = tracker.predict(task);
      close(span);
      tracer->rename(span, prediction.cacheHit ? nHit : nMiss);
    }
    const std::vector<model::CompetingApp> shapes =
        apps != nullptr && !apps->empty()
            ? *apps
            : std::vector<model::CompetingApp>{model::CompetingApp{0.3, 512}};
    for (int i = 0; i < 1000; ++i) {
      std::uint32_t span = open(nArrive, Span::kNoParent, 0);
      const serve::MutationResult arrived =
          tracker.arrive(shapes[static_cast<std::size_t>(i) % shapes.size()]);
      close(span);
      span = open(nDepart, Span::kNoParent, 0);
      (void)tracker.depart(arrived.id);
      close(span);
    }
  }
  return result;
}

}  // namespace

void measureServeLayers(const ServeTraffic& traffic, const std::string& profile,
                        double clientP50Us, bool primary, Tracer& tracer,
                        Result& out, std::vector<model::CompetingApp>& apps,
                        std::vector<double>& depths) {
  const model::ParagonPlatformModel platform =
      contend::calib::loadProfileFile(profile).paragon;
  // Untraced, then traced, on identical fresh state: the difference is the
  // tracing overhead.
  const Replay plain =
      replay(traffic, platform, nullptr, "replay.journal", nullptr, nullptr);
  std::vector<model::CompetingApp> streamApps;
  std::vector<double> streamDepths;
  const Replay traced = replay(traffic, platform, &tracer, "replay.journal",
                               &streamApps, &streamDepths);
  if (primary) {
    apps.insert(apps.end(), streamApps.begin(), streamApps.end());
    depths.insert(depths.end(), streamDepths.begin(), streamDepths.end());
  }
  out.attempted += plain.requests + traced.requests;
  if (primary) {
    out.metrics["trace.overhead_pct"] =
        100.0 * (traced.wallNs - plain.wallNs) / plain.wallNs;
  }

  out.metrics["protocol.parse_ns"] = median(tracer.durations("protocol.parse"));
  out.metrics["protocol.encode_ns"] =
      median(tracer.durations("protocol.encode"));
  out.metrics["tracker.predict_hit_ns"] =
      median(tracer.durations("tracker.predict_hit"));
  out.metrics["tracker.predict_miss_ns"] =
      median(tracer.durations("tracker.predict_miss"));
  out.metrics["tracker.arrive_ns"] = median(tracer.durations("tracker.arrive"));
  out.metrics["tracker.depart_ns"] = median(tracer.durations("tracker.depart"));
  out.metrics["cache.lookups"] = static_cast<double>(traced.hits + traced.misses);
  out.metrics["cache.hit_ratio"] =
      traced.hits + traced.misses == 0
          ? 0.0
          : static_cast<double>(traced.hits) /
                static_cast<double>(traced.hits + traced.misses);
  const double requestNs = median(tracer.durations("request"));
  out.metrics["replay.request_ns"] = requestNs;
  out.metrics["replay.glue_ns"] = median(tracer.selfTimes("request"));
  out.metrics["transport.us"] = clientP50Us - requestNs / 1000.0;

  // Journal append in isolation (fsync off, as the daemon runs it), on the
  // workload's own application shapes.
  {
    const std::string path = "probe.journal";
    ::unlink(path.c_str());
    serve::JournalConfig config;
    config.path = path;
    config.fsync = serve::FsyncPolicy::kOff;
    config.snapshotEvery = 0;
    serve::Journal journal(config);
    (void)journal.load();
    journal.start(0);
    const std::uint32_t name = tracer.intern("journal.append");
    const model::CompetingApp fallback{0.3, 512};
    for (std::uint64_t epoch = 1; epoch <= 4000; ++epoch) {
      const std::int64_t t0 = nowNs();
      if (epoch % 2 == 1) {
        journal.appendArrive(epoch, epoch,
                             streamApps.empty()
                                 ? fallback
                                 : streamApps[(epoch / 2) % streamApps.size()],
                             0.0);
      } else {
        journal.appendDepart(epoch, epoch - 1, 0.0);
      }
      tracer.add(name, Span::kNoParent, 0, t0, nowNs());
    }
    const serve::JournalStats stats = journal.stats();
    out.metrics["journal.append_ns"] = median(tracer.durations("journal.append"));
    out.metrics["journal.bytes_per_record"] =
        static_cast<double>(stats.bytes) / static_cast<double>(stats.records);
  }

  // Recovery of the journal the traced replay left behind (the prepared
  // journal plus every replayed mutation).
  {
    const std::int64_t t0 = nowNs();
    serve::JournalConfig config;
    config.path = "replay.journal";
    config.fsync = serve::FsyncPolicy::kOff;
    serve::Journal journal(config);
    serve::ConcurrentTracker tracker(platform);
    (void)tracker.recoverFromJournal(journal);
    out.metrics["journal.recover_s"] = 1e-9 * static_cast<double>(nowNs() - t0);
  }
}

double bestWindowQuantileUs(const std::vector<std::vector<double>>& windows,
                          double q) {
  std::vector<double> perWindow;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) perWindow.push_back(quantile(window, q) / 1000.0);
  }
  return quantile(perWindow, 0.0);
}

namespace {
// Daemon start-ups per untraced run; setup_s is the fastest.
constexpr int kSetupTrials = 15;

bool sameBits(const std::string& text, double expected) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc{} && ptr == text.data() + text.size() &&
         std::bit_cast<std::uint64_t>(value) ==
             std::bit_cast<std::uint64_t>(expected);
}
}  // namespace

void runServe(const Inputs& in, bool traced, const std::string& binDir,
              Result& out) {
  const std::map<std::string, std::string> meta = readMeta(in.path("meta.txt"));
  const std::string profile = in.path("profile.txt");
  ServeTraffic traffic;
  if (in.workload == "serve_hot") traffic.base = readStream(in.path("base.stream"));
  for (int c = 0; c < std::stoi(meta.at("connections")); ++c) {
    traffic.conns.push_back(readStream(in.path("conn" + std::to_string(c) + ".stream")));
  }
  traffic.warmup = std::stoull(meta.at("warmup"));
  if (meta.at("pool") == "1") traffic.pool = readStream(in.path("pool.stream"));
  if (meta.at("journal") == "1") traffic.journal = in.path("churn.journal");

  // serve_hot's answers must be bit-identical to an in-process tracker
  // holding the same mix.
  std::function<bool(std::string_view)> check;
  if (in.workload == "serve_hot") {
    const model::ParagonPlatformModel platform =
        contend::calib::loadProfileFile(profile).paragon;
    serve::ConcurrentTracker oracle(platform);
    for (const StreamRecord& record : traffic.base) {
      (void)oracle.arrive(serve::parseRequestText(record.bytes)->app);
    }
    const serve::Request predict =
        *serve::parseRequestText(traffic.conns.at(0).at(0).bytes);
    const serve::TaskPrediction expected = oracle.predict(predict.task);
    const std::string name = predict.task.name;
    check = [expected, name](std::string_view reply) {
      return field(reply, "name") == name &&
             sameBits(field(reply, "front"), expected.frontSec) &&
             sameBits(field(reply, "remote"), expected.remoteSec) &&
             field(reply, "decision") ==
                 (expected.offload ? "back-end" : "front-end");
    };
  }

  const DaemonReport report = runDaemon(traffic, profile, binDir,
                                          traced ? 1 : kSetupTrials, check, out);

  // The final mix must hold exactly the base plus the mutations sent.
  std::int64_t arrives = 0;
  std::int64_t departs = 0;
  const auto countMutations = [&](const std::vector<StreamRecord>& stream) {
    for (const StreamRecord& record : stream) {
      if (record.kind == 'A') arrives += static_cast<std::int64_t>(record.count);
      if (record.kind == 'D') departs += static_cast<std::int64_t>(record.count);
    }
  };
  countMutations(traffic.base);
  for (const auto& stream : traffic.conns) countMutations(stream);
  const std::string wantActive =
      std::to_string(std::stoll(meta.at("base_active")) + arrives - departs);
  const std::string wantEpoch =
      std::to_string(std::stoll(meta.at("base_epoch")) + arrives + departs);
  if (report.stats.count("p") == 0 || report.stats.at("p") != wantActive ||
      report.stats.at("epoch") != wantEpoch) {
    out.fail("final STATS p/epoch " +
             (report.stats.count("p") != 0 ? report.stats.at("p") + "/" +
                                                 report.stats.at("epoch")
                                           : std::string("missing")) +
             ", expected " + wantActive + "/" + wantEpoch);
  }

  const double p50Us = bestWindowQuantileUs(report.latencyNs, 0.5);
  std::size_t samples = 0;
  for (const auto& window : report.latencyNs) samples += window.size();
  out.info["latency_samples"] = std::to_string(samples);
  out.info["setup_samples"] = std::to_string(report.setupSec.size());
  out.metrics["setup_s"] = quantile(report.setupSec, 0.0);  // best start-up
  out.metrics["p50_us"] = p50Us;
  out.metrics["p99_us"] = bestWindowQuantileUs(report.latencyNs, 0.99);
  out.metrics["ops_per_cpu_s"] =
      static_cast<double>(samples) / report.daemonCpuSec;
  out.metrics["peak_rss_mb"] = report.hwmKb / 1024.0;
  if (!traced) return;

  Tracer tracer;
  std::vector<model::CompetingApp> apps;
  std::vector<double> depths;
  out.metrics["daemon.rss_kb_per_1k_mutations"] =
      report.rssGrowthKb /
      std::max(1.0, static_cast<double>(report.mutations) / 1000.0);
  measureServeLayers(traffic, profile, p50Us, true, tracer, out, apps, depths);
  (void)measureScenarioLayers(in.path("companion.scn"),
                              in.path("companion.trace"), tracer, out, nullptr,
                              nullptr, nullptr);
  measureModelLayers(apps, depths, profile, out);
  tracer.write(in.path("spans.tsv"));
}

}  // namespace perfbench
