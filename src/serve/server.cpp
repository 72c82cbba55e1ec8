#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "serve/event_engine.hpp"
#include "serve/prometheus.hpp"
#include "serve/replication.hpp"

namespace contend::serve {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// True when the unix socket at `path` is stale: a file exists but nothing
/// accepts on it (the previous daemon died without unlinking). A live
/// server answers the probe connect; ECONNREFUSED/ENOENT mean nobody is
/// home and the file is safe to unlink and rebind.
bool unixSocketIsStale(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;  // can't probe; let bind report the real error
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  const int savedErrno = errno;
  ::close(fd);
  if (rc == 0) return false;  // a live server is accepting
  return savedErrno == ECONNREFUSED || savedErrno == ENOENT;
}

}  // namespace

Endpoint parseEndpoint(const std::string& spec) {
  Endpoint endpoint;
  if (spec.rfind("unix:", 0) == 0) {
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.path = spec.substr(5);
    if (endpoint.path.empty()) {
      throw std::invalid_argument("endpoint '" + spec + "': empty socket path");
    }
    sockaddr_un probe{};
    if (endpoint.path.size() >= sizeof(probe.sun_path)) {
      throw std::invalid_argument("endpoint '" + spec +
                                  "': unix socket path too long");
    }
    return endpoint;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    endpoint.kind = Endpoint::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const auto colon = rest.rfind(':');
    const std::string portText =
        colon == std::string::npos ? rest : rest.substr(colon + 1);
    if (colon != std::string::npos && colon > 0) {
      endpoint.host = rest.substr(0, colon);
    }
    const char* first = portText.data();
    const char* last = portText.data() + portText.size();
    const auto [ptr, ec] = std::from_chars(first, last, endpoint.port);
    if (portText.empty() || ec != std::errc{} || ptr != last ||
        endpoint.port < 0 || endpoint.port > 65535) {
      throw std::invalid_argument("endpoint '" + spec + "': bad port '" +
                                  portText + "'");
    }
    return endpoint;
  }
  throw std::invalid_argument("endpoint '" + spec +
                              "': expected 'unix:<path>' or 'tcp:[host:]port'");
}

std::string endpointToString(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) return "unix:" + endpoint.path;
  return "tcp:" + endpoint.host + ':' + std::to_string(endpoint.port);
}

Server::Server(ServerConfig config, ConcurrentTracker& tracker,
               Metrics& metrics)
    : config_(std::move(config)), tracker_(tracker), metrics_(metrics) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.queueCapacity < 1) config_.queueCapacity = 1;
  if (config_.loopThreads < 1) config_.loopThreads = 1;
  if (config_.backlog < 1) config_.backlog = 1;
}

Server::~Server() {
  if (started_ && !joined_) stop();
  engine_.reset();
  if (listenFd_ >= 0) ::close(listenFd_);
  // Unlink only a socket file we actually created: a failed bind (or a
  // constructor-only lifetime) must not remove a file a newer server has
  // since bound at the same path.
  if (ownsSocketFile_) {
    (void)::unlink(config_.endpoint.path.c_str());
  }
}

void Server::start() {
  if (started_) throw std::runtime_error("Server::start called twice");

  const Endpoint& ep = config_.endpoint;
  if (ep.kind == Endpoint::Kind::kUnix) {
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) throwErrno("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      // EADDRINUSE may just mean the previous daemon crashed without
      // unlinking its socket. Probe before reclaiming: unlinking
      // unconditionally would silently hijack the endpoint of a *live*
      // server (both daemons would then believe they own the path).
      if (errno != EADDRINUSE || !unixSocketIsStale(ep.path)) {
        throwErrno("bind(" + ep.path + ")");
      }
      (void)::unlink(ep.path.c_str());
      if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        throwErrno("bind(" + ep.path + ") after reclaiming stale socket");
      }
    }
    ownsSocketFile_ = true;  // the file now exists and is ours
  } else {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) throwErrno("socket(AF_INET)");
    const int one = 1;
    (void)::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
    if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("bad listen host '" + ep.host +
                               "' (numeric IPv4 expected)");
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      throwErrno("bind(" + endpointToString(ep) + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      throwErrno("getsockname");
    }
    boundPort_ = ntohs(bound.sin_port);
    config_.endpoint.port = boundPort_;
  }
  if (::listen(listenFd_, config_.backlog) != 0) throwErrno("listen");

  engine_ = std::make_unique<EventEngine>(*this);
  startTime_ = std::chrono::steady_clock::now();
  engine_->start();
  started_ = true;
}

void Server::requestStop() {
  // Async-signal-safe: a raw pointer read plus the engine's atomic flag and
  // self-pipe write. No locks, no allocation.
  if (EventEngine* engine = engine_.get()) engine->requestStop();
}

void Server::wait() {
  if (!started_ || joined_) return;
  engine_->wait();
  joined_ = true;
}

void Server::stop() {
  requestStop();
  wait();
}

void Server::answer(std::string_view text, Request& request, std::string& out,
                    std::uint64_t queueWaitUs) {
  const auto begin = std::chrono::steady_clock::now();
  const std::size_t mark = out.size();
  bool parsed = false;
  // Any failure discards the partly encoded reply and answers one ERR line.
  const auto refuse = [&](std::string_view code, std::string_view message) {
    out.resize(mark);
    appendErrorLine(out, code, message);
    metrics_.countError();
  };
  try {
    if (!parseRequestText(text, request)) return;  // comment-only text
    parsed = true;
    if (request.verb == Verb::kMetrics) {
      // METRICS answers with the multi-line Prometheus exposition, written
      // verbatim through its `# EOF` line.
      out += renderMetricsText();
    } else {
      ReplyEncoder reply(out);
      handle(request, reply);
      reply.finish();
    }
  } catch (const ProtocolError& error) {
    refuse(error.code(), error.what());
  } catch (const std::invalid_argument& error) {
    // Semantic rejections from the tracker (unknown id, out-of-order event,
    // mix overflow): the request was well-formed, the state said no.
    refuse(kErrInvalidArgument, error.what());
  } catch (const std::exception& error) {
    refuse(kErrInternal, error.what());
  }
  if (!parsed) return;
  const Verb verb = request.verb;
  metrics_.countRequest(verb);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  metrics_.observeLatency(verb, elapsed);
  const auto durationUs = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
             .count()));
  if (config_.slowRequestUs > 0 && durationUs >= config_.slowRequestUs) {
    metrics_.countSlowRequest();
    std::fprintf(stderr,
                 "contend-served: slow request verb=%s bytes=%zu "
                 "duration_us=%llu queue_wait_us=%llu\n",
                 verbName(verb), text.size(),
                 static_cast<unsigned long long>(durationUs),
                 static_cast<unsigned long long>(queueWaitUs));
  }
}

void Server::handle(const Request& request, ReplyEncoder& reply) {
  reply.add("verb", verbName(request.verb));
  const auto addSnapshot = [&reply](const SlowdownSnapshot& snapshot) {
    reply.add("epoch", snapshot.epoch);
    reply.add("p", static_cast<std::uint64_t>(snapshot.active));
    reply.add("comp", snapshot.comp);
    reply.add("comm", snapshot.comm);
    reply.add("io", snapshot.io);
  };
  // Follower gating: mutations must go through the shard primary (the
  // replication stream is the only writer), and reads are refused once the
  // follower lags past its configured threshold — a stale answer labeled
  // `not_caught_up` beats a silently wrong one. Observability verbs and
  // REPL itself always answer, or operators couldn't diagnose the lag.
  if (config_.replication != nullptr &&
      config_.replication->role() == ReplRole::kFollower) {
    switch (request.verb) {
      case Verb::kArrive:
      case Verb::kDepart:
        throw ProtocolError(kErrReadOnly,
                            "follower is read-only; send mutations to the "
                            "shard primary");
      case Verb::kCalibrate:
        if (request.calibrate != CalibrateAction::kReport) {
          throw ProtocolError(kErrReadOnly,
                              "follower is read-only; calibrate via the "
                              "shard primary");
        }
        break;
      case Verb::kPredict:
      case Verb::kPredictBatch:
      case Verb::kSlowdown:
        if (!config_.replication->caughtUp()) {
          throw ProtocolError(
              kErrNotCaughtUp,
              "follower lags " +
                  std::to_string(config_.replication->lagRecords()) +
                  " records behind the primary (threshold " +
                  std::to_string(config_.replication->maxLagRecords()) + ")");
        }
        break;
      default:
        break;
    }
  }
  switch (request.verb) {
    case Verb::kArrive: {
      const MutationResult result = tracker_.arrive(request.app);
      reply.add("id", result.id);
      addSnapshot(result.after);
      break;
    }
    case Verb::kDepart: {
      const MutationResult result = tracker_.depart(request.applicationId);
      reply.add("id", result.id);
      addSnapshot(result.after);
      break;
    }
    case Verb::kSlowdown:
      addSnapshot(tracker_.slowdowns());
      break;
    case Verb::kPredict: {
      const TaskPrediction prediction = tracker_.predict(request.task);
      reply.add("name", request.task.name);
      reply.add("epoch", prediction.epoch);
      reply.add("front", prediction.frontSec);
      reply.add("remote", prediction.remoteSec);
      reply.add("decision", prediction.offload ? "back-end" : "front-end");
      reply.add("cache", prediction.cacheHit ? "hit" : "miss");
      break;
    }
    case Verb::kPredictBatch: {
      const std::vector<TaskPrediction> predictions =
          tracker_.predictBatch(request.batch);
      if (predictions.empty()) {
        // The parser rejects empty batches, but predictions.front() below
        // must never become UB if a tracker refactor (or a future verb
        // reusing this path) returns nothing.
        throw ProtocolError(kErrEmptyBatch,
                            "PREDICT_BATCH: tracker returned no predictions");
      }
      reply.add("count", static_cast<std::uint64_t>(predictions.size()));
      // The whole batch is evaluated against one mix snapshot, so a single
      // epoch field covers every task.
      reply.add("epoch", predictions.front().epoch);
      for (std::size_t i = 0; i < predictions.size(); ++i) {
        const TaskPrediction& prediction = predictions[i];
        reply.add("name", i, request.batch[i].name);
        reply.add("front", i, prediction.frontSec);
        reply.add("remote", i, prediction.remoteSec);
        reply.add("decision", i, prediction.offload ? "back-end" : "front-end");
        reply.add("cache", i, prediction.cacheHit ? "hit" : "miss");
      }
      break;
    }
    case Verb::kHealth: {
      // The liveness/durability summary a supervisor polls: cheap (one
      // snapshot load plus journal counter reads), and stable keys.
      const SlowdownSnapshot snapshot = tracker_.slowdowns();
      const double uptime =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        startTime_)
              .count();
      reply.add("uptime_s", uptime);
      reply.add("epoch", snapshot.epoch);
      reply.add("p", static_cast<std::uint64_t>(snapshot.active));
      reply.add("recovered",
                static_cast<std::uint64_t>(config_.recovered ? 1 : 0));
      reply.add("engine", "epoll");  // one core; the key keeps the schema
      reply.add("backlog", static_cast<std::uint64_t>(config_.backlog));
      if (config_.journal != nullptr) {
        const JournalStats journal = config_.journal->stats();
        // A journal that has ever failed an append is no longer a complete
        // record of the mix; report it degraded so supervisors alert instead
        // of trusting a silently lossy durability story.
        reply.add("journal", journal.appendErrors > 0 ? "degraded" : "on");
        reply.add("journal_lag_records", journal.lagRecords);
        reply.add("journal_append_errors", journal.appendErrors);
      } else {
        reply.add("journal", "off");
        reply.add("journal_lag_records", std::uint64_t{0});
        reply.add("journal_append_errors", std::uint64_t{0});
      }
      // Always present (0 / standalone when unclustered) so dashboards and
      // supervisors have a stable schema.
      if (config_.replication != nullptr) {
        reply.add("repl_role", replRoleName(config_.replication->role()));
        reply.add("repl_lag_records", config_.replication->lagRecords());
      } else {
        reply.add("repl_role", replRoleName(ReplRole::kStandalone));
        reply.add("repl_lag_records", std::uint64_t{0});
      }
      break;
    }
    case Verb::kCalibrate:
      switch (request.calibrate) {
        case CalibrateAction::kReport: {
          const CalibrationReportData report = tracker_.calibrationReport();
          reply.add("generation", tracker_.tableGeneration());
          reply.add("observations", report.observations);
          reply.add("observations_total", report.observationsTotal);
          reply.add("applies", report.applies);
          reply.add("cells", report.totalCells);
          reply.add("eligible", report.eligibleCells);
          reply.add("drift", report.driftScore);
          reply.add("status", report.drifting ? "drifting" : "ok");
          if (report.sinceApplySec >= 0.0) {
            reply.add("since_apply_s", report.sinceApplySec);
          }
          // The worst cells, residual-sorted, as indexed fields; capped so a
          // long-lived estimator cannot grow the response without bound.
          const std::size_t top = std::min<std::size_t>(report.cells.size(),
                                                        16);
          reply.add("top", static_cast<std::uint64_t>(top));
          for (std::size_t i = 0; i < top; ++i) {
            const CalibrationCellReport& cell = report.cells[i];
            reply.add("family", i, observationFamilyName(cell.family));
            reply.add("contenders", i,
                      static_cast<std::uint64_t>(cell.contenders));
            reply.add("bin", i, static_cast<std::uint64_t>(cell.bin));
            reply.add("samples", i, cell.samples);
            reply.add("mean", i, cell.mean);
            reply.add("current", i, cell.current);
            reply.add("residual", i, cell.residual);
          }
          break;
        }
        case CalibrateAction::kObserve: {
          tracker_.observeCalibration(request.observation);
          reply.add("action", "observe");
          reply.add("generation", tracker_.tableGeneration());
          break;
        }
        case CalibrateAction::kApply: {
          const ConcurrentTracker::CalibrationApplyResult result =
              tracker_.applyCalibration();
          reply.add("action", "apply");
          reply.add("generation", result.generation);
          addSnapshot(result.after);
          break;
        }
      }
      break;
    case Verb::kDrift: {
      const ConcurrentTracker::DriftResult drift = tracker_.drift();
      reply.add("status", drift.drifting ? "drifting" : "ok");
      reply.add("score", drift.score);
      reply.add("threshold", drift.threshold);
      reply.add("eligible", drift.eligibleCells);
      reply.add("generation", drift.generation);
      break;
    }
    case Verb::kMetrics:
      // answer() appends the METRICS exposition before ever calling
      // handle(); reaching this case means that wiring broke.
      throw ProtocolError(kErrInternal,
                          "METRICS is answered as an exposition, not a "
                          "Response");
    case Verb::kStats: {
      const TrackerStats stats = tracker_.stats();
      reply.add("epoch", stats.epoch);
      reply.add("signature", stats.signature);
      reply.add("p", static_cast<std::uint64_t>(stats.active));
      reply.add("table_generation", stats.tableGeneration);
      reply.add("engine", "epoll");  // one core; the key keeps the schema
      reply.add("backlog", static_cast<std::uint64_t>(config_.backlog));
      reply.add("arrivals", stats.arrivals);
      reply.add("departures", stats.departures);
      reply.add("cache_hits", stats.cacheHits);
      reply.add("cache_misses", stats.cacheMisses);
      reply.add("cache_evictions", stats.cacheEvictions);
      reply.add("cache_entries",
                static_cast<std::uint64_t>(stats.cacheEntries));
      const std::uint64_t lookups = stats.cacheHits + stats.cacheMisses;
      reply.add("cache_hit_rate",
                lookups == 0 ? 0.0
                             : static_cast<double>(stats.cacheHits) /
                                   static_cast<double>(lookups));
      reply.add("cache_shards",
                static_cast<std::uint64_t>(stats.cacheShards.size()));
      for (std::size_t i = 0; i < stats.cacheShards.size(); ++i) {
        const PredictionCache::ShardStats& shard = stats.cacheShards[i];
        const std::string prefix = "shard" + std::to_string(i) + '_';
        reply.add(prefix + "hits", shard.hits);
        reply.add(prefix + "misses", shard.misses);
        reply.add(prefix + "evictions", shard.evictions);
        reply.add(prefix + "entries",
                  static_cast<std::uint64_t>(shard.entries));
      }
      if (config_.journal != nullptr) {
        const JournalStats journal = config_.journal->stats();
        reply.add("journal_records", journal.records);
        reply.add("journal_bytes", journal.bytes);
        reply.add("journal_snapshots", journal.snapshots);
        reply.add("journal_fsyncs", journal.fsyncs);
        reply.add("journal_append_errors", journal.appendErrors);
        reply.add("journal_lag_records", journal.lagRecords);
      }
      if (config_.replication != nullptr) {
        reply.add("repl_role", replRoleName(config_.replication->role()));
        reply.add("repl_lag_records", config_.replication->lagRecords());
        reply.add("repl_acked_epoch", config_.replication->ackedEpoch());
      } else {
        reply.add("repl_role", replRoleName(ReplRole::kStandalone));
        reply.add("repl_lag_records", std::uint64_t{0});
        reply.add("repl_acked_epoch", std::uint64_t{0});
      }
      metrics_.fill(reply);
      break;
    }
    case Verb::kRepl:
      handleRepl(request, reply);
      break;
  }
}

void Server::handleRepl(const Request& request, ReplyEncoder& reply) {
  ReplicationState* repl = config_.replication;
  const ReplRole role =
      repl != nullptr ? repl->role() : ReplRole::kStandalone;
  const auto refuse = [](const std::string& message) {
    throw ProtocolError(kErrInvalidArgument, message);
  };
  switch (request.repl) {
    case ReplAction::kHello: {
      reply.add("role", replRoleName(role));
      reply.add("epoch", tracker_.slowdowns().epoch);
      if (repl != nullptr) {
        reply.add("log_floor", repl->log().floorEpoch());
      }
      break;
    }
    case ReplAction::kStatus: {
      reply.add("role", replRoleName(role));
      reply.add("epoch", tracker_.slowdowns().epoch);
      if (repl != nullptr) {
        reply.add("repl_lag_records", repl->lagRecords());
        reply.add("acked_epoch", repl->ackedEpoch());
        reply.add("threshold", repl->maxLagRecords());
        reply.add("caught_up",
                  static_cast<std::uint64_t>(repl->caughtUp() ? 1 : 0));
      } else {
        reply.add("repl_lag_records", std::uint64_t{0});
        reply.add("acked_epoch", std::uint64_t{0});
        reply.add("threshold", std::uint64_t{0});
        reply.add("caught_up", std::uint64_t{1});
      }
      break;
    }
    case ReplAction::kSince: {
      if (repl == nullptr) {
        refuse("REPL SINCE: replication is not configured");
        return;
      }
      const ReplicationLog::Batch batch = repl->log().since(
          request.replEpoch, request.replMax, kReplSinceMaxBytes);
      reply.add("epoch", batch.headEpoch);
      if (batch.snapshotNeeded) {
        reply.add("snapshot_needed", std::uint64_t{1});
        break;
      }
      reply.add("count", static_cast<std::uint64_t>(batch.frames.size()));
      for (std::size_t i = 0; i < batch.frames.size(); ++i) {
        reply.add("frame", i, encodeHex(batch.frames[i].second));
      }
      break;
    }
    case ReplAction::kAck: {
      if (repl == nullptr) {
        refuse("REPL ACK: replication is not configured");
        return;
      }
      repl->noteAck(request.replEpoch);
      reply.add("acked", request.replEpoch);
      break;
    }
    case ReplAction::kSnapshot: {
      if (repl == nullptr) {
        refuse("REPL SNAPSHOT: replication is not configured");
        return;
      }
      const SnapshotImage image = tracker_.exportImage();
      const std::string bytes = encodeSnapshot(image);
      if (request.replOffset > bytes.size()) {
        refuse("REPL SNAPSHOT: offset " +
               std::to_string(request.replOffset) + " past image size " +
               std::to_string(bytes.size()));
        return;
      }
      const std::size_t length =
          std::min(kReplSnapshotChunkBytes,
                   bytes.size() - static_cast<std::size_t>(
                                      request.replOffset));
      reply.add("epoch", image.epoch);
      reply.add("total", static_cast<std::uint64_t>(bytes.size()));
      reply.add("offset", request.replOffset);
      reply.add(
          "chunk",
          encodeHex(std::string_view(bytes).substr(
              static_cast<std::size_t>(request.replOffset), length)));
      break;
    }
    case ReplAction::kPromote: {
      if (repl == nullptr) {
        refuse("REPL PROMOTE: replication is not configured");
        return;
      }
      // Idempotent: promoting a primary (or standalone) is a no-op answer.
      if (repl->role() == ReplRole::kFollower) repl->promote();
      reply.add("role", replRoleName(repl->role()));
      reply.add("epoch", tracker_.slowdowns().epoch);
      break;
    }
  }
}

std::string Server::renderMetricsText() const {
  PrometheusInput input;
  input.metrics = metrics_.snapshot();
  input.tracker = tracker_.stats();
  input.slowdowns = tracker_.slowdowns();
  input.uptimeSec = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - startTime_)
                        .count();
  input.recovered = config_.recovered;
  if (config_.journal != nullptr) {
    input.journal = true;
    input.journalStats = config_.journal->stats();
  }
  if (config_.replication != nullptr) {
    input.replRole = static_cast<int>(config_.replication->role());
    input.replLagRecords = config_.replication->lagRecords();
    input.replAckedEpoch = config_.replication->ackedEpoch();
  }
  return renderPrometheusText(input);
}

}  // namespace contend::serve
