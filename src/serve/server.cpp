#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/event_engine.hpp"
#include "serve/net_util.hpp"
#include "serve/prometheus.hpp"
#include "serve/replication.hpp"
#include "util/tokens.hpp"

namespace contend::serve {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void setRecvTimeout(int fd, int timeoutMs) {
  if (timeoutMs <= 0) return;
  timeval tv{};
  tv.tv_sec = timeoutMs / 1000;
  tv.tv_usec = (timeoutMs % 1000) * 1000;
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
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

const char* engineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kThreads: return "threads";
    case EngineKind::kEpoll: return "epoll";
    case EngineKind::kAuto: return "auto";
  }
  return "threads";
}

std::optional<EngineKind> engineKindFromName(std::string_view name) {
  if (name == "threads") return EngineKind::kThreads;
  if (name == "epoll") return EngineKind::kEpoll;
  if (name == "auto") return EngineKind::kAuto;
  return std::nullopt;
}

void applyAcceptedSocketOptions(int fd, const ServerConfig& config) {
  if (config.endpoint.kind == Endpoint::Kind::kTcp) {
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  if (config.sendBufBytes > 0) {
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config.sendBufBytes,
                       sizeof(config.sendBufBytes));
  }
}

// ---------------------------------------------------------------------------
// ThreadsEngine — the original accept-thread + bounded-queue + worker-pool
// core, now behind the Engine interface. One worker owns one connection at a
// time; blocking reads are bounded by SO_RCVTIMEO plus FdLineReader's
// per-request deadline window.
// ---------------------------------------------------------------------------
class ThreadsEngine final : public Engine {
 public:
  explicit ThreadsEngine(Server& server)
      : server_(server), config_(server.config_), metrics_(server.metrics_) {}

  ~ThreadsEngine() override {
    for (int fd : {stopPipe_[0], stopPipe_[1]}) {
      if (fd >= 0) ::close(fd);
    }
  }

  void start() override {
    if (::pipe(stopPipe_) != 0) throwErrno("pipe");
    (void)::fcntl(stopPipe_[0], F_SETFD, FD_CLOEXEC);
    (void)::fcntl(stopPipe_[1], F_SETFD, FD_CLOEXEC);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    workers_.reserve(static_cast<std::size_t>(config_.workers));
    for (int i = 0; i < config_.workers; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }

  void requestStop() override {
    stopping_.store(true, std::memory_order_release);
    if (stopPipe_[1] >= 0) {
      const char byte = 's';
      [[maybe_unused]] const auto n = ::write(stopPipe_[1], &byte, 1);
    }
  }

  void wait() override {
    if (acceptThread_.joinable()) acceptThread_.join();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

 private:
  // A connection waiting for a worker, stamped at enqueue so the first
  // request served on it can report how long it sat in the queue.
  struct QueuedConnection {
    int fd = -1;
    std::chrono::steady_clock::time_point enqueued{};
  };

  bool pushConnection(int fd) {
    std::size_t depth = 0;
    {
      std::lock_guard lock(queueMutex_);
      if (queueClosed_ || queue_.size() >= config_.queueCapacity) return false;
      queue_.push_back({fd, std::chrono::steady_clock::now()});
      depth = queue_.size();
    }
    metrics_.observeQueueDepth(depth);
    queueCv_.notify_one();
    return true;
  }

  std::optional<QueuedConnection> popConnection() {
    std::unique_lock lock(queueMutex_);
    queueCv_.wait(lock, [this] { return queueClosed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;  // closed and drained
    const QueuedConnection connection = queue_.front();
    queue_.pop_front();
    return connection;
  }

  void acceptLoop() {
    int backoffMs = 0;
    while (!stopping_.load(std::memory_order_acquire)) {
      pollfd fds[2] = {{server_.listenFd_, POLLIN, 0},
                       {stopPipe_[0], POLLIN, 0}};
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[1].revents != 0) break;  // stop requested
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int fd = ::accept(server_.listenFd_, nullptr, nullptr);
      if (fd < 0) {
        // The peer hanging up between poll and accept is routine, not an
        // error worth counting.
        if (errno == EINTR || errno == ECONNABORTED) continue;
        metrics_.countAcceptError();
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // Resource exhaustion: the pending connection stays in the backlog,
          // so poll() would wake us immediately and the loop would busy-spin.
          // Back off (exponentially, capped) while staying responsive to the
          // stop pipe; workers closing fds is what clears the condition.
          backoffMs = backoffMs == 0 ? 10 : std::min(backoffMs * 2, 1000);
          pollfd pause{stopPipe_[0], POLLIN, 0};
          (void)::poll(&pause, 1, backoffMs);
        }
        continue;
      }
      backoffMs = 0;
      metrics_.countAccepted();
      setRecvTimeout(fd, config_.requestTimeoutMs);
      applyAcceptedSocketOptions(fd, config_);
      if (!pushConnection(fd)) {
        metrics_.countRejected();
        sendAll(fd, errorLine(kErrOverloaded, kOverloadedMessage));
        ::close(fd);
      }
    }
    // Graceful drain: close the listen socket so late connects fail fast
    // (ECONNREFUSED instead of queueing in the kernel backlog), stop feeding
    // workers, and nudge in-flight connections: a read-side shutdown lets
    // requests already received finish while idle keep-alives end immediately.
    const int listening = server_.listenFd_;
    server_.listenFd_ = -1;
    ::close(listening);
    {
      std::lock_guard lock(queueMutex_);
      queueClosed_ = true;
    }
    queueCv_.notify_all();
    {
      std::lock_guard lock(activeMutex_);
      for (const int fd : activeFds_) (void)::shutdown(fd, SHUT_RD);
    }
  }

  void workerLoop() {
    while (true) {
      const std::optional<QueuedConnection> connection = popConnection();
      if (!connection) return;
      const int fd = connection->fd;
      const auto queueWaitUs = static_cast<std::uint64_t>(
          std::max<std::int64_t>(
              0, std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - connection->enqueued)
                     .count()));
      {
        std::lock_guard lock(activeMutex_);
        activeFds_.push_back(fd);
      }
      // Connections popped after the drain began were never swept by the
      // accept loop; give them one short grace window instead of the full
      // request timeout.
      if (stopping_.load(std::memory_order_acquire)) setRecvTimeout(fd, 250);
      serveConnection(fd, queueWaitUs);
      {
        std::lock_guard lock(activeMutex_);
        std::erase(activeFds_, fd);
      }
      ::close(fd);
    }
  }

  void serveConnection(int fd, std::uint64_t queueWaitUs) {
    FdLineReader reader(fd, kMaxRequestLineBytes);
    BufferedWriter writer(fd);
    // Per-connection scratch reused by every request: the received line,
    // the assembled request text and the parse target keep their capacity.
    std::string line;
    std::string requestText;
    Request request;
    // The queue wait belongs to the first request served on the connection;
    // later pipelined/keep-alive requests never sat in the accept queue.
    std::uint64_t pendingQueueWaitUs = queueWaitUs;
    const auto budget =
        std::chrono::milliseconds(std::max(config_.requestDeadlineMs, 0));
    // Answers `ERR <code> <message>`, flushes, and drains the peer's
    // input; used for conditions the connection cannot be resynchronized
    // from, so the caller closes it.
    const auto refuse = [&](std::string_view code, const std::string& message) {
      metrics_.countError();
      appendErrorLine(writer.buffer(), code, message);
      if (writer.flush()) drainBeforeClose(fd, kLingerGrace);
    };
    // Terminal read results other than a plain close get a parting ERR so
    // the peer learns *why* it was disconnected.
    const auto failRead = [&](LineRead status, std::string_view context) {
      if (status == LineRead::kTooLong) {
        metrics_.countLineOverflow();
        refuse(kErrLineTooLong,
               std::string(context) + ": line exceeds " +
                   std::to_string(kMaxRequestLineBytes) + " bytes");
      } else if (status == LineRead::kDeadline) {
        metrics_.countDeadlineExpired();
        refuse(kErrDeadline,
               std::string(context) + ": request deadline exceeded");
      } else {
        (void)writer.flush();  // EOF / idle timeout: nothing left to say
      }
    };
    // Reads a `PREDICT`/`PREDICT_BATCH` body through its terminator into
    // requestText; kClosed covers both a vanished peer and the line cap
    // running out before the terminator (neither can be resynchronized).
    const auto collectBlock = [&](std::string_view terminator,
                                  int maxLines) -> LineRead {
      for (int extra = 0; extra < maxLines; ++extra) {
        const LineRead status = reader.readLine(line);
        if (status != LineRead::kLine) return status;
        requestText += line;
        requestText += '\n';
        if (util::firstTokenIs(line, terminator)) return LineRead::kLine;
      }
      return LineRead::kClosed;
    };
    while (true) {
      // Responses are buffered; flush only when the client has no further
      // request already in the read buffer, so pipelined request bursts are
      // answered with one write syscall.
      if (!reader.hasBufferedLine() && !writer.flush()) break;
      // One wall-clock budget covers the whole logical request (verb line
      // plus any block body), armed when its first byte arrives; a silent
      // keep-alive connection is still governed only by SO_RCVTIMEO.
      reader.beginRequestWindow(budget);
      const LineRead first = reader.readLine(line);
      if (first != LineRead::kLine) {
        failRead(first, "request");
        break;
      }
      // Assemble one logical request: a single line, except PREDICT and
      // PREDICT_BATCH whose blocks run through their terminator lines.
      const std::string_view verbToken = util::firstToken(line);
      if (verbToken.empty()) continue;  // blank / keep-alive noise
      const bool batch = verbToken == "PREDICT_BATCH";
      const bool block = batch || verbToken == "PREDICT";
      requestText.assign(line);
      requestText += '\n';
      if (block) {
        const char* verb = batch ? "PREDICT_BATCH" : "PREDICT";
        const char* terminator = batch ? "end_batch" : "end";
        const LineRead status = collectBlock(
            terminator, batch ? kMaxBatchBlockLines : kMaxPredictBlockLines);
        if (status == LineRead::kClosed) {
          refuse(kErrBlockUnterminated, std::string(verb) +
                                            ": block not closed with '" +
                                            terminator + "'");
          break;  // can't resync a half-read block; drop the connection
        }
        if (status != LineRead::kLine) {
          failRead(status, verb);
          break;
        }
      }

      server_.answer(requestText, request, writer.buffer(),
                     pendingQueueWaitUs);
      pendingQueueWaitUs = 0;
    }
    // Anything still buffered was never delivered; account for it instead of
    // letting the close swallow it silently.
    if (!writer.empty()) metrics_.countDroppedBytes(writer.pendingBytes());
  }

  Server& server_;
  const ServerConfig& config_;
  Metrics& metrics_;

  int stopPipe_[2] = {-1, -1};
  std::thread acceptThread_;
  std::vector<std::thread> workers_;

  std::mutex queueMutex_;
  std::condition_variable queueCv_;
  std::deque<QueuedConnection> queue_;
  bool queueClosed_ = false;

  // Connections currently held by workers; on drain they get a read-side
  // shutdown so already-received requests finish but idle ones end now.
  std::mutex activeMutex_;
  std::vector<int> activeFds_;

  std::atomic<bool> stopping_{false};
};

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

  resolvedEngine_ = config_.engine == EngineKind::kAuto ? EngineKind::kEpoll
                                                        : config_.engine;
  if (resolvedEngine_ == EngineKind::kEpoll) {
    engine_ = std::make_unique<EventEngine>(*this);
  } else {
    engine_ = std::make_unique<ThreadsEngine>(*this);
  }
  startTime_ = std::chrono::steady_clock::now();
  engine_->start();
  started_ = true;
}

void Server::requestStop() {
  // Async-signal-safe: a raw pointer read plus the engine's atomic flag and
  // self-pipe write. No locks, no allocation.
  if (Engine* engine = engine_.get()) engine->requestStop();
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
      reply.add("engine", engineKindName(resolvedEngine_));
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
      reply.add("engine", engineKindName(resolvedEngine_));
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
