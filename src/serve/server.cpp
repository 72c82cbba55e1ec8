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
    std::string line;
    // The queue wait belongs to the first request served on the connection;
    // later pipelined/keep-alive requests never sat in the accept queue.
    std::uint64_t pendingQueueWaitUs = queueWaitUs;
    const auto budget =
        std::chrono::milliseconds(std::max(config_.requestDeadlineMs, 0));
    // Answers `ERR <code> <message>`, flushes, and drains the peer's
    // input; used for conditions the connection cannot be resynchronized
    // from, so the caller closes it.
    const auto refuse = [&](std::string_view code, std::string message) {
      metrics_.countError();
      writer.append(errorLine(code, std::move(message)));
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
    const auto collectBlock = [&](std::string& requestText,
                                  std::string_view terminator,
                                  int maxLines) -> LineRead {
      for (int extra = 0; extra < maxLines; ++extra) {
        const LineRead status = reader.readLine(line);
        if (status != LineRead::kLine) return status;
        requestText += line;
        requestText += '\n';
        if (util::firstToken(line) == terminator) return LineRead::kLine;
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
      std::string requestText = line;
      requestText += '\n';
      const std::string_view verbToken = util::firstToken(line);
      if (verbToken.empty()) continue;  // blank / keep-alive noise
      if (verbToken == "PREDICT" || verbToken == "PREDICT_BATCH") {
        // collectBlock reuses `line`, invalidating views into it.
        const std::string verb(verbToken);
        const bool batch = verb == "PREDICT_BATCH";
        const LineRead block =
            collectBlock(requestText, batch ? "end_batch" : "end",
                         batch ? kMaxBatchBlockLines : kMaxPredictBlockLines);
        if (block == LineRead::kClosed) {
          refuse(kErrBlockUnterminated,
                 verb + ": block not closed with '" +
                     (batch ? "end_batch" : "end") + "'");
          break;  // can't resync a half-read block; drop the connection
        }
        if (block != LineRead::kLine) {
          failRead(block, verb);
          break;
        }
      }

      writer.append(server_.answer(requestText, pendingQueueWaitUs));
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

std::string Server::answer(std::string_view text,
                           std::uint64_t queueWaitUs) {
  const auto begin = std::chrono::steady_clock::now();
  Response response;
  // METRICS bypasses Response formatting: its answer is the multi-line
  // Prometheus exposition, written verbatim through its `# EOF` line.
  std::string reply;
  std::optional<Verb> verb;
  try {
    const std::optional<Request> request = parseRequestText(text);
    if (!request) return reply;  // comment-only text: no reply, no counters
    verb = request->verb;
    if (request->verb == Verb::kMetrics) {
      reply = renderMetricsText();
    } else {
      response = handle(*request);
    }
  } catch (const ProtocolError& error) {
    response.ok = false;
    response.code = error.code();
    response.error = error.what();
  } catch (const std::invalid_argument& error) {
    // Semantic rejections from the tracker (unknown id, out-of-order event,
    // mix overflow): the request was well-formed, the state said no.
    response.ok = false;
    response.code = kErrInvalidArgument;
    response.error = error.what();
  } catch (const std::exception& error) {
    response.ok = false;
    response.code = kErrInternal;
    response.error = error.what();
  }
  if (verb) metrics_.countRequest(*verb);
  if (reply.empty()) {
    if (!response.ok) metrics_.countError();
    reply = formatResponse(response) + '\n';
  }
  if (!verb) return reply;
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  metrics_.observeLatency(*verb, elapsed);
  const auto durationUs = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
             .count()));
  if (config_.slowRequestUs > 0 && durationUs >= config_.slowRequestUs) {
    metrics_.countSlowRequest();
    std::fprintf(stderr,
                 "contend-served: slow request verb=%s bytes=%zu "
                 "duration_us=%llu queue_wait_us=%llu\n",
                 verbName(*verb), text.size(),
                 static_cast<unsigned long long>(durationUs),
                 static_cast<unsigned long long>(queueWaitUs));
  }
  return reply;
}

Response Server::handle(const Request& request) {
  Response response;
  response.add("verb", std::string(verbName(request.verb)));
  const auto addSnapshot = [&response](const SlowdownSnapshot& snapshot) {
    response.add("epoch", snapshot.epoch);
    response.add("p", static_cast<std::uint64_t>(snapshot.active));
    response.add("comp", snapshot.comp);
    response.add("comm", snapshot.comm);
    response.add("io", snapshot.io);
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
        response.ok = false;
        response.code = kErrReadOnly;
        response.error = "follower is read-only; send mutations to the "
                         "shard primary";
        return response;
      case Verb::kCalibrate:
        if (request.calibrate != CalibrateAction::kReport) {
          response.ok = false;
          response.code = kErrReadOnly;
          response.error = "follower is read-only; calibrate via the shard "
                           "primary";
          return response;
        }
        break;
      case Verb::kPredict:
      case Verb::kPredictBatch:
      case Verb::kSlowdown:
        if (!config_.replication->caughtUp()) {
          response.ok = false;
          response.code = kErrNotCaughtUp;
          response.error =
              "follower lags " +
              std::to_string(config_.replication->lagRecords()) +
              " records behind the primary (threshold " +
              std::to_string(config_.replication->maxLagRecords()) + ")";
          return response;
        }
        break;
      default:
        break;
    }
  }
  switch (request.verb) {
    case Verb::kArrive: {
      const MutationResult result = tracker_.arrive(request.app);
      response.add("id", result.id);
      addSnapshot(result.after);
      break;
    }
    case Verb::kDepart: {
      const MutationResult result = tracker_.depart(request.applicationId);
      response.add("id", result.id);
      addSnapshot(result.after);
      break;
    }
    case Verb::kSlowdown:
      addSnapshot(tracker_.slowdowns());
      break;
    case Verb::kPredict: {
      const TaskPrediction prediction = tracker_.predict(request.task);
      response.add("name", request.task.name);
      response.add("epoch", prediction.epoch);
      response.add("front", prediction.frontSec);
      response.add("remote", prediction.remoteSec);
      response.add("decision", std::string(prediction.offload ? "back-end"
                                                              : "front-end"));
      response.add("cache", std::string(prediction.cacheHit ? "hit" : "miss"));
      break;
    }
    case Verb::kPredictBatch: {
      const std::vector<TaskPrediction> predictions =
          tracker_.predictBatch(request.batch);
      if (predictions.empty()) {
        // The parser rejects empty batches, but predictions.front() below
        // must never become UB if a tracker refactor (or a future verb
        // reusing this path) returns nothing.
        response.ok = false;
        response.code = kErrEmptyBatch;
        response.error = "PREDICT_BATCH: tracker returned no predictions";
        break;
      }
      response.add("count", static_cast<std::uint64_t>(predictions.size()));
      // The whole batch is evaluated against one mix snapshot, so a single
      // epoch field covers every task.
      response.add("epoch", predictions.front().epoch);
      for (std::size_t i = 0; i < predictions.size(); ++i) {
        const std::string suffix = '.' + std::to_string(i);
        const TaskPrediction& prediction = predictions[i];
        response.add("name" + suffix, request.batch[i].name);
        response.add("front" + suffix, prediction.frontSec);
        response.add("remote" + suffix, prediction.remoteSec);
        response.add("decision" + suffix,
                     std::string(prediction.offload ? "back-end"
                                                    : "front-end"));
        response.add("cache" + suffix,
                     std::string(prediction.cacheHit ? "hit" : "miss"));
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
      response.add("uptime_s", uptime);
      response.add("epoch", snapshot.epoch);
      response.add("p", static_cast<std::uint64_t>(snapshot.active));
      response.add("recovered",
                   static_cast<std::uint64_t>(config_.recovered ? 1 : 0));
      response.add("engine", std::string(engineKindName(resolvedEngine_)));
      response.add("backlog", static_cast<std::uint64_t>(config_.backlog));
      if (config_.journal != nullptr) {
        const JournalStats journal = config_.journal->stats();
        // A journal that has ever failed an append is no longer a complete
        // record of the mix; report it degraded so supervisors alert instead
        // of trusting a silently lossy durability story.
        response.add("journal", std::string(journal.appendErrors > 0
                                                ? "degraded"
                                                : "on"));
        response.add("journal_lag_records", journal.lagRecords);
        response.add("journal_append_errors", journal.appendErrors);
      } else {
        response.add("journal", std::string("off"));
        response.add("journal_lag_records", std::uint64_t{0});
        response.add("journal_append_errors", std::uint64_t{0});
      }
      // Always present (0 / standalone when unclustered) so dashboards and
      // supervisors have a stable schema.
      if (config_.replication != nullptr) {
        response.add("repl_role",
                     std::string(replRoleName(config_.replication->role())));
        response.add("repl_lag_records", config_.replication->lagRecords());
      } else {
        response.add("repl_role",
                     std::string(replRoleName(ReplRole::kStandalone)));
        response.add("repl_lag_records", std::uint64_t{0});
      }
      break;
    }
    case Verb::kCalibrate:
      switch (request.calibrate) {
        case CalibrateAction::kReport: {
          const CalibrationReportData report = tracker_.calibrationReport();
          response.add("generation", tracker_.tableGeneration());
          response.add("observations", report.observations);
          response.add("observations_total", report.observationsTotal);
          response.add("applies", report.applies);
          response.add("cells", report.totalCells);
          response.add("eligible", report.eligibleCells);
          response.add("drift", report.driftScore);
          response.add("status",
                       std::string(report.drifting ? "drifting" : "ok"));
          if (report.sinceApplySec >= 0.0) {
            response.add("since_apply_s", report.sinceApplySec);
          }
          // The worst cells, residual-sorted, as indexed fields; capped so a
          // long-lived estimator cannot grow the response without bound.
          const std::size_t top = std::min<std::size_t>(report.cells.size(),
                                                        16);
          response.add("top", static_cast<std::uint64_t>(top));
          for (std::size_t i = 0; i < top; ++i) {
            const CalibrationCellReport& cell = report.cells[i];
            const std::string suffix = '.' + std::to_string(i);
            response.add("family" + suffix,
                         std::string(observationFamilyName(cell.family)));
            response.add("contenders" + suffix,
                         static_cast<std::uint64_t>(cell.contenders));
            response.add("bin" + suffix,
                         static_cast<std::uint64_t>(cell.bin));
            response.add("samples" + suffix, cell.samples);
            response.add("mean" + suffix, cell.mean);
            response.add("current" + suffix, cell.current);
            response.add("residual" + suffix, cell.residual);
          }
          break;
        }
        case CalibrateAction::kObserve: {
          tracker_.observeCalibration(request.observation);
          response.add("action", std::string("observe"));
          response.add("generation", tracker_.tableGeneration());
          break;
        }
        case CalibrateAction::kApply: {
          const ConcurrentTracker::CalibrationApplyResult result =
              tracker_.applyCalibration();
          response.add("action", std::string("apply"));
          response.add("generation", result.generation);
          addSnapshot(result.after);
          break;
        }
      }
      break;
    case Verb::kDrift: {
      const ConcurrentTracker::DriftResult drift = tracker_.drift();
      response.add("status",
                   std::string(drift.drifting ? "drifting" : "ok"));
      response.add("score", drift.score);
      response.add("threshold", drift.threshold);
      response.add("eligible", drift.eligibleCells);
      response.add("generation", drift.generation);
      break;
    }
    case Verb::kMetrics:
      // The engines answer METRICS with the exposition before ever calling
      // handle(); reaching this case means that wiring broke.
      response.ok = false;
      response.code = kErrInternal;
      response.error = "METRICS is answered as an exposition, not a Response";
      break;
    case Verb::kStats: {
      const TrackerStats stats = tracker_.stats();
      response.add("epoch", stats.epoch);
      response.add("signature", stats.signature);
      response.add("p", static_cast<std::uint64_t>(stats.active));
      response.add("table_generation", stats.tableGeneration);
      response.add("engine", std::string(engineKindName(resolvedEngine_)));
      response.add("backlog", static_cast<std::uint64_t>(config_.backlog));
      response.add("arrivals", stats.arrivals);
      response.add("departures", stats.departures);
      response.add("cache_hits", stats.cacheHits);
      response.add("cache_misses", stats.cacheMisses);
      response.add("cache_evictions", stats.cacheEvictions);
      response.add("cache_entries",
                   static_cast<std::uint64_t>(stats.cacheEntries));
      const std::uint64_t lookups = stats.cacheHits + stats.cacheMisses;
      response.add("cache_hit_rate",
                   lookups == 0 ? 0.0
                                : static_cast<double>(stats.cacheHits) /
                                      static_cast<double>(lookups));
      response.add("cache_shards",
                   static_cast<std::uint64_t>(stats.cacheShards.size()));
      for (std::size_t i = 0; i < stats.cacheShards.size(); ++i) {
        const PredictionCache::ShardStats& shard = stats.cacheShards[i];
        const std::string prefix = "shard" + std::to_string(i) + '_';
        response.add(prefix + "hits", shard.hits);
        response.add(prefix + "misses", shard.misses);
        response.add(prefix + "evictions", shard.evictions);
        response.add(prefix + "entries",
                     static_cast<std::uint64_t>(shard.entries));
      }
      if (config_.journal != nullptr) {
        const JournalStats journal = config_.journal->stats();
        response.add("journal_records", journal.records);
        response.add("journal_bytes", journal.bytes);
        response.add("journal_snapshots", journal.snapshots);
        response.add("journal_fsyncs", journal.fsyncs);
        response.add("journal_append_errors", journal.appendErrors);
        response.add("journal_lag_records", journal.lagRecords);
      }
      if (config_.replication != nullptr) {
        response.add("repl_role",
                     std::string(replRoleName(config_.replication->role())));
        response.add("repl_lag_records", config_.replication->lagRecords());
        response.add("repl_acked_epoch", config_.replication->ackedEpoch());
      } else {
        response.add("repl_role",
                     std::string(replRoleName(ReplRole::kStandalone)));
        response.add("repl_lag_records", std::uint64_t{0});
        response.add("repl_acked_epoch", std::uint64_t{0});
      }
      metrics_.fill(response);
      break;
    }
    case Verb::kRepl:
      handleRepl(request, response);
      break;
  }
  return response;
}

void Server::handleRepl(const Request& request, Response& response) {
  ReplicationState* repl = config_.replication;
  const ReplRole role =
      repl != nullptr ? repl->role() : ReplRole::kStandalone;
  const auto refuse = [&response](std::string message) {
    response.ok = false;
    response.code = kErrInvalidArgument;
    response.error = std::move(message);
  };
  switch (request.repl) {
    case ReplAction::kHello: {
      response.add("role", std::string(replRoleName(role)));
      response.add("epoch", tracker_.slowdowns().epoch);
      if (repl != nullptr) {
        response.add("log_floor", repl->log().floorEpoch());
      }
      break;
    }
    case ReplAction::kStatus: {
      response.add("role", std::string(replRoleName(role)));
      response.add("epoch", tracker_.slowdowns().epoch);
      if (repl != nullptr) {
        response.add("repl_lag_records", repl->lagRecords());
        response.add("acked_epoch", repl->ackedEpoch());
        response.add("threshold", repl->maxLagRecords());
        response.add("caught_up",
                     static_cast<std::uint64_t>(repl->caughtUp() ? 1 : 0));
      } else {
        response.add("repl_lag_records", std::uint64_t{0});
        response.add("acked_epoch", std::uint64_t{0});
        response.add("threshold", std::uint64_t{0});
        response.add("caught_up", std::uint64_t{1});
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
      response.add("epoch", batch.headEpoch);
      if (batch.snapshotNeeded) {
        response.add("snapshot_needed", std::uint64_t{1});
        break;
      }
      response.add("count",
                   static_cast<std::uint64_t>(batch.frames.size()));
      for (std::size_t i = 0; i < batch.frames.size(); ++i) {
        response.add("frame." + std::to_string(i),
                     encodeHex(batch.frames[i].second));
      }
      break;
    }
    case ReplAction::kAck: {
      if (repl == nullptr) {
        refuse("REPL ACK: replication is not configured");
        return;
      }
      repl->noteAck(request.replEpoch);
      response.add("acked", request.replEpoch);
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
      response.add("epoch", image.epoch);
      response.add("total", static_cast<std::uint64_t>(bytes.size()));
      response.add("offset", request.replOffset);
      response.add(
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
      response.add("role", std::string(replRoleName(repl->role())));
      response.add("epoch", tracker_.slowdowns().epoch);
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
