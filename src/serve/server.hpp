// server.hpp — the contend-serve network front.
//
// Two interchangeable serving cores answer the same protocol behind the
// Engine interface:
//
//  - ThreadsEngine (--engine threads, the default): one thread accepts
//    connections and pushes the fds onto a bounded queue; N workers pop a
//    connection each and serve its requests with blocking reads until the
//    client closes, errors, or a read times out (per-request timeout via
//    SO_RCVTIMEO). When the queue is full, new connections are refused with
//    a one-line `ERR` so clients fail fast instead of piling up.
//
//  - EventEngine (--engine epoll, see event_engine.hpp): a small ring of
//    event-loop threads runs a non-blocking edge-triggered epoll state
//    machine — per-connection incremental parsing straight over recv
//    buffers, pipelined replies coalesced into one send with EAGAIN
//    backpressure, and a timer wheel enforcing the same idle-timeout and
//    slow-loris deadline guarantees. `--engine auto` prefers epoll.
//
// The engines own only framing, socket I/O, deadlines and refusals. Each
// framed request goes through one shared step, Server::answer (parse with
// parseRequestText into the connection's reusable Request, dispatch, encode
// straight into the connection's output buffer, count), so both answer
// identical verbs with identical ERR codes and feed the same Metrics.
// `requestStop()` is async-signal safe in both (an atomic flag plus a
// self-pipe write), which is what lets the daemon drain gracefully from a
// SIGTERM handler: stop accepting, finish queued and in-flight
// connections, join.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "serve/concurrent_tracker.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"

namespace contend::serve {

class ReplicationState;  // serve/replication.hpp

/// Where to listen/connect. Specs: `unix:/path/to.sock`,
/// `tcp:host:port`, or `tcp:port` (host defaults to 127.0.0.1).
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;               // unix
  std::string host = "127.0.0.1";  // tcp
  int port = 0;                   // tcp; 0 picks an ephemeral port
};

/// Throws std::invalid_argument on a malformed spec.
[[nodiscard]] Endpoint parseEndpoint(const std::string& spec);
[[nodiscard]] std::string endpointToString(const Endpoint& endpoint);

/// Which serving core runs the socket I/O.
enum class EngineKind { kThreads, kEpoll, kAuto };

[[nodiscard]] const char* engineKindName(EngineKind kind);
/// nullopt on anything other than "threads" | "epoll" | "auto".
[[nodiscard]] std::optional<EngineKind> engineKindFromName(
    std::string_view name);

struct ServerConfig {
  Endpoint endpoint;
  int workers = 8;
  std::size_t queueCapacity = 128;
  int requestTimeoutMs = 5000;  // per socket read; bounds drain time too
  // Wall-clock budget for one logical request, armed when its first byte
  // arrives. SO_RCVTIMEO alone is per-recv, so a slow-loris client dripping
  // one byte per timeout window would otherwise pin a worker forever. The
  // worst-case disconnect time is requestDeadlineMs + requestTimeoutMs
  // (deadline checks happen between recvs). 0 disables the deadline.
  int requestDeadlineMs = 10000;
  // Serving core; kAuto resolves to epoll at start(). The workers/queue
  // knobs above govern the threads engine directly; the epoll engine reuses
  // workers + queueCapacity as its connection admission cap, so overload
  // semantics (ERR overloaded before close) stay identical across engines.
  EngineKind engine = EngineKind::kThreads;
  // Event-loop threads for the epoll engine (threads engine ignores this).
  int loopThreads = 1;
  // listen(2) backlog; surfaced in STATS and HEALTH.
  int backlog = 1024;
  // Testing knob: when > 0, shrink accepted sockets' SO_SNDBUF to this many
  // bytes to force partial writes / EAGAIN (exercises the epoll engine's
  // write-resumption path). 0 leaves the kernel default.
  int sendBufBytes = 0;
  // Optional write-ahead journal (not owned; must outlive the server). Its
  // counters feed the STATS and HEALTH responses; the tracker does the
  // actual appending.
  Journal* journal = nullptr;
  // True when the tracker was rebuilt from persisted state at startup;
  // surfaced verbatim as HEALTH's `recovered` field.
  bool recovered = false;
  // Requests at least this slow (service time, µs) are counted and logged as
  // one structured stderr line each (verb, bytes, duration, queue wait).
  // 0 disables the threshold.
  std::uint64_t slowRequestUs = 0;
  // Cluster role + lag state (not owned; must outlive the server). nullptr
  // for a standalone daemon. A primary serves REPL SINCE/SNAPSHOT from it;
  // a follower gates reads on its lag and refuses mutations.
  ReplicationState* replication = nullptr;
};

/// One serving core, created by Server::start() after the listen socket
/// exists. Implementations: ThreadsEngine (server.cpp) and EventEngine
/// (event_engine.{hpp,cpp}).
class Engine {
 public:
  virtual ~Engine() = default;
  /// Spawns the engine's threads. Throws std::runtime_error on failure.
  virtual void start() = 0;
  /// Async-signal-safe shutdown trigger.
  virtual void requestStop() = 0;
  /// Blocks until every engine thread has drained and joined.
  virtual void wait() = 0;
};

/// Socket options every accepted connection gets, in both engines:
/// TCP_NODELAY on tcp sockets (small pipelined request/response lines must
/// not sit out Nagle/delayed-ACK stalls) and the optional SO_SNDBUF shrink.
void applyAcceptedSocketOptions(int fd, const ServerConfig& config);

/// Message of the `ERR overloaded` line both engines send a connection that
/// arrives over the admission cap, just before closing it.
inline constexpr const char* kOverloadedMessage =
    "server overloaded, try again";

class Server {
 public:
  Server(ServerConfig config, ConcurrentTracker& tracker, Metrics& metrics);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the configured engine. Throws
  /// std::runtime_error on socket errors.
  void start();

  /// Async-signal-safe shutdown trigger (callable from a SIGTERM handler).
  void requestStop();

  /// Blocks until the engine has stopped and all its threads have drained.
  void wait();

  /// requestStop() + wait().
  void stop();

  /// The port actually bound (after start()); useful with `tcp:...:0`.
  [[nodiscard]] int boundPort() const { return boundPort_; }
  [[nodiscard]] const Endpoint& endpoint() const { return config_.endpoint; }
  /// The engine actually serving (kAuto resolved); meaningful after start().
  [[nodiscard]] EngineKind engineKind() const { return resolvedEngine_; }

  /// The per-request step both engines share; callable in process without
  /// start(). `text` is one framed request (verb line plus any
  /// PREDICT/PREDICT_BATCH block through its terminator), `request` the
  /// connection's reusable parse target, and `queueWaitUs` how long the
  /// request waited before service, for the slow-request log. Parses,
  /// answers METRICS with the exposition or dispatches, maps exceptions to
  /// ERR codes, counts the request and any error, records its latency and
  /// logs it when slow. The reply is appended to `out`, the connection's
  /// output buffer; comment-only text appends nothing and counts nothing.
  void answer(std::string_view text, Request& request, std::string& out,
              std::uint64_t queueWaitUs);

 private:
  // Both engines drive the same request dispatch and observability surface;
  // they differ only in how bytes move.
  friend class ThreadsEngine;
  friend class EventEngine;

  /// Encodes the OK reply to `request`; refusals (read-only follower,
  /// lagging follower, REPL without replication) throw ProtocolError, which
  /// answer() turns into the ERR line.
  void handle(const Request& request, ReplyEncoder& reply);
  /// The REPL verb (handshake, frame streaming, snapshot chunks, ack,
  /// promote) — split out of handle() for readability.
  void handleRepl(const Request& request, ReplyEncoder& reply);
  /// One consistent read of counters/tracker/journal rendered as the
  /// Prometheus text exposition the METRICS verb answers with.
  [[nodiscard]] std::string renderMetricsText() const;

  ServerConfig config_;
  ConcurrentTracker& tracker_;
  Metrics& metrics_;

  int listenFd_ = -1;
  int boundPort_ = 0;
  bool started_ = false;
  bool joined_ = false;
  // True only after we successfully bound a unix endpoint, i.e. the socket
  // file on disk is ours to unlink. Guards the destructor against removing
  // a file bound by someone else after our bind failed.
  bool ownsSocketFile_ = false;

  EngineKind resolvedEngine_ = EngineKind::kThreads;
  std::unique_ptr<Engine> engine_;
  std::chrono::steady_clock::time_point startTime_{};  // for HEALTH uptime_s
};

}  // namespace contend::serve
