// server.hpp — the contend-serve network front.
//
// One serving core, EventEngine (event_engine.hpp), moves the bytes: a
// small ring of event-loop threads (--loop-threads, default 1) runs a
// non-blocking edge-triggered epoll state machine — per-connection
// incremental framing straight over recv buffers, pipelined replies
// coalesced into one send with EAGAIN backpressure, and a timer wheel for
// the idle timeout and the slow-loris request deadline.
//
// The engine owns only framing, socket I/O, deadlines and refusals. Each
// framed request goes through one step, Server::answer (parse with
// parseRequestText into the connection's reusable Request, dispatch, encode
// straight into the connection's output buffer, count), which tests and
// benches can also call in process. `requestStop()` is async-signal safe
// (an atomic flag plus a self-pipe write), which is what lets the daemon
// drain gracefully from a SIGTERM handler: stop accepting, finish in-flight
// connections, join.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "serve/concurrent_tracker.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"

namespace contend::serve {

class EventEngine;       // serve/event_engine.hpp
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

struct ServerConfig {
  Endpoint endpoint;
  // Connection admission cap: at most workers + queueCapacity connections
  // are live at once; one more is answered `ERR overloaded` and closed.
  int workers = 8;
  std::size_t queueCapacity = 128;
  // Idle receive timeout: a connection that sends nothing for this long is
  // closed. Restarts at every arrival.
  int requestTimeoutMs = 5000;
  // Wall-clock budget for one logical request, armed when a partial request
  // is left buffered and fixed while it drips in, so a slow-loris client
  // that sends one byte per idle window is still cut off. 0 disables it.
  int requestDeadlineMs = 10000;
  // Event-loop threads. One loop costs the least CPU per request for a few
  // clients; more loops raise throughput only with many clients.
  int loopThreads = 1;
  // listen(2) backlog; surfaced in STATS and HEALTH.
  int backlog = 1024;
  // Testing knob: when > 0, shrink accepted sockets' SO_SNDBUF to this many
  // bytes to force partial writes / EAGAIN (exercises the engine's
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

/// Message of the `ERR overloaded` line sent to a connection that arrives
/// over the admission cap, just before closing it.
inline constexpr const char* kOverloadedMessage =
    "server overloaded, try again";

class Server {
 public:
  Server(ServerConfig config, ConcurrentTracker& tracker, Metrics& metrics);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loops. Throws
  /// std::runtime_error on socket errors.
  void start();

  /// Async-signal-safe shutdown trigger (callable from a SIGTERM handler).
  void requestStop();

  /// Blocks until every event loop has drained and joined.
  void wait();

  /// requestStop() + wait().
  void stop();

  /// The port actually bound (after start()); useful with `tcp:...:0`.
  [[nodiscard]] int boundPort() const { return boundPort_; }
  [[nodiscard]] const Endpoint& endpoint() const { return config_.endpoint; }

  /// The per-request step every connection goes through; callable in
  /// process without start(). `text` is one framed request (verb line plus
  /// any PREDICT/PREDICT_BATCH block through its terminator), `request` the
  /// connection's reusable parse target, and `queueWaitUs` how long the
  /// request waited before service, for the slow-request log. Parses,
  /// answers METRICS with the exposition or dispatches, maps exceptions to
  /// ERR codes, counts the request and any error, records its latency and
  /// logs it when slow. The reply is appended to `out`, the connection's
  /// output buffer; comment-only text appends nothing and counts nothing.
  void answer(std::string_view text, Request& request, std::string& out,
              std::uint64_t queueWaitUs);

 private:
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

  std::unique_ptr<EventEngine> engine_;
  std::chrono::steady_clock::time_point startTime_{};  // for HEALTH uptime_s
};

}  // namespace contend::serve
