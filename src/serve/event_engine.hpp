// event_engine.hpp — the daemon's serving core.
//
// A small ring of event-loop threads runs a non-blocking, edge-triggered
// epoll state machine. Each connection lives on exactly one loop for its
// whole life, so per-connection state needs no locking:
//
//  - Loop 0 owns the (level-triggered) listen socket and distributes
//    accepted fds round-robin across the loops through a tiny mutex-guarded
//    inbox plus a wake pipe. (SO_REUSEPORT would shard accepts in-kernel but
//    does not exist for unix sockets, which the test suites and the default
//    daemon endpoint use.)
//  - Reads are edge-triggered and drained to EAGAIN into a per-connection
//    buffer; requests are framed in place over that buffer and each framed
//    view goes to Server::answer, the parse-dispatch-encode step — no
//    per-line copies, no thread handoff.
//  - Replies are encoded straight into one output buffer per connection and
//    leave via one send, so a pipelined burst is answered with one syscall.
//    EAGAIN arms EPOLLOUT and resumes exactly where the partial write
//    stopped; a 256 KiB write backlog pauses reads, and the answering of
//    requests already read, on that connection until the peer drains to
//    half that (slow-reader backpressure).
//  - A 256-slot × 25 ms timer wheel enforces the idle receive timeout and
//    the per-request slow-loris deadline. Entries are (fd, generation)
//    pairs checked lazily, so extending a deadline never has to find and
//    remove a wheel entry.
//  - Connections that cannot be resynchronized (over-long line, open block
//    at EOF or past its line cap, expired deadline) get one `ERR` line and a
//    lingering close; connections over the admission cap get `ERR
//    overloaded`. A graceful stop closes the listen socket, serves what was
//    already received and force-closes stragglers after a short grace.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/server.hpp"

namespace contend::serve {

class EventEngine {
 public:
  explicit EventEngine(Server& server);
  ~EventEngine();

  /// Spawns the loop threads. Throws std::runtime_error on failure.
  void start();
  /// Async-signal-safe shutdown trigger.
  void requestStop();
  /// Blocks until every loop thread has drained and joined.
  void wait();

 private:
  struct ConnState;
  struct Loop;

  void loopMain(Loop& loop);
  void handleAccept(Loop& loop);
  void resumeAcceptIfDue(Loop& loop);
  void adoptInbox(Loop& loop);
  void registerConnection(Loop& loop, int fd,
                          std::chrono::steady_clock::time_point acceptTime);
  void handleConnEvent(Loop& loop, int fd, std::uint32_t events);
  [[nodiscard]] bool readAndProcess(Loop& loop, ConnState& conn);
  [[nodiscard]] bool processBuffered(Loop& loop, ConnState& conn);
  /// Hands one framed request to Server::answer, which appends the reply
  /// to the connection's output buffer.
  void dispatchRequest(Loop& loop, ConnState& conn, std::string_view text);
  /// Pauses reads once the output backlog crosses the high water.
  void noteQueued(Loop& loop, ConnState& conn);
  [[nodiscard]] bool flushOut(Loop& loop, ConnState& conn);
  /// Appends `ERR <code> <message>`, then lingers and closes once it is
  /// delivered (or drops it with the connection if the peer never drains
  /// it).
  [[nodiscard]] bool refuseAndClose(Loop& loop, ConnState& conn,
                                    std::string_view code,
                                    const std::string& message);
  /// refuseAndClose with `ERR block_unterminated` naming the open block's
  /// verb and terminator.
  [[nodiscard]] bool refuseOpenBlock(Loop& loop, ConnState& conn);
  /// Lingering close: half-closes the write side so the peer reads EOF
  /// after the last reply, discards input until the peer's EOF or
  /// kLingerGrace, and only then closes. Closing with unread input would
  /// reset the connection, and a TCP peer could lose the parting reply.
  /// Returns false: the caller must not touch the connection again.
  [[nodiscard]] bool linger(Loop& loop, ConnState& conn);
  /// Reads and drops everything the lingering peer sent; closes on EOF or
  /// error. Returns false once the connection is closed.
  [[nodiscard]] bool discardInput(Loop& loop, ConnState& conn);
  void updateInterest(Loop& loop, ConnState& conn);
  void armTimer(Loop& loop, ConnState& conn);
  void scheduleWheel(Loop& loop, ConnState& conn,
                     std::chrono::steady_clock::time_point due);
  void advanceWheel(Loop& loop);
  void fireTimer(Loop& loop, int fd, std::uint64_t gen);
  void closeConnection(Loop& loop, int fd);
  void beginDrain(Loop& loop);
  void wake(const Loop& loop);

  Server& server_;
  const ServerConfig& config_;
  Metrics& metrics_;

  int listenFd_ = -1;  // engine's own copy; server_.listenFd_ goes -1 on drain
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> stopping_{false};

  // Admission control: at most workers + queueCapacity live connections;
  // one more is refused with a one-line ERR overloaded.
  std::atomic<std::int64_t> liveConnections_{0};
  std::int64_t admissionCap_ = 0;

  // Generation stamps defeat fd reuse: a timer-wheel entry for a closed
  // connection whose fd number was recycled compares stale and is ignored.
  std::atomic<std::uint64_t> genCounter_{1};
  std::size_t nextLoop_ = 0;  // round-robin cursor; touched only by loop 0
};

}  // namespace contend::serve
