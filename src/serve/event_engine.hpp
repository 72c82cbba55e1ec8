// event_engine.hpp — the epoll serving core (--engine epoll).
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
//    view goes to Server::answer, the parse-dispatch-encode step the threads
//    engine shares — no per-line copies, no thread handoff.
//  - Responses queue on the connection and leave via one sendmsg with up to
//    64 iovecs, so a pipelined burst is answered with one syscall. EAGAIN
//    arms EPOLLOUT and resumes exactly where the partial write stopped; a
//    256 KiB write backlog pauses reads on that connection until the peer
//    drains to half that (slow-reader backpressure).
//  - A 256-slot × 25 ms timer wheel enforces the idle receive timeout and
//    the per-request slow-loris deadline that the threads engine gets from
//    SO_RCVTIMEO + FdLineReader's request window. Entries are (fd,
//    generation) pairs checked lazily, so extending a deadline never has to
//    find and remove a wheel entry.
//
// Protocol semantics — verbs, ERR codes and messages, line/block caps,
// overload refusal, drain behavior — match ThreadsEngine exactly (the
// answer step and the ERR line helper are shared; framing, deadlines and
// refusal mechanics are this file's own). The differential suite runs the
// same schedule against both engines and expects bit-identical responses.
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

class EventEngine final : public Engine {
 public:
  explicit EventEngine(Server& server);
  ~EventEngine() override;

  void start() override;
  void requestStop() override;
  void wait() override;

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
  /// Hands one framed request to Server::answer and queues the reply.
  void dispatchRequest(Loop& loop, ConnState& conn, std::string_view text);
  void enqueueOut(Loop& loop, ConnState& conn, std::string data);
  [[nodiscard]] bool flushOut(Loop& loop, ConnState& conn);
  /// Appends `ERR <code> <message>`, then lingers and closes once it is
  /// delivered (or drops it with the connection if the peer never drains
  /// it).
  [[nodiscard]] bool refuseAndClose(Loop& loop, ConnState& conn,
                                    std::string_view code,
                                    std::string message);
  /// Lingering close, the non-blocking twin of drainBeforeClose: half-closes
  /// the write side so the peer reads EOF after the last reply, discards
  /// input until the peer's EOF or kLingerGrace, and only then closes.
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

  // Admission control: workers + queueCapacity concurrent connections, the
  // same bound the threads engine enforces (workers serving + queue slots),
  // refused with the same one-line ERR overloaded.
  std::atomic<std::int64_t> liveConnections_{0};
  std::int64_t admissionCap_ = 0;

  // Generation stamps defeat fd reuse: a timer-wheel entry for a closed
  // connection whose fd number was recycled compares stale and is ignored.
  std::atomic<std::uint64_t> genCounter_{1};
  std::size_t nextLoop_ = 0;  // round-robin cursor; touched only by loop 0
};

}  // namespace contend::serve
