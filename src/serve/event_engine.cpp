#include "serve/event_engine.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "serve/net_util.hpp"
#include "util/tokens.hpp"

namespace contend::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

// recv() drains in chunks this size; a full chunk loops for more (ET
// requires reading to EAGAIN before the next edge is reported).
constexpr std::size_t kReadChunk = std::size_t{16} << 10;
constexpr int kMaxEvents = 64;
// Timer wheel: 256 slots × 25 ms ≈ 6.4 s horizon; longer deadlines park at
// the far edge and re-schedule when they fire early (entries are checked
// lazily against the real deadline, so an early fire just re-inserts).
constexpr std::size_t kWheelSlots = 256;
constexpr auto kWheelTick = std::chrono::milliseconds(25);
constexpr int kTickMs = 25;
// Slow-reader backpressure: past the high water the connection stops
// reading (no new requests accepted) until the peer drains us to the low
// water, bounding per-connection memory instead of buffering without limit.
constexpr std::size_t kWriteHighWater = std::size_t{256} << 10;
constexpr std::size_t kWriteLowWater = kWriteHighWater / 2;
// Graceful-stop bound: connections that have not finished flushing this
// long after the drain began are force-closed (their bytes counted
// dropped), mirroring the threads engine's short post-stop grace.
constexpr auto kDrainGrace = std::chrono::milliseconds(500);

}  // namespace

/// Everything one connection needs, owned by exactly one loop thread —
/// never locked, never shared.
struct EventEngine::ConnState {
  int fd = -1;
  std::uint64_t gen = 0;

  // Inbound bytes, parsed in place. requestStart marks the first byte of
  // the logical request being assembled (dispatched bytes are compacted
  // away), lineStart the line being scanned, scan where the '\n' search
  // resumes so a long line is never rescanned.
  std::string in;
  std::size_t requestStart = 0;
  std::size_t lineStart = 0;
  std::size_t scan = 0;
  bool inBlock = false;  // inside a PREDICT/PREDICT_BATCH body
  bool batchBlock = false;
  int blockLines = 0;  // post-verb lines consumed, terminator included
  bool peerEof = false;

  // Outbound reply bytes, oldest first, encoded in place by Server::answer;
  // outHeadPos is how much of them a partial write already sent.
  std::string out;
  std::size_t outHeadPos = 0;
  bool wantWrite = false;   // EPOLLOUT armed after an EAGAIN
  bool readPaused = false;  // EPOLLIN dropped: write backlog over high water
  bool closeAfterFlush = false;  // linger, then close, once flushed
  bool lingering = false;        // write side shut; input is discarded

  // Lazy deadlines: the wheel entry fires and compares against these; an
  // extended deadline simply re-inserts, it never has to find the old entry.
  Clock::time_point idleDeadline{};
  Clock::time_point requestDeadline{};
  bool idleArmed = false;
  bool deadlineArmed = false;
  int wheelEntries = 0;

  // accept→register delay, reported (like the threads engine's queue wait)
  // against the first request only.
  std::uint64_t pendingQueueWaitUs = 0;

  // The parse target Server::answer reuses for every request.
  Request request;

  [[nodiscard]] std::size_t outBytes() const { return out.size() - outHeadPos; }
};

struct EventEngine::Loop {
  int index = 0;
  int epollFd = -1;
  int wakeFd[2] = {-1, -1};
  std::thread thread;

  // Connections accepted by loop 0 for this loop, adopted on the next wake.
  std::mutex inboxMutex;
  std::vector<std::pair<int, Clock::time_point>> inbox;

  std::unordered_map<int, std::unique_ptr<ConnState>> conns;

  std::array<std::vector<std::pair<int, std::uint64_t>>, kWheelSlots> wheel;
  std::size_t wheelCursor = 0;
  Clock::time_point wheelLast{};

  // Loop 0 only: the listen socket's registration state and the accept
  // backoff after fd exhaustion.
  bool listenArmed = false;
  int acceptBackoffMs = 0;
  Clock::time_point acceptResumeAt{};

  bool draining = false;
  Clock::time_point drainDeadline{};
};

EventEngine::EventEngine(Server& server)
    : server_(server), config_(server.config_), metrics_(server.metrics_) {}

EventEngine::~EventEngine() {
  requestStop();
  for (const auto& loop : loops_) {
    if (loop == nullptr) continue;
    if (loop->thread.joinable()) loop->thread.join();
    for (const auto& [fd, conn] : loop->conns) ::close(fd);
    if (loop->epollFd >= 0) ::close(loop->epollFd);
    for (const int fd : loop->wakeFd) {
      if (fd >= 0) ::close(fd);
    }
  }
}

void EventEngine::start() {
  listenFd_ = server_.listenFd_;
  const int flags = ::fcntl(listenFd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(listenFd_, F_SETFL, flags | O_NONBLOCK) != 0) {
    throwErrno("fcntl(listen, O_NONBLOCK)");
  }
  admissionCap_ = static_cast<std::int64_t>(config_.workers) +
                  static_cast<std::int64_t>(config_.queueCapacity);
  const int loopCount = std::clamp(config_.loopThreads, 1, 64);
  loops_.reserve(static_cast<std::size_t>(loopCount));
  for (int i = 0; i < loopCount; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    loop->epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epollFd < 0) throwErrno("epoll_create1");
    if (::pipe2(loop->wakeFd, O_NONBLOCK | O_CLOEXEC) != 0) {
      throwErrno("pipe2(wake)");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered: a pending wake is never lost
    ev.data.fd = loop->wakeFd[0];
    if (::epoll_ctl(loop->epollFd, EPOLL_CTL_ADD, loop->wakeFd[0], &ev) != 0) {
      throwErrno("epoll_ctl(ADD wake)");
    }
    loops_.push_back(std::move(loop));
  }
  {
    // Level-triggered listen on loop 0 only: after an accept backoff or a
    // partial drain of the backlog, pending connections keep reporting.
    Loop& loop0 = *loops_.front();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    if (::epoll_ctl(loop0.epollFd, EPOLL_CTL_ADD, listenFd_, &ev) != 0) {
      throwErrno("epoll_ctl(ADD listen)");
    }
    loop0.listenArmed = true;
  }
  try {
    for (auto& loop : loops_) {
      loop->thread = std::thread([this, raw = loop.get()] { loopMain(*raw); });
    }
  } catch (...) {
    requestStop();
    for (const auto& loop : loops_) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    throw;
  }
}

void EventEngine::requestStop() {
  // Async-signal-safe: one atomic store plus pipe writes.
  stopping_.store(true, std::memory_order_release);
  for (const auto& loop : loops_) {
    if (loop != nullptr && loop->wakeFd[1] >= 0) wake(*loop);
  }
}

void EventEngine::wait() {
  for (const auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
}

void EventEngine::wake(const Loop& loop) {
  const char byte = 'w';
  [[maybe_unused]] const auto n = ::write(loop.wakeFd[1], &byte, 1);
}

void EventEngine::loopMain(Loop& loop) {
  loop.wheelLast = Clock::now();
  epoll_event events[kMaxEvents];
  while (true) {
    int timeoutMs = -1;
    if (loop.draining) {
      timeoutMs = 10;  // stay responsive to the drain deadline
    } else if (!loop.conns.empty()) {
      timeoutMs = kTickMs;  // keep the timer wheel ticking
    } else if (loop.index == 0 && !loop.listenArmed &&
               !stopping_.load(std::memory_order_acquire)) {
      timeoutMs = 10;  // accept parked on backoff; poll for the resume time
    }
    const int n = ::epoll_wait(loop.epollFd, events, kMaxEvents, timeoutMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    metrics_.countLoopWakeup();
    if (n > 0) metrics_.observeLoopBatch(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.wakeFd[0]) {
        char drain[64];
        while (::read(loop.wakeFd[0], drain, sizeof(drain)) > 0) {
        }
        adoptInbox(loop);
      } else if (loop.listenArmed && fd == listenFd_) {
        if (!loop.draining) handleAccept(loop);
      } else {
        handleConnEvent(loop, fd, events[i].events);
      }
    }
    if (stopping_.load(std::memory_order_acquire) && !loop.draining) {
      beginDrain(loop);
    }
    advanceWheel(loop);
    if (loop.index == 0 && !loop.listenArmed && !loop.draining) {
      resumeAcceptIfDue(loop);
    }
    if (loop.draining) {
      if (loop.conns.empty()) break;
      if (Clock::now() >= loop.drainDeadline) {
        std::vector<int> fds;
        fds.reserve(loop.conns.size());
        for (const auto& [fd, conn] : loop.conns) fds.push_back(fd);
        for (const int fd : fds) closeConnection(loop, fd);
        break;
      }
    }
  }
}

void EventEngine::handleAccept(Loop& loop) {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd =
        ::accept4(listenFd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // backlog drained
      metrics_.countAcceptError();
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // fd exhaustion: the pending connection stays in the backlog and
        // the (level-triggered) listen fd would wake us right back — park
        // it and retry on an exponential backoff; closing connections is
        // what clears the condition.
        loop.acceptBackoffMs =
            loop.acceptBackoffMs == 0 ? 10
                                      : std::min(loop.acceptBackoffMs * 2, 1000);
        loop.acceptResumeAt =
            Clock::now() + std::chrono::milliseconds(loop.acceptBackoffMs);
        (void)::epoll_ctl(loop.epollFd, EPOLL_CTL_DEL, listenFd_, nullptr);
        loop.listenArmed = false;
      }
      return;
    }
    loop.acceptBackoffMs = 0;
    metrics_.countAccepted();
    applyAcceptedSocketOptions(fd, config_);
    // Same admission bound as the threads engine (workers serving + queue
    // slots), same one-line refusal. fetch_add-then-check keeps the cap
    // exact without a lock.
    if (liveConnections_.fetch_add(1, std::memory_order_relaxed) + 1 >
        admissionCap_) {
      liveConnections_.fetch_sub(1, std::memory_order_relaxed);
      metrics_.countRejected();
      const std::string line = errorLine(kErrOverloaded, kOverloadedMessage);
      (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);  // best effort
      ::close(fd);
      continue;
    }
    const auto now = Clock::now();
    Loop& target = *loops_[nextLoop_];
    nextLoop_ = (nextLoop_ + 1) % loops_.size();
    if (&target == &loop) {
      registerConnection(loop, fd, now);
    } else {
      {
        std::lock_guard lock(target.inboxMutex);
        target.inbox.emplace_back(fd, now);
      }
      wake(target);
    }
  }
}

void EventEngine::resumeAcceptIfDue(Loop& loop) {
  if (Clock::now() < loop.acceptResumeAt) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listenFd_;
  if (::epoll_ctl(loop.epollFd, EPOLL_CTL_ADD, listenFd_, &ev) == 0) {
    loop.listenArmed = true;
  }
}

void EventEngine::adoptInbox(Loop& loop) {
  std::vector<std::pair<int, Clock::time_point>> pending;
  {
    std::lock_guard lock(loop.inboxMutex);
    pending.swap(loop.inbox);
  }
  for (const auto& [fd, acceptTime] : pending) {
    registerConnection(loop, fd, acceptTime);
  }
}

void EventEngine::registerConnection(Loop& loop, int fd,
                                     Clock::time_point acceptTime) {
  auto conn = std::make_unique<ConnState>();
  conn->fd = fd;
  conn->gen = genCounter_.fetch_add(1, std::memory_order_relaxed);
  const auto now = Clock::now();
  conn->pendingQueueWaitUs = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(now - acceptTime)
             .count()));
  if (config_.requestTimeoutMs > 0) {
    conn->idleArmed = true;
    conn->idleDeadline = now + std::chrono::milliseconds(config_.requestTimeoutMs);
  }
  epoll_event ev{};
  ev.events = EPOLLET | EPOLLIN | EPOLLRDHUP;
  ev.data.fd = fd;
  if (::epoll_ctl(loop.epollFd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    liveConnections_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  ConnState& ref = *conn;
  loop.conns.emplace(fd, std::move(conn));
  armTimer(loop, ref);
}

void EventEngine::handleConnEvent(Loop& loop, int fd, std::uint32_t events) {
  const auto it = loop.conns.find(fd);
  if (it == loop.conns.end()) return;  // closed earlier in this batch
  ConnState& conn = *it->second;
  if ((events & EPOLLERR) != 0) {
    closeConnection(loop, fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!flushOut(loop, conn)) return;
  }
  // EPOLLHUP still goes through the read path: the peer may have closed
  // right after sending requests, and (matching the threads engine) those
  // buffered requests are served before the EOF ends the connection.
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0 && !conn.readPaused &&
      !conn.closeAfterFlush) {
    if (!readAndProcess(loop, conn)) return;
  }
}

bool EventEngine::readAndProcess(Loop& loop, ConnState& conn) {
  if (conn.lingering) return discardInput(loop, conn);
  bool gotData = false;
  while (true) {
    const std::size_t old = conn.in.size();
    conn.in.resize(old + kReadChunk);
    const ssize_t n = ::recv(conn.fd, conn.in.data() + old, kReadChunk, 0);
    if (n > 0) {
      conn.in.resize(old + static_cast<std::size_t>(n));
      gotData = true;
      continue;  // edge-triggered: drain until EAGAIN
    }
    conn.in.resize(old);
    if (n == 0) {
      conn.peerEof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      metrics_.countEagainRead();
      break;
    }
    closeConnection(loop, conn.fd);  // ECONNRESET and friends
    return false;
  }
  const auto now = Clock::now();
  if (gotData && config_.requestTimeoutMs > 0) {
    // The idle receive timeout restarts at every arrival, exactly like
    // SO_RCVTIMEO restarting per recv in the threads engine.
    conn.idleArmed = true;
    conn.idleDeadline = now + std::chrono::milliseconds(config_.requestTimeoutMs);
  }
  if (!processBuffered(loop, conn)) return false;
  if (config_.requestDeadlineMs > 0) {
    // The request window arms only when a partial request lingers after
    // processing — a complete-requests-only burst (the fast path) never
    // touches the wheel — and stays fixed while the slow-loris drips.
    const bool partial = !conn.in.empty();
    if (partial && !conn.deadlineArmed) {
      conn.deadlineArmed = true;
      conn.requestDeadline =
          now + std::chrono::milliseconds(config_.requestDeadlineMs);
      scheduleWheel(loop, conn, conn.requestDeadline);
    } else if (!partial) {
      conn.deadlineArmed = false;
    }
  }
  if (conn.peerEof) {
    if (conn.inBlock) {
      const char* verb = conn.batchBlock ? "PREDICT_BATCH" : "PREDICT";
      const char* terminator = conn.batchBlock ? "end_batch" : "end";
      return refuseAndClose(loop, conn, kErrBlockUnterminated,
                            std::string(verb) + ": block not closed with '" +
                                terminator + "'");
    }
    // Clean EOF (or EOF mid-line): deliver what is queued, close silently.
    conn.closeAfterFlush = true;
    return flushOut(loop, conn);
  }
  if (!flushOut(loop, conn)) return false;
  armTimer(loop, conn);
  return true;
}

bool EventEngine::processBuffered(Loop& loop, ConnState& conn) {
  const auto lineContext = [&conn]() -> const char* {
    return conn.inBlock ? (conn.batchBlock ? "PREDICT_BATCH" : "PREDICT")
                        : "request";
  };
  while (true) {
    const std::size_t size = conn.in.size();
    if (conn.scan >= size) break;
    const char* base = conn.in.data();
    const void* found = std::memchr(base + conn.scan, '\n', size - conn.scan);
    if (found == nullptr) {
      conn.scan = size;
      // Same cap FdLineReader enforces while buffering an unterminated line.
      if (size - conn.lineStart >= kMaxRequestLineBytes) {
        metrics_.countLineOverflow();
        (void)refuseAndClose(loop, conn, kErrLineTooLong,
                             std::string(lineContext()) + ": line exceeds " +
                                 std::to_string(kMaxRequestLineBytes) +
                                 " bytes");
        return false;
      }
      break;
    }
    const std::size_t lineEnd =
        static_cast<std::size_t>(static_cast<const char*>(found) - base);
    const std::size_t next = lineEnd + 1;
    std::string_view line(base + conn.lineStart, lineEnd - conn.lineStart);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.size() >= kMaxRequestLineBytes) {
      metrics_.countLineOverflow();
      (void)refuseAndClose(loop, conn, kErrLineTooLong,
                           std::string(lineContext()) + ": line exceeds " +
                               std::to_string(kMaxRequestLineBytes) +
                               " bytes");
      return false;
    }
    conn.lineStart = next;
    conn.scan = next;
    if (!conn.inBlock) {
      const std::string_view token = util::firstToken(line);
      if (token.empty()) {
        // Blank or comment-only between requests: consumed silently.
        conn.requestStart = next;
      } else if (token == "PREDICT" || token == "PREDICT_BATCH") {
        conn.inBlock = true;
        conn.batchBlock = token == "PREDICT_BATCH";
        conn.blockLines = 0;
      } else {
        dispatchRequest(loop, conn,
                        std::string_view(base + conn.requestStart,
                                         next - conn.requestStart));
        conn.requestStart = next;
      }
    } else {
      ++conn.blockLines;
      const char* terminator = conn.batchBlock ? "end_batch" : "end";
      const int maxLines =
          conn.batchBlock ? kMaxBatchBlockLines : kMaxPredictBlockLines;
      if (util::firstTokenIs(line, terminator)) {
        conn.inBlock = false;
        dispatchRequest(loop, conn,
                        std::string_view(base + conn.requestStart,
                                         next - conn.requestStart));
        conn.requestStart = next;
      } else if (conn.blockLines >= maxLines) {
        const char* verb = conn.batchBlock ? "PREDICT_BATCH" : "PREDICT";
        (void)refuseAndClose(loop, conn, kErrBlockUnterminated,
                             std::string(verb) + ": block not closed with '" +
                                 terminator + "'");
        return false;
      }
    }
  }
  // Compact dispatched bytes away; what remains is at most one partial
  // request (an unfinished line or an open block).
  if (conn.requestStart > 0) {
    conn.in.erase(0, conn.requestStart);
    conn.lineStart -= conn.requestStart;
    conn.scan -= conn.requestStart;
    conn.requestStart = 0;
  }
  return true;
}

void EventEngine::dispatchRequest(Loop& loop, ConnState& conn,
                                  std::string_view text) {
  server_.answer(text, conn.request, conn.out, conn.pendingQueueWaitUs);
  conn.pendingQueueWaitUs = 0;
  noteQueued(loop, conn);
}

void EventEngine::noteQueued(Loop& loop, ConnState& conn) {
  if (!conn.readPaused && conn.outBytes() >= kWriteHighWater) {
    conn.readPaused = true;
    updateInterest(loop, conn);
  }
}

bool EventEngine::flushOut(Loop& loop, ConnState& conn) {
  while (conn.outBytes() > 0) {
    // MSG_NOSIGNAL suppresses SIGPIPE when the peer vanished mid-response.
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.outHeadPos,
                             conn.outBytes(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        metrics_.countEagainWrite();
        // Drop the delivered prefix once it dominates, so a slow reader's
        // buffer stays bounded by what is actually pending.
        if (conn.outHeadPos > conn.out.size() / 2) {
          conn.out.erase(0, conn.outHeadPos);
          conn.outHeadPos = 0;
        }
        bool changed = false;
        if (!conn.wantWrite) {
          conn.wantWrite = true;
          changed = true;
        }
        if (conn.readPaused && conn.outBytes() <= kWriteLowWater &&
            !conn.closeAfterFlush) {
          conn.readPaused = false;
          changed = true;
        }
        if (changed) updateInterest(loop, conn);
        return true;
      }
      closeConnection(loop, conn.fd);  // EPIPE/ECONNRESET: peer is gone
      return false;
    }
    conn.outHeadPos += static_cast<std::size_t>(n);
  }
  conn.out.clear();
  conn.outHeadPos = 0;
  if (conn.closeAfterFlush) return linger(loop, conn);
  bool changed = false;
  if (conn.wantWrite) {
    conn.wantWrite = false;
    changed = true;
  }
  if (conn.readPaused) {
    // Backlog fully drained; EPOLL_CTL_MOD re-arms edge-triggered
    // reporting, so data that arrived while paused is redelivered.
    conn.readPaused = false;
    changed = true;
  }
  if (changed) updateInterest(loop, conn);
  return true;
}

bool EventEngine::refuseAndClose(Loop& loop, ConnState& conn,
                                 std::string_view code,
                                 const std::string& message) {
  metrics_.countError();
  conn.closeAfterFlush = true;
  appendErrorLine(conn.out, code, message);
  noteQueued(loop, conn);
  if (!flushOut(loop, conn)) return false;  // delivered-and-closed, or error
  // The ERR is stuck behind a full socket buffer; EPOLLOUT will finish it,
  // but bound the linger so an unreachable peer cannot pin the fd.
  const auto linger =
      Clock::now() + std::chrono::milliseconds(
                         config_.requestTimeoutMs > 0 ? config_.requestTimeoutMs
                                                      : 1000);
  if (!conn.idleArmed || linger < conn.idleDeadline) {
    conn.idleArmed = true;
    conn.idleDeadline = linger;
  }
  armTimer(loop, conn);
  return true;
}

bool EventEngine::linger(Loop& loop, ConnState& conn) {
  conn.closeAfterFlush = false;
  conn.lingering = true;
  std::string().swap(conn.in);  // nothing buffered will ever be parsed
  (void)::shutdown(conn.fd, SHUT_WR);
  // Edge-triggered: input already queued raises no new edge, so drain now.
  // A peer that already sent EOF is closed right here.
  if (!discardInput(loop, conn)) return false;
  // A fixed deadline: input arriving while lingering never extends it.
  conn.deadlineArmed = false;
  conn.idleArmed = true;
  conn.idleDeadline = Clock::now() + kLingerGrace;
  scheduleWheel(loop, conn, conn.idleDeadline);
  if (conn.readPaused || conn.wantWrite) {
    conn.readPaused = false;
    conn.wantWrite = false;
    updateInterest(loop, conn);
  }
  return false;
}

bool EventEngine::discardInput(Loop& loop, ConnState& conn) {
  char sink[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn.fd, sink, sizeof(sink), 0);
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    closeConnection(loop, conn.fd);  // the peer's EOF, or it is gone
    return false;
  }
}

void EventEngine::updateInterest(Loop& loop, ConnState& conn) {
  epoll_event ev{};
  ev.events = EPOLLET | EPOLLRDHUP |
              (conn.readPaused ? 0U : static_cast<std::uint32_t>(EPOLLIN)) |
              (conn.wantWrite ? static_cast<std::uint32_t>(EPOLLOUT) : 0U);
  ev.data.fd = conn.fd;
  (void)::epoll_ctl(loop.epollFd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EventEngine::armTimer(Loop& loop, ConnState& conn) {
  if (conn.wheelEntries > 0) return;  // an entry will fire and re-check
  Clock::time_point earliest{};
  bool have = false;
  if (conn.idleArmed) {
    earliest = conn.idleDeadline;
    have = true;
  }
  if (conn.deadlineArmed &&
      (!have || conn.requestDeadline < earliest)) {
    earliest = conn.requestDeadline;
    have = true;
  }
  if (have) scheduleWheel(loop, conn, earliest);
}

void EventEngine::scheduleWheel(Loop& loop, ConnState& conn,
                                Clock::time_point due) {
  std::int64_t ticks = (due - loop.wheelLast) / kWheelTick + 1;
  ticks = std::clamp<std::int64_t>(
      ticks, 1, static_cast<std::int64_t>(kWheelSlots) - 1);
  const std::size_t slot =
      (loop.wheelCursor + static_cast<std::size_t>(ticks)) % kWheelSlots;
  loop.wheel[slot].emplace_back(conn.fd, conn.gen);
  ++conn.wheelEntries;
}

void EventEngine::advanceWheel(Loop& loop) {
  const auto now = Clock::now();
  std::size_t advanced = 0;
  while (loop.wheelLast + kWheelTick <= now) {
    if (advanced == kWheelSlots) {
      // Stalled a full rotation or more: every slot was just visited, so
      // snap to now rather than replaying empty ticks.
      loop.wheelLast = now;
      break;
    }
    loop.wheelLast += kWheelTick;
    loop.wheelCursor = (loop.wheelCursor + 1) % kWheelSlots;
    std::vector<std::pair<int, std::uint64_t>> due =
        std::move(loop.wheel[loop.wheelCursor]);
    loop.wheel[loop.wheelCursor].clear();
    for (const auto& [fd, gen] : due) fireTimer(loop, fd, gen);
    ++advanced;
  }
}

void EventEngine::fireTimer(Loop& loop, int fd, std::uint64_t gen) {
  const auto it = loop.conns.find(fd);
  if (it == loop.conns.end() || it->second->gen != gen) return;  // stale
  ConnState& conn = *it->second;
  if (conn.wheelEntries > 0) --conn.wheelEntries;
  const auto now = Clock::now();
  if (conn.deadlineArmed && now >= conn.requestDeadline) {
    // Slow loris: the request window expired with the request still
    // incomplete. Same ERR (code, message, context) the threads engine's
    // FdLineReader deadline produces.
    metrics_.countDeadlineExpired();
    const char* context =
        conn.inBlock ? (conn.batchBlock ? "PREDICT_BATCH" : "PREDICT")
                     : "request";
    (void)refuseAndClose(loop, conn, kErrDeadline,
                         std::string(context) + ": request deadline exceeded");
    return;
  }
  if (conn.idleArmed && now >= conn.idleDeadline) {
    // Idle receive timeout (SO_RCVTIMEO's analog): flush and close silently.
    if (flushOut(loop, conn)) closeConnection(loop, fd);
    return;
  }
  armTimer(loop, conn);  // deadline moved on; re-insert at the new earliest
}

void EventEngine::closeConnection(Loop& loop, int fd) {
  const auto it = loop.conns.find(fd);
  if (it == loop.conns.end()) return;
  ConnState& conn = *it->second;
  if (conn.outBytes() > 0) metrics_.countDroppedBytes(conn.outBytes());
  (void)::epoll_ctl(loop.epollFd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  loop.conns.erase(it);
  liveConnections_.fetch_sub(1, std::memory_order_relaxed);
}

void EventEngine::beginDrain(Loop& loop) {
  loop.draining = true;
  loop.drainDeadline = Clock::now() + kDrainGrace;
  if (loop.index == 0) {
    if (loop.listenArmed) {
      (void)::epoll_ctl(loop.epollFd, EPOLL_CTL_DEL, listenFd_, nullptr);
      loop.listenArmed = false;
    }
    // Close the listen socket so late connects fail fast instead of
    // queueing in a backlog nobody will drain.
    const int listening = server_.listenFd_;
    if (listening >= 0) {
      server_.listenFd_ = -1;
      ::close(listening);
    }
  }
  adoptInbox(loop);
  // Read-side shutdown nudges every connection toward EOF: requests already
  // received are served and flushed, idle keep-alives end immediately.
  std::vector<int> fds;
  fds.reserve(loop.conns.size());
  for (const auto& [fd, conn] : loop.conns) fds.push_back(fd);
  for (const int fd : fds) {
    const auto it = loop.conns.find(fd);
    if (it == loop.conns.end()) continue;
    (void)::shutdown(fd, SHUT_RD);
    (void)readAndProcess(loop, *it->second);
  }
}

}  // namespace contend::serve
