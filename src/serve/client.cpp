#include "serve/client.hpp"

#include "serve/syscall_hooks.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace contend::serve {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

int connectOrHook(int fd, const sockaddr* addr, socklen_t len) {
  if (const SyscallHooks* hooks = syscallHooks();
      hooks != nullptr && hooks->connect) {
    return hooks->connect(fd, addr, len);
  }
  return ::connect(fd, addr, len);
}

int connectTo(const Endpoint& endpoint, int timeoutMs) {
  int fd = -1;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throwErrno("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (connectOrHook(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
      ::close(fd);
      throwErrno("connect(" + endpoint.path + ")");
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throwErrno("socket(AF_INET)");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(endpoint.port));
    if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw TransportError("bad host '" + endpoint.host +
                           "' (numeric IPv4 expected)");
    }
    if (connectOrHook(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
      ::close(fd);
      throwErrno("connect(" + endpointToString(endpoint) + ")");
    }
    // One-line requests must not wait out Nagle vs delayed-ACK; the server
    // sets the same option on its side of every tcp connection.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  if (timeoutMs > 0) {
    timeval tv{};
    tv.tv_sec = timeoutMs / 1000;
    tv.tv_usec = (timeoutMs % 1000) * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  return fd;
}

// splitmix64 finalizer: one cheap, well-mixed step used to derive a copy's
// jitter seed from its parent's, so related clients land far apart in the
// jitter state space even when the inputs differ by a single bit.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Client::Client(const Endpoint& endpoint, int timeoutMs,
               ReconnectPolicy reconnect)
    : endpoint_(endpoint),
      timeoutMs_(timeoutMs),
      reconnect_(reconnect),
      jitterState_(reconnect.jitterSeed != 0 ? reconnect.jitterSeed
                                             : 0x9e3779b97f4a7c15ull),
      fd_(connectTo(endpoint, timeoutMs)),
      reader_(fd_, kMaxResponseLineBytes) {}

Client::Client(const std::string& endpointSpec, int timeoutMs,
               ReconnectPolicy reconnect)
    : Client(parseEndpoint(endpointSpec), timeoutMs, reconnect) {}

Client::Client(const Client& other)
    : endpoint_(other.endpoint_),
      timeoutMs_(other.timeoutMs_),
      reconnect_(other.reconnect_),
      // A straight copy of jitterState_ would give both clients the same
      // backoff stream, so a fleet of copies would reconnect in lockstep.
      // Perturb with the new object's address (unique while it is alive) so
      // every copy — including copies of copies — diverges immediately.
      jitterState_(splitmix64(other.jitterState_ ^
                              reinterpret_cast<std::uintptr_t>(this))),
      fd_(connectTo(other.endpoint_, other.timeoutMs_)),
      reader_(fd_, kMaxResponseLineBytes) {
  if (jitterState_ == 0) jitterState_ = 0x9e3779b97f4a7c15ull;  // xorshift fixpoint
}

Client::Client(Client&& other) noexcept
    : endpoint_(std::move(other.endpoint_)),
      timeoutMs_(other.timeoutMs_),
      reconnect_(other.reconnect_),
      jitterState_(other.jitterState_),
      reconnects_(other.reconnects_),
      fd_(std::exchange(other.fd_, -1)),
      reader_(std::move(other.reader_)) {}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::connectNow() {
  fd_ = connectTo(endpoint_, timeoutMs_);  // throws TransportError
  reader_.reset(fd_);
}

int Client::backoffDelayMs(int attempt) {
  const int shift = std::min(attempt, 20);  // cap 2^attempt well below overflow
  const std::int64_t base =
      std::min<std::int64_t>(reconnect_.maxDelayMs,
                             std::int64_t{reconnect_.baseDelayMs} << shift);
  // xorshift64: deterministic per-client jitter stream.
  jitterState_ ^= jitterState_ << 13;
  jitterState_ ^= jitterState_ >> 7;
  jitterState_ ^= jitterState_ << 17;
  // Map the draw into [0, base/2] with a 128-bit multiply-high instead of a
  // modulo: `state % range` over-weights the low residues whenever 2^64 is
  // not a multiple of `range`, skewing the fleet's delays toward the short
  // end — the opposite of what de-synchronizing jitter wants.
  // `__extension__` marks the 128-bit type as a deliberate GNU extension,
  // which -Wpedantic would otherwise reject.
  __extension__ using Wide = unsigned __int128;
  const std::uint64_t range = static_cast<std::uint64_t>(base / 2 + 1);
  const std::int64_t jitter =
      base > 1 ? static_cast<std::int64_t>(static_cast<std::uint64_t>(
                     (static_cast<Wide>(jitterState_) * range) >> 64))
               : 0;
  return static_cast<int>(base + jitter);
}

Response Client::raw(const std::string& text) {
  if (fd_ < 0) throw TransportError("client is disconnected");
  if (!sendAll(fd_, text)) throwErrno("send");
  return readResponse();
}

Response Client::readResponse() {
  if (fd_ < 0) throw TransportError("client is disconnected");
  std::string line;
  switch (reader_.readLine(line)) {
    case LineRead::kLine:
      return parseResponse(line);
    case LineRead::kTooLong:
      throw ProtocolError(kErrLineTooLong,
                          "server response line exceeds the client cap");
    default:
      throw TransportError("server closed the connection (or timed out)");
  }
}

Response Client::call(const Request& request) {
  const std::string wire = formatRequest(request);
  for (int attempt = 0;; ++attempt) {
    try {
      if (fd_ < 0) {
        connectNow();
        ++reconnects_;
      }
      return raw(wire);
    } catch (const TransportError&) {
      // The connection is dead either way; only a policy with budget left
      // turns this into backoff-and-replay instead of a caller-visible
      // failure.
      disconnect();
      if (attempt >= reconnect_.maxAttempts) throw;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoffDelayMs(attempt)));
    }
  }
}

Response Client::arrive(double commFraction, Words messageWords) {
  Request request;
  request.verb = Verb::kArrive;
  request.app.commFraction = commFraction;
  request.app.messageWords = messageWords;
  return call(request);
}

Response Client::arrive(double commFraction, Words messageWords,
                        double ioFraction, std::int64_t ioOps) {
  Request request;
  request.verb = Verb::kArrive;
  request.app.commFraction = commFraction;
  request.app.messageWords = messageWords;
  request.app.ioFraction = ioFraction;
  request.app.ioOps = ioOps;
  return call(request);
}

Response Client::depart(std::uint64_t applicationId) {
  Request request;
  request.verb = Verb::kDepart;
  request.applicationId = applicationId;
  return call(request);
}

Response Client::predict(const tools::TaskSpec& task) {
  Request request;
  request.verb = Verb::kPredict;
  request.task = task;
  return call(request);
}

Response Client::predictBatch(const std::vector<tools::TaskSpec>& tasks) {
  Request request;
  request.verb = Verb::kPredictBatch;
  request.batch = tasks;
  return call(request);
}

Response Client::slowdown() {
  Request request;
  request.verb = Verb::kSlowdown;
  return call(request);
}

Response Client::stats() {
  Request request;
  request.verb = Verb::kStats;
  return call(request);
}

Response Client::health() {
  Request request;
  request.verb = Verb::kHealth;
  return call(request);
}

Response Client::calibrateReport() {
  Request request;
  request.verb = Verb::kCalibrate;
  request.calibrate = CalibrateAction::kReport;
  return call(request);
}

Response Client::calibrateObserve(const CalibrationObservation& observation) {
  Request request;
  request.verb = Verb::kCalibrate;
  request.calibrate = CalibrateAction::kObserve;
  request.observation = observation;
  return call(request);
}

Response Client::calibrateApply() {
  Request request;
  request.verb = Verb::kCalibrate;
  request.calibrate = CalibrateAction::kApply;
  return call(request);
}

Response Client::drift() {
  Request request;
  request.verb = Verb::kDrift;
  return call(request);
}

Response Client::replStatus() {
  Request request;
  request.verb = Verb::kRepl;
  request.repl = ReplAction::kStatus;
  return call(request);
}

Response Client::replHello() {
  Request request;
  request.verb = Verb::kRepl;
  request.repl = ReplAction::kHello;
  return call(request);
}

Response Client::replPromote() {
  Request request;
  request.verb = Verb::kRepl;
  request.repl = ReplAction::kPromote;
  return call(request);
}

std::string Client::metricsText() {
  if (fd_ < 0) throw TransportError("client is disconnected");
  if (!sendAll(fd_, "METRICS\n")) throwErrno("send");
  // Bound the whole exposition, not just each line, so a hostile or broken
  // server cannot stream an endless "exposition" into client memory.
  constexpr std::size_t kMaxExpositionBytes = std::size_t{64} << 20;
  std::string text;
  std::string line;
  bool first = true;
  while (true) {
    switch (reader_.readLine(line)) {
      case LineRead::kLine:
        break;
      case LineRead::kTooLong:
        throw ProtocolError(kErrLineTooLong,
                            "server response line exceeds the client cap");
      default:
        throw TransportError(
            "server closed the connection mid-exposition (or timed out)");
    }
    if (first && line.rfind("ERR ", 0) == 0) {
      const Response error = parseResponse(line);
      throw ProtocolError(error.code, error.error);
    }
    first = false;
    text += line;
    text += '\n';
    if (line == "# EOF") return text;
    if (text.size() > kMaxExpositionBytes) {
      throw ProtocolError(kErrLineTooLong,
                          "metrics exposition exceeds the client cap");
    }
  }
}

}  // namespace contend::serve
