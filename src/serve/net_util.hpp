// net_util.hpp — small fd helpers shared by the server and client halves.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>

namespace contend::serve {

/// Writes the whole buffer (MSG_NOSIGNAL, so a dead peer yields EPIPE rather
/// than killing the process). Returns false on any error.
bool sendAll(int fd, std::string_view data);

/// How long a refused connection's input is drained after the parting ERR
/// before its fd is closed regardless (both serving engines).
inline constexpr std::chrono::milliseconds kLingerGrace{1000};

/// Lingering close, up to the close itself: half-closes `fd`'s write side
/// so the peer reads EOF after everything already sent, then reads and
/// drops input until the peer's EOF, an error, or `grace`. Closing a socket
/// with unread input resets the connection instead: the peer reads
/// ECONNRESET, and on TCP may lose replies it has not read yet.
void drainBeforeClose(int fd, std::chrono::milliseconds grace);

/// Default per-line byte cap for FdLineReader when the caller does not pick
/// one. The server passes the (tighter) protocol request cap; the client
/// passes the (looser) response cap — see protocol.hpp.
inline constexpr std::size_t kDefaultMaxLineBytes = std::size_t{1} << 20;

/// Outcome of one readLine call. Anything other than kLine ends the
/// connection; the distinctions let the server answer with the right `ERR`
/// code before closing.
enum class LineRead {
  kLine,      // a complete line was returned
  kClosed,    // EOF, socket error, or an idle receive timeout (SO_RCVTIMEO)
  kTooLong,   // the peer streamed more than maxLineBytes without a newline
  kDeadline,  // the armed per-request deadline expired mid-request
};

/// Buffered line reader over a socket fd. readLine strips the trailing
/// '\n' (and a preceding '\r').
///
/// Two abuse guards ride on the reader because this is where the bytes
/// arrive:
///  - a hard cap on line length (a peer streaming bytes with no '\n' would
///    otherwise grow the buffer until OOM), and
///  - an optional per-request wall-clock deadline: beginRequestWindow(d)
///    arms a deadline d after the *first byte* of the next request arrives,
///    so a slow-loris peer dripping one byte per SO_RCVTIMEO window cannot
///    pin the reader forever, while a silently idle keep-alive connection
///    is still governed only by SO_RCVTIMEO.
class FdLineReader {
 public:
  explicit FdLineReader(int fd,
                        std::size_t maxLineBytes = kDefaultMaxLineBytes)
      : fd_(fd), maxLineBytes_(maxLineBytes) {}

  [[nodiscard]] LineRead readLine(std::string& line);

  /// Re-targets the reader at a new fd and drops all buffered state (the
  /// client's auto-reconnect path: a fresh connection shares no bytes with
  /// the old one).
  void reset(int fd) {
    fd_ = fd;
    buffer_.clear();
    pos_ = 0;
    armed_ = false;
  }

  /// True when a complete line is already buffered, i.e. the next readLine
  /// will not block on the socket. Lets a response writer batch its flushes
  /// across pipelined requests.
  [[nodiscard]] bool hasBufferedLine() const {
    return buffer_.find('\n', pos_) != std::string::npos;
  }

  /// Arms a wall-clock budget for the next request: the deadline starts
  /// ticking when the first byte of the request is received (bytes already
  /// buffered count as received). A zero budget disables the deadline.
  /// Call once per logical request; block bodies read under the same window.
  void beginRequestWindow(std::chrono::milliseconds budget) {
    budget_ = budget;
    armed_ = buffer_.size() > pos_ && budget_.count() > 0;
    if (armed_) deadline_ = std::chrono::steady_clock::now() + budget_;
  }

  /// High-water mark of unconsumed buffered bytes; bounded by
  /// maxLineBytes plus one receive chunk. Exposed so tests can assert the
  /// cap actually bounds memory.
  [[nodiscard]] std::size_t peakBufferedBytes() const { return peak_; }

 private:
  int fd_;
  std::size_t maxLineBytes_;
  std::string buffer_;
  std::size_t pos_ = 0;
  std::size_t peak_ = 0;
  std::chrono::milliseconds budget_{0};
  bool armed_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

/// Buffered response writer: append() accumulates, flush() performs one
/// sendAll. The server appends one response per request and flushes only
/// when the peer has no further request buffered, so pipelined clients (and
/// multi-task PREDICT_BATCH responses) cost one write syscall per burst.
class BufferedWriter {
 public:
  explicit BufferedWriter(int fd) : fd_(fd) {}

  void append(std::string_view data) { buffer_.append(data); }

  /// True on success (including an empty buffer); false once the peer is
  /// gone. On failure the buffer is kept intact, so the caller's error path
  /// can see (and account for) exactly which bytes were never delivered.
  bool flush();

  [[nodiscard]] bool empty() const { return buffer_.empty(); }

  /// Bytes appended but not yet delivered (nonzero after a failed flush).
  [[nodiscard]] std::size_t pendingBytes() const { return buffer_.size(); }

 private:
  int fd_;
  std::string buffer_;
};

}  // namespace contend::serve
