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
/// before its fd is closed regardless.
inline constexpr std::chrono::milliseconds kLingerGrace{1000};

/// Default per-line byte cap for FdLineReader when the caller does not pick
/// one. The client passes the (looser) response cap — see protocol.hpp.
inline constexpr std::size_t kDefaultMaxLineBytes = std::size_t{1} << 20;

/// Outcome of one readLine call. Anything other than kLine ends the
/// connection.
enum class LineRead {
  kLine,     // a complete line was returned
  kClosed,   // EOF, socket error, or an idle receive timeout (SO_RCVTIMEO)
  kTooLong,  // the peer streamed more than maxLineBytes without a newline
};

/// Buffered line reader over a socket fd. readLine strips the trailing
/// '\n' (and a preceding '\r'). A hard cap on line length guards it: a
/// peer streaming bytes with no '\n' would otherwise grow the buffer until
/// OOM.
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
};

}  // namespace contend::serve
