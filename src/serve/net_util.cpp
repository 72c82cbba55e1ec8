#include "serve/net_util.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>

#include "serve/syscall_hooks.hpp"

namespace contend::serve {

namespace {

// The fault-injection seam (syscall_hooks.hpp): one relaxed atomic load and
// a predictable branch when no hooks are installed.
ssize_t sendOrHook(int fd, const void* data, std::size_t size) {
  const SyscallHooks* hooks = syscallHooks();
  if (hooks != nullptr && hooks->send) return hooks->send(fd, data, size);
  return ::send(fd, data, size, MSG_NOSIGNAL);
}

ssize_t recvOrHook(int fd, void* data, std::size_t size) {
  const SyscallHooks* hooks = syscallHooks();
  if (hooks != nullptr && hooks->recv) return hooks->recv(fd, data, size);
  return ::recv(fd, data, size, 0);
}

}  // namespace

bool sendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = sendOrHook(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

LineRead FdLineReader::readLine(std::string& line) {
  line.clear();
  while (true) {
    const auto newline = buffer_.find('\n', pos_);
    if (newline != std::string::npos) {
      line.assign(buffer_, pos_, newline - pos_);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      pos_ = newline + 1;
      // Compact once the consumed prefix dominates the buffer.
      if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return LineRead::kLine;
    }
    if (buffer_.size() - pos_ >= maxLineBytes_) return LineRead::kTooLong;
    char chunk[4096];
    const ssize_t n = recvOrHook(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return LineRead::kClosed;  // EOF, error, or SO_RCVTIMEO
    buffer_.append(chunk, static_cast<std::size_t>(n));
    peak_ = std::max(peak_, buffer_.size() - pos_);
  }
}

}  // namespace contend::serve
