// syscall_hooks.hpp — an injectable seam over the syscalls the serving
// layer's durability and transport paths depend on.
//
// Production never installs hooks: every call site does one relaxed atomic
// pointer load and a branch, then invokes the real syscall — zero
// allocations, no indirection on the common path. Tests install a hook set
// to fail, short-write, or delay specific calls on a deterministic
// schedule, which is how the fault-injection suites prove that a torn
// journal record, a mid-response send failure, or a slow fsync degrade the
// daemon gracefully instead of corrupting state.
//
// Hooks mirror the syscall signatures and contract: return the syscall's
// result and set errno before returning -1. A hook that wants the real
// behavior for a particular invocation simply performs the real call
// itself (the raw syscalls stay visible to hook implementations).
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <cstddef>
#include <functional>

namespace contend::serve {

struct SyscallHooks {
  /// Intercepts the send(2) inside sendAll (the client's requests).
  std::function<ssize_t(int fd, const void* buf, std::size_t len)> send;
  /// Intercepts the recv(2) inside FdLineReader (the client's replies).
  std::function<ssize_t(int fd, void* buf, std::size_t len)> recv;
  /// Intercepts the write(2) appending journal records.
  std::function<ssize_t(int fd, const void* buf, std::size_t len)> write;
  /// Intercepts the fsync(2) issued by the journal's durability policy.
  std::function<int(int fd)> fsync;
  /// Intercepts the connect(2) inside Client::connectNow — the seam the
  /// replication fault-injection tests use to make a primary transiently
  /// unreachable without tearing down its listener.
  std::function<int(int fd, const struct sockaddr* addr, socklen_t len)>
      connect;
};

/// Installs (or, with nullptr, clears) the process-wide hook set. The
/// pointed-to object must outlive the installation and must not be mutated
/// while installed — install before starting servers/clients, clear after
/// joining them.
void installSyscallHooks(const SyscallHooks* hooks);

/// The currently installed hooks, or nullptr (the common case).
[[nodiscard]] const SyscallHooks* syscallHooks();

}  // namespace contend::serve
