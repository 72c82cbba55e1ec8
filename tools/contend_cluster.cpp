// contend_cluster — boots every replica of a static ring on one machine.
//
// Usage:
//   contend_cluster <profile.txt> <topology> [-- <contend_served args...>]
//
// Reads the topology file, fork+execs one `contend_served --cluster` per
// declared replica (primaries and followers alike), forwards SIGTERM/SIGINT
// to the whole fleet, and exits with the first non-zero child status once
// every child has been reaped. Anything after `--` is passed through to
// every daemon verbatim (e.g. `--loop-threads 2`, `--workers 2`).
//
// The launcher is deliberately dumb: the topology file is the cluster's one
// source of truth, so booting a cluster is exactly "run contend_served once
// per line". It exists so the quickstart, the CI smoke, and local
// experiments do not each reinvent that loop.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "serve/ring.hpp"

using namespace contend;

namespace {

std::vector<pid_t> gChildren;

void forwardSignal(int sig) {
  for (const pid_t pid : gChildren) {
    if (pid > 0) ::kill(pid, sig);
  }
}

[[noreturn]] void usage() {
  std::cerr << "usage: contend_cluster <profile.txt> <topology>"
               " [-- <contend_served args...>]\n"
               "boots one contend_served per replica declared in <topology>\n"
               "and forwards SIGTERM/SIGINT to the fleet\n";
  std::exit(2);
}

/// contend_served is resolved next to this binary, so a build tree or an
/// install tree works without PATH games.
std::string siblingServedPath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "contend_served";  // fall back to PATH
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "contend_served";
  return path.substr(0, slash + 1) + "contend_served";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string profilePath = argv[1];
  const std::string topologyPath = argv[2];
  std::vector<std::string> extra;
  if (argc > 3) {
    if (std::string(argv[3]) != "--") usage();
    for (int i = 4; i < argc; ++i) extra.emplace_back(argv[i]);
  }

  serve::ClusterTopology topology;
  try {
    topology = serve::loadTopologyFile(topologyPath);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }

  const std::string served = siblingServedPath();
  for (int shard = 0; shard < topology.shardCount(); ++shard) {
    const std::size_t replicas =
        1 + topology.shards[static_cast<std::size_t>(shard)].followers.size();
    for (std::size_t replica = 0; replica < replicas; ++replica) {
      std::vector<std::string> args = {served,
                                       profilePath,
                                       "--cluster",
                                       topologyPath,
                                       "--shard-id",
                                       std::to_string(shard),
                                       "--replica",
                                       std::to_string(replica)};
      args.insert(args.end(), extra.begin(), extra.end());
      std::vector<char*> argvChild;
      argvChild.reserve(args.size() + 1);
      for (std::string& arg : args) argvChild.push_back(arg.data());
      argvChild.push_back(nullptr);

      const pid_t pid = ::fork();
      if (pid < 0) {
        std::cerr << "error: fork: " << std::strerror(errno) << "\n";
        forwardSignal(SIGTERM);
        return 1;
      }
      if (pid == 0) {
        ::execv(argvChild[0], argvChild.data());
        std::cerr << "error: exec " << served << ": " << std::strerror(errno)
                  << "\n";
        _exit(127);
      }
      gChildren.push_back(pid);
      std::cout << "contend_cluster: shard " << shard << " replica "
                << replica << " -> pid " << pid << "\n"
                << std::flush;
    }
  }

  std::signal(SIGTERM, forwardSignal);
  std::signal(SIGINT, forwardSignal);

  int worst = 0;
  for (std::size_t reaped = 0; reaped < gChildren.size();) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;  // signal forwarded; keep reaping
      break;
    }
    ++reaped;
    const int rc = WIFEXITED(status)   ? WEXITSTATUS(status)
                   : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                         : 1;
    std::cout << "contend_cluster: pid " << pid << " exited rc=" << rc
              << "\n";
    if (rc != 0 && worst == 0) worst = rc;
  }
  return worst;
}
