// probe.cpp — entry point of the benchmark's compiled half.
//
//   perfbench_probe gen <workload> <seed> <seconds> <dir>
//   perfbench_probe run <workload> <seed> <seconds> <dir> <trace 0|1>
//   perfbench_probe selftest
//
// `gen` writes a workload's inputs; `run` measures it from inside <dir>
// (sockets and journals live there) and prints one JSON result line;
// `selftest` checks the span and quantile arithmetic.
#include <unistd.h>

#include <climits>
#include <exception>
#include <iostream>
#include <string>

#include "perfbench.hpp"

namespace {

int selftest() {
  using perfbench::Span;
  // root [0,100] has children a [10,30] and b [40,70]; b has c [45,50].
  const std::vector<Span> spans{{0, Span::kNoParent, 1, 0, 100},
                                {1, 0, 1, 10, 30},
                                {2, 0, 1, 40, 70},
                                {3, 2, 1, 45, 50}};
  const std::vector<std::int64_t> self = perfbench::selfTimes(spans);
  const std::vector<std::int64_t> want{50, 20, 25, 5};
  int failures = self == want ? 0 : 1;
  if (perfbench::quantile({5, 1, 4, 2, 3}, 0.5) != 3) ++failures;
  if (perfbench::quantile({1, 2, 3, 4}, 0.99) != 4) ++failures;
  if (perfbench::quantile({7}, 0.0) != 7) ++failures;
  perfbench::Tracer tracer;
  const std::uint32_t root = tracer.add(tracer.intern("r"), Span::kNoParent, 1, 0, 100);
  tracer.add(tracer.intern("c"), root, 1, 10, 40);
  if (tracer.selfTimes("r") != std::vector<double>{70}) ++failures;
  std::cout << (failures == 0 ? "selftest ok" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "selftest") return selftest();
    if ((mode != "gen" || argc != 6) && (mode != "run" || argc != 7)) {
      std::cerr << "usage: perfbench_probe gen|run <workload> <seed> <seconds> "
                   "<dir> [trace]\n";
      return 2;
    }
    perfbench::Inputs in;
    in.workload = argv[2];
    in.seed = std::stoull(argv[3]);
    in.seconds = std::stoi(argv[4]);
    in.dir = argv[5];
    if (mode == "gen") {
      perfbench::generate(in);
      return 0;
    }
    char self[PATH_MAX] = {};
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    std::string binDir(self, n > 0 ? static_cast<std::size_t>(n) : 0);
    binDir = binDir.substr(0, binDir.rfind('/'));
    if (::chdir(in.dir.c_str()) != 0) throw std::runtime_error("chdir failed");
    in.dir = ".";
    const bool traced = std::string(argv[6]) == "1";
    perfbench::Result result;
    result.info["compiler"] = PERFBENCH_CXX;
    result.info["build_type"] = PERFBENCH_BUILD_TYPE;
    if (in.workload.rfind("serve_", 0) == 0) {
      perfbench::runServe(in, traced, binDir, result);
    } else {
      perfbench::runScenario(in, traced, binDir, result);
    }
    std::cout << result.json() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_probe: " << error.what() << "\n";
    return 1;
  }
}
