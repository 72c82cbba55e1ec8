// perfbench.hpp — shared pieces of the contend benchmark programs: clocks,
// /proc readers, quantiles, the in-memory span tracer, and the result
// record every subcommand prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "model/mix.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling process (all threads), seconds.
[[nodiscard]] double processCpuSec();

/// utime + stime of another process from /proc/<pid>/stat, seconds.
[[nodiscard]] double procCpuSec(int pid);

/// A `VmRSS` / `VmHWM` style field of /proc/<pid>/status, kB; pid 0 = self.
[[nodiscard]] double procStatusKb(int pid, std::string_view field);

/// Quantile by nearest rank on a copy (q in [0, 1]); 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One timed interval at a layer boundary. `parent` indexes the span that
/// caused it (kNoParent for a root); spans of one request share `request`.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

/// Spans kept in memory and written out once, at the end of a traced run.
class Tracer {
 public:
  [[nodiscard]] std::uint32_t intern(std::string_view name);
  [[nodiscard]] const std::string& nameOf(std::uint32_t id) const {
    return names_[id];
  }
  std::uint32_t open(std::uint32_t name, std::uint32_t parent,
                     std::uint64_t request);
  void close(std::uint32_t span) { spans_[span].endNs = nowNs(); }
  /// Records an interval measured by the caller.
  std::uint32_t add(std::uint32_t name, std::uint32_t parent,
                    std::uint64_t request, std::int64_t startNs,
                    std::int64_t endNs);
  void rename(std::uint32_t span, std::uint32_t name) {
    spans_[span].name = name;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ns) of every span carrying `name`.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// Self times (ns) of every span carrying `name`.
  [[nodiscard]] std::vector<double> selfTimes(std::string_view name) const;

  /// Tab-separated: name, start, end, parent, request (one span per line).
  void write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the durations of its direct
/// children (children are assumed nested inside their parent).
[[nodiscard]] std::vector<std::int64_t> selfTimes(
    const std::vector<Span>& spans);

/// What a subcommand reports: metric values by name, operation counts, and
/// free-form provenance/sample-count notes.
struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void fail(const std::string& why);
  /// One JSON object on one line.
  [[nodiscard]] std::string json() const;
};

/// The workload inputs directory layout and shared knobs.
struct Inputs {
  std::string dir;
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  [[nodiscard]] std::string path(std::string_view file) const {
    return dir + "/" + std::string(file);
  }
};

/// One request of a client stream. Kinds: 'Q' a plain request sent
/// `count` times; 'P' the `arg`-th request of the traffic's shared pool;
/// 'A' an ARRIVE whose reply id is remembered; 'D' a DEPART of the id the
/// `arg`-th 'A' record of the same stream received.
struct StreamRecord {
  char kind = 'Q';
  std::uint64_t count = 1;
  std::uint64_t arg = 0;
  std::string bytes;
};
[[nodiscard]] std::vector<StreamRecord> readStream(const std::string& path);
void writeStream(const std::string& path,
                 const std::vector<StreamRecord>& records);
/// Requests a stream sends in total (repeat counts expanded).
[[nodiscard]] std::uint64_t streamRequests(
    const std::vector<StreamRecord>& records);

/// Reads key=value lines (the generator's `meta.txt`).
[[nodiscard]] std::map<std::string, std::string> readMeta(
    const std::string& path);
[[nodiscard]] std::string readFile(const std::string& path);
void writeFile(const std::string& path, std::string_view bytes);

/// Client traffic for one daemon run.
struct ServeTraffic {
  std::vector<StreamRecord> base;               // sent first, on one client
  std::vector<std::vector<StreamRecord>> conns;  // one stream per client
  std::vector<StreamRecord> pool;                // bodies of 'P' records
  std::uint64_t warmup = 0;  // leading requests per client, not timed
  std::string journal;       // prepared journal to start from ('' = none)
};

/// The request text of a 'Q', 'P' or 'A' record.
[[nodiscard]] inline const std::string& requestBytes(
    const ServeTraffic& traffic, const StreamRecord& record) {
  return record.kind == 'P' ? traffic.pool.at(record.arg).bytes : record.bytes;
}

/// What one daemon run measured, from the client side.
struct DaemonReport {
  std::vector<double> setupSec;    // spawn -> first OK, per start-up
  // Measured request latencies; window w holds every client's w-th slice
  // of its requests, so the windows follow the run's progress.
  std::vector<std::vector<double>> latencyNs;
  double daemonCpuSec = 0.0;       // daemon CPU over the measured window
  double hwmKb = 0.0;              // daemon peak RSS at the end
  double rssGrowthKb = 0.0;        // VmRSS end minus start of the window
  std::uint64_t mutations = 0;     // ARRIVE/DEPART sent in the window
  std::map<std::string, std::string> stats;  // final STATS epoch, p, engine
};

/// Latency windows per daemon run. Quantiles are taken per window and the
/// least-disturbed window is reported: host interference (CPU steal, a busy
/// SMT sibling) only adds latency and comes in bursts of seconds to minutes,
/// so the best window of a run tracks the code, not the host.
inline constexpr std::size_t kLatencyWindows = 20;

/// Lowest over windows of the q-quantile within each window, microseconds.
[[nodiscard]] double bestWindowQuantileUs(
    const std::vector<std::vector<double>>& windows, double q);

/// Spawns contend_served `setupTrials` times (the last one stays up to
/// serve), drives the traffic with one closed-loop thread per stream, and
/// checks every reply. `checkReply` vets 'Q' replies (may be empty).
/// Failures are counted into `out`.
DaemonReport runDaemon(const ServeTraffic& traffic, const std::string& profile,
                         const std::string& binDir, int setupTrials,
                         const std::function<bool(std::string_view)>& checkReply,
                         Result& out);

/// The serve layers, replayed in-process on the same traffic: parse,
/// tracker, journal and encode, plus the transport share of `clientP50Us`.
/// When `primary` (the traffic is the workload's own), also reports the
/// tracing overhead and appends the ARRIVE'd apps to `apps` and the mix
/// depth after every request to `depths`.
void measureServeLayers(const ServeTraffic& traffic, const std::string& profile,
                        double clientP50Us, bool primary, Tracer& tracer,
                        Result& out,
                        std::vector<contend::model::CompetingApp>& apps,
                        std::vector<double>& depths);

/// The scenario layers (parse, trace load, scheduler callbacks, engine self
/// time) over two traced passes of one scenario file; returns each pass's
/// Engine::run CPU seconds. The first pass's task arrivals and completions
/// go to `lifecycle` as serve traffic, and its placed tasks' shapes and
/// per-core mix depths to `apps` and `depths` (each may be null).
std::vector<double> measureScenarioLayers(
    const std::string& scenarioPath, const std::string& tracePath,
    Tracer& tracer, Result& out, std::vector<StreamRecord>* lifecycle,
    std::vector<contend::model::CompetingApp>* apps,
    std::vector<double>* depths);

/// WorkloadMix and slowdown primitives at the p50 and max of `depths`,
/// on mixes built from `apps`.
void measureModelLayers(const std::vector<contend::model::CompetingApp>& apps,
                        const std::vector<double>& depths,
                        const std::string& profile, Result& out);

/// Generates every input of `in.workload` into `in.dir`.
void generate(const Inputs& in);

/// Runs the workload and fills `out`; `traced` selects the per-layer run.
void runServe(const Inputs& in, bool traced, const std::string& binDir,
              Result& out);
void runScenario(const Inputs& in, bool traced, const std::string& binDir,
                 Result& out);

}  // namespace perfbench
