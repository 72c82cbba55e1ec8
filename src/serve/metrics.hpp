// metrics.hpp — lock-free serving counters and per-verb latency histograms,
// surfaced through the STATS and METRICS verbs.
//
// Everything here is written from the event-loop threads on the request hot
// path, so the write side is atomics only: monotonic counters and one
// sharded log-scale histogram per verb (see histogram.hpp —
// exact counts, never a lost increment, relative bucket width ≤ 12.5%).
// Reads (snapshot) are approximate by design — a snapshot taken while
// requests are in flight may tear across counters, which is fine for
// operational monitoring and keeps zero synchronization on the hot path.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "serve/histogram.hpp"
#include "serve/protocol.hpp"

namespace contend::serve {

struct MetricsSnapshot {
  std::array<std::uint64_t, kVerbCount> requestsByVerb{};
  std::uint64_t requestsTotal = 0;
  std::uint64_t errors = 0;
  std::uint64_t connectionsAccepted = 0;
  std::uint64_t connectionsRejected = 0;
  std::uint64_t acceptErrors = 0;
  std::uint64_t lineOverflows = 0;
  std::uint64_t deadlinesExpired = 0;
  std::uint64_t droppedBytes = 0;
  std::uint64_t slowRequests = 0;
  // Event-loop instrumentation.
  std::uint64_t loopWakeups = 0;
  std::uint64_t loopEvents = 0;
  std::uint64_t loopEagainReads = 0;
  std::uint64_t loopEagainWrites = 0;
  // Ready-event batch size per epoll_wait return (the log-scale histogram
  // machinery is unit-agnostic: buckets count events here, not µs).
  HistogramSnapshot loopReadyBatch;
  // Per-verb service-time histograms plus their merge; latencyAll is what
  // the STATS percentiles (and the ring they replaced) describe.
  std::array<HistogramSnapshot, kVerbCount> latencyByVerb{};
  HistogramSnapshot latencyAll;
  std::uint64_t latencySamples = 0;  // latencyAll.count
  double p50Us = 0.0;
  double p90Us = 0.0;
  double p99Us = 0.0;
  double p999Us = 0.0;
  double maxUs = 0.0;
};

class Metrics {
 public:
  void countRequest(Verb verb) {
    byVerb_[static_cast<std::size_t>(verb)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void countError() { errors_.fetch_add(1, std::memory_order_relaxed); }
  void countAccepted() { accepted_.fetch_add(1, std::memory_order_relaxed); }
  void countRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  /// accept(2) failures (EMFILE/ENFILE fd exhaustion and friends).
  void countAcceptError() {
    acceptErrors_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Connections dropped for streaming a line past the request-line cap.
  void countLineOverflow() {
    lineOverflows_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Connections dropped for blowing the per-request wall-clock deadline.
  void countDeadlineExpired() {
    deadlinesExpired_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Response bytes discarded because the connection died before delivery.
  void countDroppedBytes(std::size_t bytes) {
    droppedBytes_.fetch_add(static_cast<std::uint64_t>(bytes),
                            std::memory_order_relaxed);
  }
  /// Requests that crossed the --slow-request-us threshold.
  void countSlowRequest() {
    slowRequests_.fetch_add(1, std::memory_order_relaxed);
  }
  /// One epoll_wait return, timeouts included.
  void countLoopWakeup() {
    loopWakeups_.fetch_add(1, std::memory_order_relaxed);
  }
  /// One epoll_wait return that delivered `events` ready events: bumps the
  /// events counter and feeds the ready-batch-size histogram.
  void observeLoopBatch(std::size_t events) {
    loopEvents_.fetch_add(static_cast<std::uint64_t>(events),
                          std::memory_order_relaxed);
    loopReadyBatch_.record(static_cast<std::uint64_t>(events));
  }
  /// recv() drained a readable socket down to EAGAIN (edge-triggered reads).
  void countEagainRead() {
    loopEagainReads_.fetch_add(1, std::memory_order_relaxed);
  }
  /// send() hit EAGAIN and the connection armed EPOLLOUT backpressure.
  void countEagainWrite() {
    loopEagainWrites_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one request's service latency into the verb's histogram
  /// (truncated to whole microseconds).
  void observeLatency(Verb verb, std::chrono::nanoseconds elapsed);

  /// The verb's live histogram (for the Prometheus exposition and tests).
  [[nodiscard]] const LatencyHistogram& latency(Verb verb) const {
    return latency_[static_cast<std::size_t>(verb)];
  }

  /// Totals plus per-verb histograms; percentiles come from the merged
  /// histogram, so they cover every sample ever recorded (not a tail
  /// window) with at most one bucket width of error.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Appends the snapshot as `key=value` reply fields (STATS verb).
  void fill(ReplyEncoder& reply) const;

 private:
  std::array<std::atomic<std::uint64_t>, kVerbCount> byVerb_{};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> acceptErrors_{0};
  std::atomic<std::uint64_t> lineOverflows_{0};
  std::atomic<std::uint64_t> deadlinesExpired_{0};
  std::atomic<std::uint64_t> droppedBytes_{0};
  std::atomic<std::uint64_t> slowRequests_{0};
  std::atomic<std::uint64_t> loopWakeups_{0};
  std::atomic<std::uint64_t> loopEvents_{0};
  std::atomic<std::uint64_t> loopEagainReads_{0};
  std::atomic<std::uint64_t> loopEagainWrites_{0};
  LatencyHistogram loopReadyBatch_{};
  std::array<LatencyHistogram, kVerbCount> latency_{};
};

}  // namespace contend::serve
