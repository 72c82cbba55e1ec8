#include "serve/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <string_view>

namespace contend::serve {

void Metrics::observeLatency(Verb verb, std::chrono::nanoseconds elapsed) {
  const auto us = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
             .count()));
  latency_[static_cast<std::size_t>(verb)].record(us);
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot snapshot;
  for (std::size_t i = 0; i < byVerb_.size(); ++i) {
    snapshot.requestsByVerb[i] = byVerb_[i].load(std::memory_order_relaxed);
    snapshot.requestsTotal += snapshot.requestsByVerb[i];
  }
  snapshot.errors = errors_.load(std::memory_order_relaxed);
  snapshot.connectionsAccepted = accepted_.load(std::memory_order_relaxed);
  snapshot.connectionsRejected = rejected_.load(std::memory_order_relaxed);
  snapshot.acceptErrors = acceptErrors_.load(std::memory_order_relaxed);
  snapshot.lineOverflows = lineOverflows_.load(std::memory_order_relaxed);
  snapshot.deadlinesExpired =
      deadlinesExpired_.load(std::memory_order_relaxed);
  snapshot.droppedBytes = droppedBytes_.load(std::memory_order_relaxed);
  snapshot.slowRequests = slowRequests_.load(std::memory_order_relaxed);
  snapshot.loopWakeups = loopWakeups_.load(std::memory_order_relaxed);
  snapshot.loopEvents = loopEvents_.load(std::memory_order_relaxed);
  snapshot.loopEagainReads =
      loopEagainReads_.load(std::memory_order_relaxed);
  snapshot.loopEagainWrites =
      loopEagainWrites_.load(std::memory_order_relaxed);
  snapshot.loopReadyBatch = loopReadyBatch_.snapshot();

  for (std::size_t i = 0; i < latency_.size(); ++i) {
    snapshot.latencyByVerb[i] = latency_[i].snapshot();
    snapshot.latencyAll.merge(snapshot.latencyByVerb[i]);
  }
  snapshot.latencySamples = snapshot.latencyAll.count;
  snapshot.p50Us = snapshot.latencyAll.quantileUs(0.50);
  snapshot.p90Us = snapshot.latencyAll.quantileUs(0.90);
  snapshot.p99Us = snapshot.latencyAll.quantileUs(0.99);
  snapshot.p999Us = snapshot.latencyAll.quantileUs(0.999);
  snapshot.maxUs = static_cast<double>(snapshot.latencyAll.maxUs);
  return snapshot;
}

void Metrics::fill(ReplyEncoder& reply) const {
  const MetricsSnapshot s = snapshot();
  reply.add("requests", s.requestsTotal);
  for (int verb = 0; verb < kVerbCount; ++verb) {
    // The per-verb counter keys are the lowercased verb names.
    char key[32];
    std::size_t length = 0;
    for (const char* c = verbName(static_cast<Verb>(verb));
         *c != '\0' && length < sizeof(key); ++c) {
      key[length++] =
          static_cast<char>(std::tolower(static_cast<unsigned char>(*c)));
    }
    reply.add(std::string_view(key, length),
              s.requestsByVerb[static_cast<std::size_t>(verb)]);
  }
  reply.add("errors", s.errors);
  reply.add("accepted", s.connectionsAccepted);
  reply.add("rejected", s.connectionsRejected);
  reply.add("accept_errors", s.acceptErrors);
  reply.add("line_overflows", s.lineOverflows);
  reply.add("deadlines_expired", s.deadlinesExpired);
  reply.add("dropped_bytes", s.droppedBytes);
  reply.add("slow_requests", s.slowRequests);
  reply.add("loop_wakeups", s.loopWakeups);
  reply.add("loop_events", s.loopEvents);
  reply.add("loop_eagain_reads", s.loopEagainReads);
  reply.add("loop_eagain_writes", s.loopEagainWrites);
  reply.add("lat_samples", s.latencySamples);
  reply.add("p50_us", s.p50Us);
  reply.add("p90_us", s.p90Us);
  reply.add("p99_us", s.p99Us);
  reply.add("p999_us", s.p999Us);
  reply.add("max_us", s.maxUs);
}

}  // namespace contend::serve
