// Tests for the per-verb latency histogram stack: bucket math exactness,
// quantile error bounds, shard-merge associativity, multi-writer stress
// (TSan-covered), the Metrics facade, and the Prometheus exposition —
// golden-file comparison plus the promtool-style lint, both ways (the
// renderer passes, hand-broken expositions fail).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/histogram.hpp"
#include "serve/metrics.hpp"
#include "serve/prometheus.hpp"

namespace contend::serve {
namespace {

TEST(LatencyHistogram, BucketBoundariesAreExactAndContiguous) {
  // Every bucket's bounds map back to the bucket itself, and bucket i+1
  // starts exactly one past bucket i's end — no gaps, no overlaps.
  for (std::size_t i = 0; i + 1 < kHistogramBucketCount; ++i) {
    const std::uint64_t lower = histogramBucketLowerBoundUs(i);
    const std::uint64_t upper = histogramBucketUpperBoundUs(i);
    ASSERT_LE(lower, upper) << "bucket " << i;
    EXPECT_EQ(histogramBucketIndex(lower), i) << "bucket " << i;
    EXPECT_EQ(histogramBucketIndex(upper), i) << "bucket " << i;
    EXPECT_EQ(upper + 1, histogramBucketLowerBoundUs(i + 1)) << "bucket " << i;
  }
  // Values below 2*kSubBuckets are their own bucket index (exact counts).
  for (std::uint64_t v = 0; v < 2 * kHistogramSubBuckets; ++v) {
    EXPECT_EQ(histogramBucketIndex(v), v);
    EXPECT_EQ(histogramBucketLowerBoundUs(v), v);
    EXPECT_EQ(histogramBucketUpperBoundUs(v), v);
  }
  // Octave boundaries land where the Prometheus `le` scheme expects them.
  EXPECT_EQ(histogramBucketIndex(16), 16u);
  EXPECT_EQ(histogramBucketIndex((std::uint64_t{1} << 36) - 1),
            kHistogramBucketCount - 2);
}

TEST(LatencyHistogram, OverflowAndUnderflowBuckets) {
  LatencyHistogram histogram;
  histogram.record(0);  // smallest representable
  histogram.record(std::uint64_t{1} << 36);  // first overflowing value
  histogram.record(std::uint64_t{1} << 40);
  const HistogramSnapshot snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.counts[0], 1u);
  EXPECT_EQ(snapshot.counts[kHistogramBucketCount - 1], 2u);
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_EQ(snapshot.maxUs, std::uint64_t{1} << 40);
  EXPECT_EQ(histogramBucketUpperBoundUs(kHistogramBucketCount - 1),
            std::numeric_limits<std::uint64_t>::max());
  // The overflow bucket's quantile clamps to the observed maximum instead of
  // reporting an unbounded upper edge.
  EXPECT_DOUBLE_EQ(snapshot.quantileUs(1.0),
                   static_cast<double>(std::uint64_t{1} << 40));
}

TEST(LatencyHistogram, QuantileWithinOneBucketWidth) {
  // Deterministic skewed sample set spanning several octaves; the quantile
  // estimate must sit in [exact, exact + width(bucket(exact))].
  LatencyHistogram histogram;
  std::vector<std::uint64_t> values;
  std::uint64_t state = 0x243f6a8885a308d3ull;
  for (int i = 0; i < 20000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const std::uint64_t value = state % (1 + (state % 7 == 0 ? 1000000u : 500u));
    values.push_back(value);
    histogram.record(value);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snapshot = histogram.snapshot();
  ASSERT_EQ(snapshot.count, values.size());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(values.size()))));
    const std::uint64_t exact = values[rank - 1];
    const std::size_t bucket = histogramBucketIndex(exact);
    const double width =
        static_cast<double>(histogramBucketUpperBoundUs(bucket) -
                            histogramBucketLowerBoundUs(bucket));
    const double estimate = snapshot.quantileUs(q);
    EXPECT_GE(estimate, static_cast<double>(exact)) << "q=" << q;
    EXPECT_LE(estimate, static_cast<double>(exact) + width) << "q=" << q;
  }
  // Below 2*kSubBuckets the buckets have width zero: quantiles are exact.
  LatencyHistogram small;
  for (std::uint64_t v = 0; v < 16; ++v) small.record(v);
  const HistogramSnapshot smallSnap = small.snapshot();
  EXPECT_DOUBLE_EQ(smallSnap.quantileUs(0.5), 7.0);
  EXPECT_DOUBLE_EQ(smallSnap.quantileUs(1.0), 15.0);
}

HistogramSnapshot snapshotOf(std::initializer_list<std::uint64_t> values) {
  LatencyHistogram histogram;
  for (const std::uint64_t value : values) histogram.record(value);
  return histogram.snapshot();
}

TEST(LatencyHistogram, MergeIsAssociativeAndCommutative) {
  const HistogramSnapshot a = snapshotOf({1, 5, 300});
  const HistogramSnapshot b = snapshotOf({5, 7000, 7000});
  const HistogramSnapshot c = snapshotOf({0, 123456789});

  HistogramSnapshot abThenC = a;
  abThenC.merge(b);
  abThenC.merge(c);
  HistogramSnapshot bcThenA = b;
  bcThenA.merge(c);
  bcThenA.merge(a);
  HistogramSnapshot cba = c;
  cba.merge(b);
  cba.merge(a);

  for (const HistogramSnapshot* other : {&bcThenA, &cba}) {
    EXPECT_EQ(abThenC.counts, other->counts);
    EXPECT_EQ(abThenC.count, other->count);
    EXPECT_EQ(abThenC.sumUs, other->sumUs);
    EXPECT_EQ(abThenC.maxUs, other->maxUs);
  }
  EXPECT_EQ(abThenC.count, 8u);
  EXPECT_EQ(abThenC.sumUs, 1 + 5 + 300 + 5 + 7000 + 7000 + 0 + 123456789u);
  EXPECT_EQ(abThenC.maxUs, 123456789u);
}

TEST(LatencyHistogram, SnapshotIsTheMergeOfItsShards) {
  LatencyHistogram histogram;
  for (std::uint64_t v = 0; v < 1000; ++v) histogram.record(v * 37 % 4096);
  HistogramSnapshot merged;
  for (std::size_t shard = 0; shard < LatencyHistogram::kShardCount; ++shard) {
    merged.merge(histogram.snapshotShard(shard));
  }
  const HistogramSnapshot snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.counts, merged.counts);
  EXPECT_EQ(snapshot.count, merged.count);
  EXPECT_EQ(snapshot.sumUs, merged.sumUs);
  EXPECT_EQ(snapshot.maxUs, merged.maxUs);
}

TEST(LatencyHistogramStress, MultiWriterNoLostIncrements) {
  // 8 threads hammer one histogram with a deterministic per-thread value
  // stream. Exact-count semantics means the final snapshot must account for
  // every single increment — and TSan must stay silent (this test is in the
  // CI TSan filter).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  LatencyHistogram histogram;
  std::array<std::uint64_t, kHistogramBucketCount> expected{};
  std::uint64_t expectedSum = 0;
  std::uint64_t expectedMax = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::uint64_t value =
          static_cast<std::uint64_t>(t * 131 + i * 17) % 100000;
      ++expected[histogramBucketIndex(value)];
      expectedSum += value;
      expectedMax = std::max(expectedMax, value);
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.record(static_cast<std::uint64_t>(t * 131 + i * 17) %
                         100000);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snapshot.sumUs, expectedSum);
  EXPECT_EQ(snapshot.maxUs, expectedMax);
  EXPECT_EQ(snapshot.counts, expected);
}

TEST(MetricsSuite, RecordsLatencyPerVerb) {
  Metrics metrics;
  metrics.observeLatency(Verb::kPredict, std::chrono::microseconds(40));
  metrics.observeLatency(Verb::kPredict, std::chrono::microseconds(80));
  metrics.observeLatency(Verb::kArrive, std::chrono::microseconds(500));
  // Sub-microsecond truncates to 0, negative clamps to 0 — both land in
  // bucket zero instead of wrapping around.
  metrics.observeLatency(Verb::kStats, std::chrono::nanoseconds(900));
  metrics.observeLatency(Verb::kStats, std::chrono::nanoseconds(-5));

  const MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.latencyByVerb[static_cast<int>(Verb::kPredict)].count,
            2u);
  EXPECT_EQ(snapshot.latencyByVerb[static_cast<int>(Verb::kArrive)].count, 1u);
  EXPECT_EQ(snapshot.latencyByVerb[static_cast<int>(Verb::kStats)].count, 2u);
  EXPECT_EQ(snapshot.latencyByVerb[static_cast<int>(Verb::kStats)].counts[0],
            2u);
  EXPECT_EQ(snapshot.latencyByVerb[static_cast<int>(Verb::kDepart)].count, 0u);
  // The merged view covers every verb, and the percentiles come from it.
  EXPECT_EQ(snapshot.latencyAll.count, 5u);
  EXPECT_EQ(snapshot.latencySamples, 5u);
  EXPECT_EQ(snapshot.latencyAll.maxUs, 500u);
  EXPECT_GE(snapshot.p99Us, snapshot.p50Us);
  EXPECT_GE(snapshot.p999Us, snapshot.p99Us);
  EXPECT_GE(snapshot.maxUs, snapshot.p999Us);
}

TEST(MetricsSuite, FillKeepsStatsKeysAndAddsNewOnes) {
  Metrics metrics;
  metrics.countRequest(Verb::kPredict);
  metrics.observeLatency(Verb::kPredict, std::chrono::microseconds(25));
  metrics.countSlowRequest();
  std::string line;
  ReplyEncoder reply(line);
  metrics.fill(reply);
  const Response response = parseResponse(line);
  // Back-compat keys from the ring era survive...
  for (const char* key : {"requests", "errors", "accepted", "rejected",
                          "queue_hwm", "lat_samples", "p50_us", "p99_us",
                          "max_us"}) {
    EXPECT_NE(response.find(key), nullptr) << key;
  }
  // ...and the histogram rewrite adds these.
  EXPECT_EQ(response.number("slow_requests"), 1.0);
  EXPECT_NE(response.find("p90_us"), nullptr);
  EXPECT_NE(response.find("p999_us"), nullptr);
  EXPECT_EQ(response.number("lat_samples"), 1.0);
  EXPECT_EQ(response.number("predict"), 1.0);
}

/// A deterministic PrometheusInput with every series populated, journal
/// included — the fixture behind the golden file and the lint round trip.
PrometheusInput goldenInput() {
  PrometheusInput input;
  input.uptimeSec = 12.5;
  input.recovered = true;
  input.journal = true;

  MetricsSnapshot& m = input.metrics;
  for (int verb = 0; verb < kVerbCount; ++verb) {
    m.requestsByVerb[static_cast<std::size_t>(verb)] =
        static_cast<std::uint64_t>(10 * (verb + 1));
    m.requestsTotal += m.requestsByVerb[static_cast<std::size_t>(verb)];
  }
  m.errors = 3;
  m.connectionsAccepted = 17;
  m.connectionsRejected = 2;
  m.acceptErrors = 1;
  m.lineOverflows = 4;
  m.deadlinesExpired = 5;
  m.droppedBytes = 321;
  m.queueDepthHighWater = 6;
  m.slowRequests = 7;
  m.loopWakeups = 40;
  m.loopEvents = 55;
  m.loopEagainReads = 9;
  m.loopEagainWrites = 2;
  // Ready-batch sizes: 30 single-event wakeups, 10 batches of 2..3.
  m.loopReadyBatch.counts[1] = 30;
  m.loopReadyBatch.counts[2] = 6;
  m.loopReadyBatch.counts[3] = 4;
  m.loopReadyBatch.count = 40;
  m.loopReadyBatch.sumUs = 30 + 6 * 2 + 4 * 3;
  m.loopReadyBatch.maxUs = 3;
  // One verb with a small, internally consistent histogram: counts in
  // buckets 3 (value 3), 20 (values 24..25), and 100 (24576..26623).
  HistogramSnapshot& predict =
      m.latencyByVerb[static_cast<std::size_t>(Verb::kPredict)];
  predict.counts[3] = 2;
  predict.counts[20] = 5;
  predict.counts[100] = 1;
  predict.count = 8;
  predict.sumUs = 2 * 3 + 5 * 24 + histogramBucketLowerBoundUs(100);
  predict.maxUs = histogramBucketLowerBoundUs(100);

  input.tracker.epoch = 9;
  input.tracker.signature = 0xfeedULL;
  input.tracker.active = 4;
  input.tracker.arrivals = 6;
  input.tracker.departures = 2;
  input.tracker.cacheShards = {{11, 3, 1, 2}, {13, 5, 0, 4}};

  input.slowdowns.epoch = 9;
  input.slowdowns.active = 4;
  input.slowdowns.comp = 1.75;
  input.slowdowns.comm = 2.25;

  input.journalStats.records = 8;
  input.journalStats.bytes = 4096;
  input.journalStats.snapshots = 1;
  input.journalStats.fsyncs = 8;
  input.journalStats.appendErrors = 0;
  input.journalStats.lagRecords = 3;

  input.replRole = 2;  // follower, so the golden pins a non-default role
  input.replLagRecords = 5;
  input.replAckedEpoch = 7;
  return input;
}

TEST(PrometheusExposition, MatchesGoldenFile) {
  const std::string rendered = renderPrometheusText(goldenInput());
  const std::filesystem::path golden =
      std::filesystem::path(CONTEND_TEST_GOLDEN_DIR) /
      "metrics_exposition.golden";
  if (std::getenv("CONTEND_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden;
    out << rendered;
    GTEST_SKIP() << "regenerated " << golden;
  }
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in) << "golden file missing: " << golden
                  << " (regenerate with CONTEND_REGEN_GOLDEN=1)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(rendered, expected.str())
      << "exposition drifted from the golden file; if intentional, "
         "regenerate with CONTEND_REGEN_GOLDEN=1";
}

TEST(PrometheusExposition, RenderedOutputPassesLint) {
  // Journal on and off: both shapes of the exposition must be conformant,
  // end in `# EOF`, and carry exact cumulative histogram counts.
  PrometheusInput with = goldenInput();
  PrometheusInput without = goldenInput();
  without.journal = false;
  for (const PrometheusInput& input : {with, without}) {
    const std::string text = renderPrometheusText(input);
    const std::vector<std::string> violations = lintPrometheusText(text);
    EXPECT_TRUE(violations.empty())
        << "first violation: " << violations.front();
  }
  // Journal gauges appear exactly when the journal is on.
  EXPECT_NE(renderPrometheusText(with).find("contend_journal_lag_records"),
            std::string::npos);
  EXPECT_EQ(renderPrometheusText(without).find("contend_journal"),
            std::string::npos);
}

TEST(PrometheusExposition, HistogramBucketsAreExactCumulativeCounts) {
  const std::string text = renderPrometheusText(goldenInput());
  // The golden input puts 2 samples at 3 µs, 5 in bucket 20 (24..25 µs),
  // and 1 in bucket 100 (24576..26623 µs). le="3" covers the first two,
  // le="15" still 2, le="31" picks up the five, +Inf all eight.
  EXPECT_NE(
      text.find("contend_request_duration_us_bucket{verb=\"PREDICT\",le=\"3\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("contend_request_duration_us_bucket{verb=\"PREDICT\",le=\"15\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("contend_request_duration_us_bucket{verb=\"PREDICT\",le=\"31\"} 7"),
      std::string::npos);
  EXPECT_NE(
      text.find("contend_request_duration_us_bucket{verb=\"PREDICT\",le=\"+Inf\"} 8"),
      std::string::npos);
  EXPECT_NE(text.find("contend_request_duration_us_count{verb=\"PREDICT\"} 8"),
            std::string::npos);
}

TEST(PrometheusLint, AcceptsAMinimalValidExposition) {
  const std::string text =
      "# HELP x_total things\n"
      "# TYPE x_total counter\n"
      "x_total 4\n"
      "# HELP d_us duration\n"
      "# TYPE d_us histogram\n"
      "d_us_bucket{le=\"1\"} 1\n"
      "d_us_bucket{le=\"+Inf\"} 3\n"
      "d_us_sum 12\n"
      "d_us_count 3\n"
      "# EOF\n";
  const std::vector<std::string> violations = lintPrometheusText(text);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << violations.front();
}

std::string violationsFor(const std::string& text) {
  std::string joined;
  for (const std::string& violation : lintPrometheusText(text)) {
    joined += violation;
    joined += '\n';
  }
  return joined;
}

TEST(PrometheusLint, RejectsBrokenExpositions) {
  EXPECT_NE(violationsFor("# TYPE a counter\na 1\n")
                .find("missing '# EOF'"),
            std::string::npos);
  EXPECT_NE(violationsFor("# TYPE a counter\na 1\n# EOF\nextra 1\n")
                .find("after the '# EOF'"),
            std::string::npos);
  EXPECT_NE(violationsFor("a 1\n# EOF\n").find("without a TYPE"),
            std::string::npos);
  EXPECT_NE(violationsFor("# TYPE a counter\na 1\na 1\n# EOF\n")
                .find("duplicate series"),
            std::string::npos);
  EXPECT_NE(violationsFor("# TYPE a counter\n# TYPE b counter\n"
                          "a 1\nb 1\na{x=\"1\"} 1\n# EOF\n")
                .find("interleaved"),
            std::string::npos);
  EXPECT_NE(violationsFor("# TYPE a counter\na 1\n# TYPE a counter\n# EOF\n")
                .find("after its samples"),
            std::string::npos);
  EXPECT_NE(violationsFor("# TYPE a counter\na not-a-number\n# EOF\n")
                .find("unparsable value"),
            std::string::npos);
  EXPECT_NE(violationsFor("# TYPE 9bad counter\n# EOF\n")
                .find("bad metric name"),
            std::string::npos);
  EXPECT_NE(violationsFor("# TYPE a counter\na 1 1234567890\n# EOF\n")
                .find("timestamps"),
            std::string::npos);
  // Histogram-specific rules.
  EXPECT_NE(violationsFor("# TYPE h histogram\n"
                          "h_bucket{le=\"5\"} 1\nh_bucket{le=\"2\"} 2\n"
                          "h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n"
                          "# EOF\n")
                .find("not strictly increasing"),
            std::string::npos);
  EXPECT_NE(violationsFor("# TYPE h histogram\n"
                          "h_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 2\n"
                          "h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"
                          "# EOF\n")
                .find("counts decrease"),
            std::string::npos);
  EXPECT_NE(violationsFor("# TYPE h histogram\n"
                          "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"
                          "# EOF\n")
                .find("+Inf"),
            std::string::npos);
  EXPECT_NE(violationsFor("# TYPE h histogram\n"
                          "h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n"
                          "# EOF\n")
                .find("_count disagrees"),
            std::string::npos);
  EXPECT_NE(violationsFor("# TYPE h histogram\n"
                          "h_bucket{le=\"+Inf\"} 3\nh_count 3\n# EOF\n")
                .find("missing _sum"),
            std::string::npos);
}

}  // namespace
}  // namespace contend::serve
