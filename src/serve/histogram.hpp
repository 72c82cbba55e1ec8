// histogram.hpp — lock-free, mergeable, log-scale latency histograms.
//
// The serving hot path needs exact-count latency tracking that costs one
// relaxed atomic increment per request and never loses a sample — the
// sampled ring it replaces kept only the newest 4096 observations and mixed
// every verb into one window. The layout here is the HdrHistogram-style
// log-linear scheme: values below 2*kSubBuckets land in width-1 buckets
// (exact), and every octave above that is split into kSubBuckets linear
// sub-buckets, so the relative bucket width is bounded by 1/kSubBuckets
// (12.5% with 8 sub-buckets) at every magnitude. Bucket boundaries are exact
// integers, so cumulative counts (and the Prometheus `le` series derived
// from them) are exact, not estimates; only a quantile's position *within*
// its bucket is unknown, which bounds the quantile error by one bucket
// width.
//
// Concurrency: writers pick a shard from a thread-local slot counter and do
// relaxed fetch_adds on that shard's counters — no CAS loops on the count
// path, no locks, no false sharing between threads that stay on their shard.
// Increments are never lost (fetch_add is atomic); a snapshot taken while
// writers run may tear *between* buckets, which is fine for monitoring.
// Snapshots merge shards bucket-wise, and merging snapshots is associative
// and commutative, so per-verb histograms aggregate into an all-verb view by
// plain addition.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace contend::serve {

/// Sub-buckets per octave (power of two). More sub-buckets tighten the
/// relative error and widen the arrays; 8 gives ≤12.5% relative bucket
/// width, which for a p99 in the tens of microseconds means ±a few µs.
inline constexpr int kHistogramSubBucketBits = 3;
inline constexpr std::uint64_t kHistogramSubBuckets =
    std::uint64_t{1} << kHistogramSubBucketBits;

/// Values at or above 2^kHistogramMaxValueBits µs (~19 hours) land in the
/// overflow bucket; no request should ever get close.
inline constexpr int kHistogramMaxValueBits = 36;

/// Regular buckets cover [0, 2^kHistogramMaxValueBits); the last index is
/// the overflow bucket.
inline constexpr std::size_t kHistogramBucketCount =
    static_cast<std::size_t>(kHistogramMaxValueBits - kHistogramSubBucketBits +
                             1) *
        kHistogramSubBuckets +
    1;

/// Index of the bucket holding `valueUs`. Exact and branch-light: values
/// below 2*kSubBuckets map to themselves, everything else to
/// octave * kSubBuckets + sub-bucket.
[[nodiscard]] constexpr std::size_t histogramBucketIndex(
    std::uint64_t valueUs) {
  if (valueUs < 2 * kHistogramSubBuckets) {
    return static_cast<std::size_t>(valueUs);
  }
  if (valueUs >= (std::uint64_t{1} << kHistogramMaxValueBits)) {
    return kHistogramBucketCount - 1;  // overflow
  }
  const int exponent = std::bit_width(valueUs) - 1 - kHistogramSubBucketBits;
  const std::size_t octave = static_cast<std::size_t>(exponent) + 1;
  return octave * kHistogramSubBuckets +
         static_cast<std::size_t>((valueUs >> exponent) -
                                  kHistogramSubBuckets);
}

/// Smallest value mapping to bucket `index`.
[[nodiscard]] constexpr std::uint64_t histogramBucketLowerBoundUs(
    std::size_t index) {
  if (index < 2 * kHistogramSubBuckets) return index;
  if (index >= kHistogramBucketCount - 1) {
    return std::uint64_t{1} << kHistogramMaxValueBits;  // overflow
  }
  const int exponent =
      static_cast<int>(index / kHistogramSubBuckets) - 1;
  const std::uint64_t sub = index % kHistogramSubBuckets;
  return (kHistogramSubBuckets + sub) << exponent;
}

/// Largest value mapping to bucket `index` (inclusive). The overflow bucket
/// is unbounded.
[[nodiscard]] constexpr std::uint64_t histogramBucketUpperBoundUs(
    std::size_t index) {
  if (index < 2 * kHistogramSubBuckets) return index;
  if (index >= kHistogramBucketCount - 1) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const int exponent =
      static_cast<int>(index / kHistogramSubBuckets) - 1;
  const std::uint64_t sub = index % kHistogramSubBuckets;
  return ((kHistogramSubBuckets + sub + 1) << exponent) - 1;
}

/// A consistent-enough copy of one histogram (or a merge of several): plain
/// integers, safe to pass around, diff, and aggregate.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBucketCount> counts{};
  std::uint64_t count = 0;  // sum of counts (kept so callers needn't re-add)
  std::uint64_t sumUs = 0;
  std::uint64_t maxUs = 0;

  void merge(const HistogramSnapshot& other) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] += other.counts[i];
    }
    count += other.count;
    sumUs += other.sumUs;
    maxUs = std::max(maxUs, other.maxUs);
  }

  /// Quantile estimate in µs: the upper bound of the bucket holding the
  /// ⌈q·count⌉-th smallest sample, clamped to the observed maximum — so the
  /// error is at most the width of that bucket, and exactly zero below
  /// 2*kSubBuckets µs. Returns 0 on an empty histogram.
  [[nodiscard]] double quantileUs(double q) const {
    if (count == 0) return 0.0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(clamped * static_cast<double>(count))));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      if (cumulative >= rank) {
        return static_cast<double>(
            std::min(histogramBucketUpperBoundUs(i), maxUs));
      }
    }
    return static_cast<double>(maxUs);  // unreachable when count is honest
  }
};

/// The live, writable histogram: kShardCount independent bucket arrays so
/// concurrent writers do not contend on one cache line per bucket. record()
/// is wait-free (three relaxed fetch_adds plus a CAS-max); snapshot() merges
/// the shards.
class LatencyHistogram {
 public:
  static constexpr std::size_t kShardCount = 8;

  void record(std::uint64_t valueUs) {
    Shard& shard = shards_[shardIndex()];
    shard.counts[histogramBucketIndex(valueUs)].fetch_add(
        1, std::memory_order_relaxed);
    shard.sumUs.fetch_add(valueUs, std::memory_order_relaxed);
    std::uint64_t seen = shard.maxUs.load(std::memory_order_relaxed);
    while (valueUs > seen &&
           !shard.maxUs.compare_exchange_weak(seen, valueUs,
                                              std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] HistogramSnapshot snapshot() const {
    HistogramSnapshot out;
    for (const Shard& shard : shards_) {
      out.merge(snapshotShard(shard));
    }
    return out;
  }

  /// One shard's counters as a snapshot — exposed so tests can verify that
  /// merging shards is exactly how snapshot() aggregates them.
  [[nodiscard]] HistogramSnapshot snapshotShard(std::size_t shard) const {
    return snapshotShard(shards_[shard]);
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistogramBucketCount> counts{};
    std::atomic<std::uint64_t> sumUs{0};
    std::atomic<std::uint64_t> maxUs{0};
  };

  [[nodiscard]] static HistogramSnapshot snapshotShard(const Shard& shard) {
    HistogramSnapshot out;
    for (std::size_t i = 0; i < kHistogramBucketCount; ++i) {
      out.counts[i] = shard.counts[i].load(std::memory_order_relaxed);
      out.count += out.counts[i];
    }
    out.sumUs = shard.sumUs.load(std::memory_order_relaxed);
    out.maxUs = shard.maxUs.load(std::memory_order_relaxed);
    return out;
  }

  /// Threads are dealt shards round-robin from a process-wide counter: the
  /// server's event loops each land on their own shard (no write sharing
  /// at all up to kShardCount loops), and any thread count degrades to an
  /// even spread rather than a hash-collision hotspot.
  [[nodiscard]] static std::size_t shardIndex() {
    static std::atomic<std::size_t> nextSlot{0};
    thread_local const std::size_t slot =
        nextSlot.fetch_add(1, std::memory_order_relaxed);
    return slot % kShardCount;
  }

  std::array<Shard, kShardCount> shards_{};
};

}  // namespace contend::serve
