#pragma once
/// \file metrics.h
/// \brief Process-global metrics registry: named counters (monotonic
/// unsigned tallies) and gauges (accumulated doubles) with labeled keys,
/// unifying the per-subsystem stats silos (ExchangeCounters, OverlapStats,
/// SolverStats, TuneCacheStats) behind one snapshot/reset API.
///
/// Naming scheme (`subsystem.noun[.unit]{label=value,...}`):
///  * `comm.exchange.bytes{mu=0}` — ghost payload bytes per dimension
///  * `comm.exchange.messages`, `comm.exchange.count`
///  * `dslash.overlap.post_s` / `.interior_s` / `.wait_s` / `.exterior_s`,
///    `dslash.overlap.rank_samples` — the Fig. 4 phase times
///  * `solver.gcr.iterations` / `.matvecs` / `.restarts` / `.solves` —
///    one name for gcr_solve and the lockstep GCR-DD driver at any batch
///    width (`.solves` counts RHS)
///  * `solver.schwarz.mr_steps` — preconditioner work, summed over RHS
///  * `tune.hits` / `tune.misses` / `tune.bypassed` / `tune.stale`
///
/// Concurrency: registration (first use of a key) takes a mutex;
/// increments are relaxed atomics on stable storage, so concurrent virtual
/// ranks meter losslessly — same discipline as GlobalExchangeCounters.
/// References returned by metric_counter()/metric_gauge() stay valid for
/// the process lifetime; hot paths should look a metric up once and keep
/// the reference.

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace lqcd {

/// Monotonic event tally.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Accumulated double (phase seconds, efficiency numerators...).  add() is
/// a CAS loop — lossless under concurrent writers, like Counter.
class Gauge {
 public:
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
    }
  }
  void set(double d) { v_.store(d, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed distribution of positive samples (latencies, batch sizes).
/// 64 power-of-two buckets starting at 1 ns cover ~1e-9 .. 1.8e10, so any
/// realistic duration in seconds (and any small integer count) lands in a
/// distinct bucket.  record() is three relaxed atomic updates — safe under
/// concurrent virtual ranks, same discipline as Counter/Gauge.  Quantiles
/// come from HistogramSnapshot::percentile(), which interpolates within the
/// winning bucket: resolution is the bucket width (a factor of 2), which is
/// plenty to tell a p99 tail from a p50 body.
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr double kMin = 1e-9;  ///< lower edge of bucket 0

  void record(double x) {
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
    buckets_[static_cast<std::size_t>(bucket_index(x))].fetch_add(
        1, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }

  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  /// Overwrites the distribution with previously snapshotted totals
  /// (checkpoint restore; not safe against concurrent recorders).
  void restore(std::uint64_t count, double sum,
               const std::array<std::uint64_t, 64>& buckets) {
    count_.store(count, std::memory_order_relaxed);
    sum_.store(sum, std::memory_order_relaxed);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i].store(buckets[i], std::memory_order_relaxed);
    }
  }

  /// Bucket index for sample \p x (clamped; non-positive samples -> 0).
  static int bucket_index(double x);
  /// Lower edge of bucket \p i (kMin * 2^i).
  static double bucket_lower(int i);

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Serializes name + labels into the canonical key form
/// `name{k1=v1,k2=v2}` (labels in the order given; empty -> bare name).
std::string metric_key(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels);

/// The counter/gauge registered under \p key (created zero on first use).
/// A key registered as a counter cannot be re-registered as a gauge (and
/// vice versa): throws std::logic_error on a kind mismatch.
Counter& metric_counter(const std::string& key);
Gauge& metric_gauge(const std::string& key);
Histogram& metric_histogram(const std::string& key);

/// Frozen copy of one histogram, with quantile estimation.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  double mean() const { return count == 0 ? 0.0 : sum / double(count); }

  /// Value below which a fraction \p q of the samples fall (q in [0, 1]),
  /// linearly interpolated within the winning log bucket.  0 if empty.
  double percentile(double q) const;
};

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  std::uint64_t counter(const std::string& key) const {
    auto it = counters.find(key);
    return it == counters.end() ? 0 : it->second;
  }
  double gauge(const std::string& key) const {
    auto it = gauges.find(key);
    return it == gauges.end() ? 0.0 : it->second;
  }
  HistogramSnapshot histogram(const std::string& key) const {
    auto it = histograms.find(key);
    return it == histograms.end() ? HistogramSnapshot{} : it->second;
  }
};

MetricsSnapshot metrics_snapshot();

/// Zeroes every registered metric (registrations persist).
void reset_metrics();

/// Overwrites the registry with a previously captured snapshot: every key in
/// \p s is registered (if new) and set to its snapshotted value, and every
/// registered key absent from \p s is zeroed — after the call,
/// metrics_snapshot() == \p s.  Used by checkpoint restore (soak/) so a
/// resumed run's cumulative meters continue from where the killed run
/// stopped.  Not safe against concurrent writers: call it from quiescent
/// code only (same rule as reset_metrics()).
void restore_metrics(const MetricsSnapshot& s);

/// Prints a `== metrics ==` report of all non-zero metrics to \p out
/// (benches call this at exit; zero-valued metrics are elided so the
/// report only shows the subsystems the run actually exercised).
void print_metrics_report(std::FILE* out);

}  // namespace lqcd
