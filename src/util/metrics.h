// Per-simulation metrics: counters, gauges, and fixed-bucket histograms.
//
// A MetricsRegistry is owned by the Testbed of one simulation and reached
// through its obs::Context (obs/context.h).  Components cache typed pointers
// to the instruments they update at construction; with no registry the
// cached pointers are null and every record site reduces to a single
// inlineable branch — instrumentation is free when off and never perturbs
// simulation behaviour when on (instruments only observe).
//
// Iteration order over instruments is the lexicographic name order, so
// snapshots and their JSON serialization are deterministic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wgtt {
class JsonWriter;
}

namespace wgtt::metrics {

/// Monotone event count.  Saturates at UINT64_MAX instead of wrapping: soak
/// horizons (hours of simulated time, ~1e10 events) must never produce a
/// counter that appears to decrease — the health engine's monotone watchdog
/// treats a decrease as a hard invariant violation.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    const std::uint64_t v = value_ + n;
    value_ = v < value_ ? ~std::uint64_t{0} : v;
  }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value plus the high-water mark it reached.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  void add(double d) { set(value_ + d); }
  double value() const { return value_; }
  double max() const { return max_; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bucket histogram with Prometheus-style upper-inclusive buckets:
/// sample x lands in the first bucket whose bound b satisfies x <= b, or in
/// the implicit overflow bucket past the last bound.
class Histogram {
 public:
  /// `upper_bounds` must be sorted.  An empty list is legal and degenerates
  /// to the single overflow bucket (quantiles interpolate over [min, max]).
  explicit Histogram(std::vector<double> upper_bounds);

  /// Inline: the scheduler records its queue depth on every dispatch.
  void record(double x) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
    auto& bucket = buckets_[static_cast<std::size_t>(it - bounds_.begin())];
    bucket = sat_add(bucket, 1);
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      if (x < min_) min_ = x;
      if (x > max_) max_ = x;
    }
    count_ = sat_add(count_, 1);
    sum_ += x;
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  /// Nearest-rank quantile estimate, q in [0, 1]: locate the bucket holding
  /// the ceil(q*n)-th sample and interpolate linearly inside it.  The
  /// estimate always lies within that bucket's bounds (clamped to the
  /// observed min/max at the edges), so it brackets the exact sample
  /// quantile to within one bucket width.  Defined for every histogram
  /// state: an empty histogram returns 0.0, and a single-bucket (empty
  /// bounds) histogram interpolates over [min, max].
  double quantile(double q) const;

  /// Accumulate `other` (same bounds required) as if its samples had been
  /// recorded here.
  void merge(const Histogram& other);

 private:
  /// Saturating add: bucket and sample counts must stay monotone at soak
  /// horizons instead of wrapping (same contract as Counter::add).
  static std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
    const std::uint64_t v = a + b;
    return v < a ? ~std::uint64_t{0} : v;
  }

  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// `n` buckets: start, start+width, ...
std::vector<double> linear_buckets(double start, double width, std::size_t n);
/// `n` buckets: start, start*factor, ... (factor > 1).
std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t n);

/// A flattened, registry-independent copy of every instrument — what outlives
/// the simulation and lands in the bench reports.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;  // (name, value)
  std::vector<HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Writes one JSON object: {"counters":{..},"gauges":{..},"histograms":{..}}.
  void write_json(JsonWriter& w) const;
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name.  References stay valid for the registry's
  /// lifetime (node-based map), so callers cache them at construction.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First caller fixes the bucket bounds; later callers get the existing
  /// histogram regardless of the bounds they pass.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  Snapshot snapshot() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace wgtt::metrics
