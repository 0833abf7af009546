#include "util/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/json.h"

namespace wgtt::metrics {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1, 0) {
  // Empty bounds are legal: the histogram degenerates to the single overflow
  // bucket, and quantile() interpolates over [min, max].
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (cum + buckets_[i] < rank) {
      cum += buckets_[i];
      continue;
    }
    // The rank-th sample lives in bucket i: (lo, hi].
    double lo = i == 0 ? min_ : bounds_[i - 1];
    double hi = i < bounds_.size() ? bounds_[i] : max_;
    lo = std::max(lo, min_);
    hi = std::min(hi, max_);
    if (hi < lo) hi = lo;
    const double frac = static_cast<double>(rank - cum) /
                        static_cast<double>(buckets_[i]);
    return lo + (hi - lo) * frac;
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  assert(bounds_ == other.bounds_);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] = sat_add(buckets_[i], other.buckets_[i]);
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ = sat_add(count_, other.count_);
  sum_ += other.sum_;
}

std::vector<double> linear_buckets(double start, double width, std::size_t n) {
  std::vector<double> b;
  b.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.push_back(start + width * static_cast<double>(i));
  }
  return b;
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t n) {
  std::vector<double> b;
  b.reserve(n);
  double v = start;
  for (std::size_t i = 0; i < n; ++i) {
    b.push_back(v);
    v *= factor;
  }
  return b;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram(std::move(bounds)))
             .first;
  }
  return it->second;
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c.value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g.value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h.bounds();
    hs.buckets = h.buckets();
    hs.count = h.count();
    hs.sum = h.sum();
    hs.min = h.min();
    hs.max = h.max();
    hs.p50 = h.quantile(0.5);
    hs.p99 = h.quantile(0.99);
    s.histograms.push_back(std::move(hs));
  }
  return s;
}

void Snapshot::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : counters) w.field(name, v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : gauges) w.field(name, v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const HistogramSnapshot& h : histograms) {
    w.key(h.name).begin_object();
    w.field("count", h.count);
    w.field("sum", h.sum);
    w.field("min", h.min);
    w.field("max", h.max);
    w.field("p50", h.p50);
    w.field("p99", h.p99);
    w.key("bounds").begin_array();
    for (double b : h.bounds) w.value(b);
    w.end_array();
    w.key("buckets").begin_array();
    for (std::uint64_t c : h.buckets) w.value(c);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string Snapshot::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

}  // namespace wgtt::metrics
