// Unit and property tests for util/metrics: histogram bucket accounting,
// quantile bracketing on synthetic distributions, merge equivalence, and the
// thread-scoped registry context the per-sim instrumentation hangs off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/context.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace wgtt::metrics {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge basics
// ---------------------------------------------------------------------------

TEST(CounterTest, Accumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, SaturatesAtUint64MaxInsteadOfWrapping) {
  // Soak horizons must never make a counter appear to decrease: the health
  // engine's monotone watchdog treats a decrease as a hard violation.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  Counter c;
  c.add(kMax - 5);
  EXPECT_EQ(c.value(), kMax - 5);
  c.add(10);  // would wrap to 4
  EXPECT_EQ(c.value(), kMax);
  c.add(kMax);  // pinned once saturated
  EXPECT_EQ(c.value(), kMax);
  c.add();
  EXPECT_EQ(c.value(), kMax);
}

TEST(HistogramTest, CountSaturatesUnderMergeDoubling) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  Histogram a(std::vector<double>{1.0});
  a.record(0.5);
  Histogram b(std::vector<double>{1.0});
  b.record(2.0);
  // Ping-pong merges grow the counts super-exponentially; well past 2^64
  // both total and per-bucket counts must pin at the max, not wrap.
  for (int i = 0; i < 200; ++i) {
    b.merge(a);
    a.merge(b);
  }
  EXPECT_EQ(a.count(), kMax);
  for (std::uint64_t bucket : a.buckets()) EXPECT_LE(bucket, kMax);
  // Derived views stay well-defined at saturation.
  const double q = a.quantile(0.5);
  EXPECT_GE(q, a.min());
  EXPECT_LE(q, a.max());
  a.record(0.25);  // further samples cannot decrease anything
  EXPECT_EQ(a.count(), kMax);
}

TEST(GaugeTest, TracksValueAndHighWaterMark) {
  Gauge g;
  g.set(3.0);
  g.set(7.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 7.0);
  g.add(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
  EXPECT_DOUBLE_EQ(g.max(), 12.0);
}

// ---------------------------------------------------------------------------
// Histogram properties
// ---------------------------------------------------------------------------

// The bucket index record() assigns to x (upper-inclusive bounds).
std::size_t bucket_of(const std::vector<double>& bounds, double x) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), x);
  return static_cast<std::size_t>(it - bounds.begin());
}

// Exact nearest-rank quantile of a sample set.
double exact_quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return samples[rank - 1];
}

// Synthetic distributions keyed by index so the property runs over several
// shapes: uniform, exponential (heavy overflow tail), gaussian, constant.
std::vector<double> synthetic_samples(int kind, std::size_t n,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case 0: s.push_back(rng.uniform(0.0, 100.0)); break;
      case 1: s.push_back(rng.exponential(12.0)); break;
      case 2: s.push_back(rng.gaussian(50.0, 15.0)); break;
      default: s.push_back(42.0); break;
    }
  }
  return s;
}

class HistogramProperty : public ::testing::TestWithParam<int> {};

TEST_P(HistogramProperty, BucketCountsSumToSampleCount) {
  const auto samples = synthetic_samples(GetParam(), 1000, 7);
  Histogram h(linear_buckets(0.0, 10.0, 10));
  for (double x : samples) h.record(x);

  std::uint64_t total = 0;
  for (std::uint64_t b : h.buckets()) total += b;
  EXPECT_EQ(total, samples.size());
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.buckets().size(), h.bounds().size() + 1);
}

TEST_P(HistogramProperty, QuantileEstimateBracketsExactQuantile) {
  const auto samples = synthetic_samples(GetParam(), 500, 11);
  const auto bounds = linear_buckets(0.0, 10.0, 10);
  Histogram h(bounds);
  for (double x : samples) h.record(x);

  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double exact = exact_quantile(samples, q);
    const double est = h.quantile(q);
    // The estimate must land inside the bucket holding the exact sample
    // quantile (clamped to the observed extremes at the edges).
    const std::size_t b = bucket_of(bounds, exact);
    const double lo =
        std::max(b == 0 ? h.min() : bounds[b - 1], h.min());
    const double hi = std::min(b < bounds.size() ? bounds[b] : h.max(),
                               h.max());
    EXPECT_GE(est, lo - 1e-9) << "q=" << q << " exact=" << exact;
    EXPECT_LE(est, hi + 1e-9) << "q=" << q << " exact=" << exact;
  }
}

TEST_P(HistogramProperty, MergeEqualsRecordingUnion) {
  // Integer-valued samples so sums compare exactly in floating point.
  Rng rng(23 + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> a, b;
  for (int i = 0; i < 300; ++i) {
    a.push_back(static_cast<double>(rng.uniform_int(0, 120)));
  }
  for (int i = 0; i < 170; ++i) {
    b.push_back(static_cast<double>(rng.uniform_int(-5, 90)));
  }

  const auto bounds = exponential_buckets(1.0, 2.0, 7);
  Histogram ha(bounds), hb(bounds), hu(bounds);
  for (double x : a) { ha.record(x); hu.record(x); }
  for (double x : b) { hb.record(x); hu.record(x); }

  ha.merge(hb);
  EXPECT_EQ(ha.count(), hu.count());
  EXPECT_EQ(ha.buckets(), hu.buckets());
  EXPECT_DOUBLE_EQ(ha.sum(), hu.sum());
  EXPECT_DOUBLE_EQ(ha.min(), hu.min());
  EXPECT_DOUBLE_EQ(ha.max(), hu.max());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(ha.quantile(q), hu.quantile(q)) << "q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramProperty,
                         ::testing::Values(0, 1, 2, 3));

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h(linear_buckets(0.0, 1.0, 4));
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramTest, MergeIntoEmptyAdoptsExtremes) {
  const auto bounds = linear_buckets(0.0, 10.0, 4);
  Histogram empty(bounds), full(bounds);
  full.record(3.5);
  full.record(17.0);
  empty.merge(full);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.min(), 3.5);
  EXPECT_DOUBLE_EQ(empty.max(), 17.0);
}

TEST(HistogramTest, EmptyBoundsDegenerateToSingleOverflowBucket) {
  // Regression: empty bounds used to trip an assertion; they are now legal
  // and behave as one overflow bucket whose quantiles span [min, max].
  Histogram h({});
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);  // empty histogram: defined, 0
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
  h.record(10.0);
  h.record(30.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{2}));
  // All mass in one bucket: estimates interpolate over [min, max] and are
  // always bracketed by the observed extremes.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
  for (double q : {0.0, 0.25, 0.5, 0.75}) {
    EXPECT_GE(h.quantile(q), 10.0) << "q=" << q;
    EXPECT_LE(h.quantile(q), 30.0) << "q=" << q;
  }
}

TEST(HistogramTest, SingleSampleQuantilesAreThatSample) {
  Histogram h(linear_buckets(0.0, 1.0, 4));
  h.record(2.5);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 2.5) << "q=" << q;
  }
}

TEST(HistogramTest, EmptyBoundsMergeAndSnapshot) {
  Histogram a({}), b({});
  a.record(1.0);
  b.record(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);

  MetricsRegistry reg;
  reg.histogram("edge", {}).record(2.0);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_TRUE(snap.histograms[0].bounds.empty());
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].p50, 2.0);
}

TEST(HistogramTest, UpperBoundIsInclusive) {
  Histogram h(linear_buckets(10.0, 10.0, 2));  // bounds 10, 20
  h.record(10.0);  // first bucket (x <= 10)
  h.record(10.1);  // second bucket
  h.record(25.0);  // overflow
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{1, 1, 1}));
}

// ---------------------------------------------------------------------------
// Registry + thread context
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("a");
  c1.add(5);
  EXPECT_EQ(&reg.counter("a"), &c1);
  EXPECT_EQ(reg.counter("a").value(), 5u);
  Histogram& h1 = reg.histogram("h", linear_buckets(0.0, 1.0, 2));
  // Later callers get the existing instrument regardless of bounds.
  EXPECT_EQ(&reg.histogram("h", linear_buckets(0.0, 5.0, 9)), &h1);
}

TEST(MetricsRegistryTest, SnapshotIsLexicographicallyOrdered) {
  MetricsRegistry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.counter("mid").add(3);
  const Snapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0].first, "alpha");
  EXPECT_EQ(s.counters[1].first, "mid");
  EXPECT_EQ(s.counters[2].first, "zeta");
}

TEST(MetricsRegistryTest, SnapshotJsonShape) {
  MetricsRegistry reg;
  reg.counter("events").add(3);
  reg.gauge("depth").set(2.5);
  reg.histogram("lat", linear_buckets(1.0, 1.0, 2)).record(1.5);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\":{\"events\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"depth\":2.5}"), std::string::npos);
  EXPECT_NE(json.find("\"lat\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1,0]"), std::string::npos);
}

TEST(MetricsRegistryTest, ScopedContextInstallsAndNests) {
  EXPECT_EQ(obs::Context::current().metrics, nullptr);
  MetricsRegistry outer, inner;
  const obs::Context a{.metrics = &outer}, b{.metrics = &inner};
  {
    obs::ScopedContext sa(&a);
    EXPECT_EQ(obs::Context::current().metrics, &outer);
    {
      obs::ScopedContext sb(&b);
      EXPECT_EQ(obs::Context::current().metrics, &inner);
      // Null installer is a no-op, not an uninstall.
      obs::ScopedContext sc(nullptr);
      EXPECT_EQ(obs::Context::current().metrics, &inner);
    }
    EXPECT_EQ(obs::Context::current().metrics, &outer);
  }
  EXPECT_EQ(obs::Context::current().metrics, nullptr);
}

TEST(MetricsRegistryTest, ContextIsPerThread) {
  MetricsRegistry reg;
  const obs::Context ctx{.metrics = &reg};
  obs::ScopedContext scope(&ctx);
  MetricsRegistry* seen = &reg;
  std::thread([&seen]() { seen = obs::Context::current().metrics; }).join();
  EXPECT_EQ(seen, nullptr);  // other threads see no registry
  EXPECT_EQ(obs::Context::current().metrics, &reg);
}

}  // namespace
}  // namespace wgtt::metrics
