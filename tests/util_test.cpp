// Unit tests for util: Time arithmetic, RNG determinism and distributions,
// statistics accumulators, unit conversions.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "obs/context.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/profiler.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/units.h"

namespace wgtt {
namespace {

TEST(TimeTest, ConstructorsAgree) {
  EXPECT_EQ(Time::us(1).to_ns(), 1000);
  EXPECT_EQ(Time::ms(1).to_ns(), 1'000'000);
  EXPECT_EQ(Time::sec(1).to_ns(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(Time::ms(2.5).to_ms(), 2.5);
}

TEST(TimeTest, Arithmetic) {
  const Time a = Time::ms(3);
  const Time b = Time::ms(1);
  EXPECT_EQ((a + b).to_ms(), 4.0);
  EXPECT_EQ((a - b).to_ms(), 2.0);
  EXPECT_EQ((a * 2.0).to_ms(), 6.0);
  EXPECT_DOUBLE_EQ(a / b, 3.0);
}

TEST(TimeTest, Ordering) {
  EXPECT_LT(Time::us(999), Time::ms(1));
  EXPECT_GT(Time::infinity(), Time::sec(1e9));
  EXPECT_EQ(Time::zero(), Time::ns(0));
}

TEST(TimeTest, CompoundAssignment) {
  Time t = Time::ms(1);
  t += Time::ms(2);
  EXPECT_EQ(t, Time::ms(3));
  t -= Time::ms(1);
  EXPECT_EQ(t, Time::ms(2));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(0, 7);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 7);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.gaussian(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(5.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(23);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
  // Forking with the same tag from the same parent state is reproducible.
  Rng parent2(23);
  Rng a2 = parent2.fork(1);
  Rng a3(23);
  EXPECT_EQ(Rng(23).fork(1).next_u64(), a3.fork(1).next_u64());
  (void)a2;
}

TEST(RngTest, ForkByString) {
  Rng parent(29);
  Rng a = parent.fork("channel");
  Rng b = parent.fork("mac");
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RunningStatsTest, Basic) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.add(42.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(SampleSetTest, PercentilesExact) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0.9), 90.1, 0.2);
}

TEST(SampleSetTest, CdfIsMonotone) {
  SampleSet s;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) s.add(rng.gaussian());
  const auto cdf = s.cdf(50);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(SampleSetTest, MeanStddev) {
  SampleSet s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
}

TEST(ThroughputSeriesTest, BinningAndAverage) {
  ThroughputSeries ts(Time::ms(100));
  // 1000 bytes every 10 ms for 1 s => 800 kbit/s.
  for (int i = 0; i < 100; ++i) ts.add(Time::ms(i * 10), 1000);
  EXPECT_EQ(ts.total_bytes(), 100'000u);
  EXPECT_NEAR(ts.average_mbps_over(Time::sec(1)), 0.8, 1e-9);
  const auto bins = ts.bins();
  ASSERT_EQ(bins.size(), 10u);
  for (const auto& [t, mbps] : bins) EXPECT_NEAR(mbps, 0.8, 1e-9);
}

TEST(ThroughputSeriesTest, EmptySeries) {
  ThroughputSeries ts;
  EXPECT_EQ(ts.total_bytes(), 0u);
  EXPECT_EQ(ts.average_mbps(), 0.0);
  EXPECT_TRUE(ts.bins().empty());
}

TEST(LoggingTest, DefaultSinkIsCurrentAndOff) {
  EXPECT_EQ(&current_log_sink(), &default_log_sink());
  EXPECT_EQ(log_level(), LogLevel::kOff);
}

TEST(LoggingTest, ScopedSinkCapturesAndRestores) {
  CapturingLogSink sink(LogLevel::kDebug);
  {
    ScopedLogSink scope(&sink);
    EXPECT_EQ(&current_log_sink(), &sink);
    WGTT_LOG(kInfo, "test", "hello " << 42);
    WGTT_LOG(kTrace, "test", "below threshold");  // filtered
  }
  EXPECT_EQ(&current_log_sink(), &default_log_sink());
  ASSERT_EQ(sink.entries().size(), 1u);
  EXPECT_EQ(sink.entries()[0].level, LogLevel::kInfo);
  EXPECT_EQ(sink.entries()[0].component, "test");
  EXPECT_EQ(sink.entries()[0].message, "hello 42");
}

TEST(LoggingTest, NullScopedSinkIsNoOp) {
  CapturingLogSink outer(LogLevel::kTrace);
  ScopedLogSink outer_scope(&outer);
  {
    ScopedLogSink noop(nullptr);
    EXPECT_EQ(&current_log_sink(), &outer);
  }
  EXPECT_EQ(&current_log_sink(), &outer);
}

TEST(LoggingTest, ScopesNest) {
  CapturingLogSink a(LogLevel::kTrace);
  CapturingLogSink b(LogLevel::kTrace);
  ScopedLogSink sa(&a);
  {
    ScopedLogSink sb(&b);
    WGTT_LOG(kWarn, "nest", "inner");
  }
  WGTT_LOG(kWarn, "nest", "outer");
  ASSERT_EQ(b.entries().size(), 1u);
  EXPECT_EQ(b.entries()[0].message, "inner");
  ASSERT_EQ(a.entries().size(), 1u);
  EXPECT_EQ(a.entries()[0].message, "outer");
}

TEST(LoggingTest, SetLogLevelTargetsCurrentSink) {
  CapturingLogSink sink(LogLevel::kOff);
  ScopedLogSink scope(&sink);
  set_log_level(LogLevel::kError);
  EXPECT_EQ(sink.threshold(), LogLevel::kError);
  // The process-wide default is untouched.
  EXPECT_EQ(default_log_sink().threshold(), LogLevel::kOff);
}

TEST(LoggingTest, CurrentSinkIsPerThread) {
  CapturingLogSink sink(LogLevel::kTrace);
  ScopedLogSink scope(&sink);
  LogSink* other_thread_sink = nullptr;
  std::thread t([&]() { other_thread_sink = &current_log_sink(); });
  t.join();
  // A sibling thread never sees this thread's scoped sink.
  EXPECT_EQ(other_thread_sink, &default_log_sink());
  EXPECT_EQ(&current_log_sink(), &sink);
}

TEST(JsonWriterTest, ObjectWithScalars) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "fig13").field("jobs", 4).field("ratio", 2.5);
  w.field("ok", true);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"fig13\",\"jobs\":4,\"ratio\":2.5,\"ok\":true}");
}

TEST(JsonWriterTest, NestedArraysAndObjects) {
  JsonWriter w;
  w.begin_object();
  w.key("runs").begin_array();
  w.begin_object().field("i", 0).end_object();
  w.begin_object().field("i", 1).end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"runs\":[{\"i\":0},{\"i\":1}]}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.begin_object();
  w.field("k", "a\"b\\c\nd\te");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\"}");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, NonFiniteBecomesNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.value(1.0 / 0.0);
  w.value(3.25);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,3.25]");
}

TEST(JsonWriterTest, TopLevelArray) {
  JsonWriter w;
  w.begin_array().value(1).value(2).value(3).end_array();
  EXPECT_EQ(w.str(), "[1,2,3]");
}

TEST(UnitsTest, DbRoundTrip) {
  for (double db : {-20.0, -3.0, 0.0, 3.0, 10.0, 30.0}) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9);
  }
  EXPECT_NEAR(db_to_linear(3.0), 2.0, 0.01);
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(mw_to_dbm(100.0), 20.0, 1e-9);
}

TEST(UnitsTest, SpeedConversion) {
  EXPECT_NEAR(mph_to_mps(25.0), 11.176, 0.001);
  EXPECT_NEAR(mps_to_mph(mph_to_mps(35.0)), 35.0, 1e-9);
}

TEST(UnitsTest, NoiseFloor20MHz) {
  // -174 + 10log10(20e6) + 6 = -95 dBm.
  EXPECT_NEAR(noise_floor_dbm(20e6, 6.0), -95.0, 0.05);
}

TEST(UnitsTest, Wavelength24GHz) {
  EXPECT_NEAR(wavelength_m(2.462e9), 0.1218, 0.001);
}

// ---------------------------------------------------------------------------
// JSON parser (wgtt-report's input side)
// ---------------------------------------------------------------------------

TEST(JsonParseTest, ScalarsAndContainers) {
  JsonValue v;
  ASSERT_TRUE(json_parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "hi", "n": -3e2})", v));
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.number_or("a", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(v.number_or("n", 0.0), -300.0);
  EXPECT_EQ(v.string_or("s", ""), "hi");
  const JsonValue* arr = v.find("b");
  ASSERT_TRUE(arr && arr->is_array());
  ASSERT_EQ(arr->as_array().size(), 3u);
  EXPECT_TRUE(arr->as_array()[0].as_bool());
  EXPECT_TRUE(arr->as_array()[2].is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 7.0), 7.0);
}

TEST(JsonParseTest, StringEscapes) {
  JsonValue v;
  ASSERT_TRUE(json_parse(R"(["a\"b\\c\n", "Aé", "😀"])",
                         v));
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.as_array()[0].as_string(), "a\"b\\c\n");
  EXPECT_EQ(v.as_array()[1].as_string(), "A\xc3\xa9");
  EXPECT_EQ(v.as_array()[2].as_string(), "\xf0\x9f\x98\x80");  // 😀
}

TEST(JsonParseTest, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("", v, &err));
  EXPECT_FALSE(json_parse("{", v, &err));
  EXPECT_FALSE(json_parse("[1,]", v, &err));
  EXPECT_FALSE(json_parse("{\"a\":1} trailing", v, &err));
  EXPECT_FALSE(json_parse("\"lone \\ud800 surrogate\"", v, &err));
  EXPECT_FALSE(err.empty());
  // Depth cap: 200 nested arrays exceed the 128-level limit.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(json_parse(deep, v, &err));
}

TEST(JsonParseTest, RoundTripsJsonWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "bench");
  w.field("wall_ms", 12.625);
  w.key("runs").begin_array();
  w.begin_object();
  w.field("label", "a/b");
  w.field("goodput", 5.25);
  w.end_object();
  w.end_array();
  w.end_object();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(w.str(), v, &err)) << err;
  EXPECT_EQ(v.string_or("name", ""), "bench");
  EXPECT_DOUBLE_EQ(v.number_or("wall_ms", 0.0), 12.625);
  const JsonValue* runs = v.find("runs");
  ASSERT_TRUE(runs && runs->is_array());
  EXPECT_DOUBLE_EQ(runs->as_array()[0].number_or("goodput", 0.0), 5.25);
}

// ---------------------------------------------------------------------------
// Host-time profiler
// ---------------------------------------------------------------------------

TEST(ProfilerTest, SectionsAccumulateCallsAndSelfTime) {
  prof::Profiler p;
  prof::Section& outer = p.section("outer");
  prof::Section& inner = p.section("inner");
  EXPECT_EQ(&p.section("outer"), &outer);  // find-or-create is stable
  for (int i = 0; i < 3; ++i) {
    prof::ScopedSection a(&outer);
    prof::ScopedSection b(&inner);
  }
  const prof::ProfileSnapshot snap = p.snapshot();
  ASSERT_EQ(snap.sections.size(), 2u);
  EXPECT_FALSE(snap.empty());
  // Lexicographic order: inner before outer.
  EXPECT_EQ(snap.sections[0].name, "inner");
  EXPECT_EQ(snap.sections[0].calls, 3u);
  EXPECT_EQ(snap.sections[1].name, "outer");
  EXPECT_EQ(snap.sections[1].calls, 3u);
  EXPECT_GE(snap.sections[0].self_ns, 0);
  EXPECT_GE(snap.sections[1].self_ns, 0);
  EXPECT_EQ(snap.total_ns(),
            snap.sections[0].self_ns + snap.sections[1].self_ns);
}

TEST(ProfilerTest, NestedSelfTimeIsExclusive) {
  // Exclusive attribution: the time a nested section runs must not also be
  // charged to its parent, so the section totals can never exceed the
  // enclosing wall time.
  prof::Profiler p;
  prof::Section& outer = p.section("outer");
  prof::Section& inner = p.section("inner");
  const std::int64_t start = prof::Profiler::now_ns();
  {
    prof::ScopedSection a(&outer);
    prof::ScopedSection b(&inner);
    // Busy-wait so inner accumulates measurable time.
    while (prof::Profiler::now_ns() - start < 2'000'000) {
    }
  }
  const std::int64_t wall = prof::Profiler::now_ns() - start;
  const prof::ProfileSnapshot snap = p.snapshot();
  EXPECT_LE(snap.total_ns(), wall);
  EXPECT_GE(p.section("inner").self_ns, 1'500'000);
}

TEST(ProfilerTest, NullProfilerScopedSectionIsNoOp) {
  // An unowned section (no profiler) and a null section both time nothing.
  prof::Section s;
  { prof::ScopedSection timer(&s); }
  { prof::ScopedSection timer(nullptr); }
  EXPECT_EQ(s.calls, 0u);
}

TEST(ProfilerTest, ScopedContextInstallsAndNests) {
  EXPECT_EQ(obs::Context::current().profiler, nullptr);
  prof::Profiler outer, inner;
  const obs::Context a{.profiler = &outer}, b{.profiler = &inner};
  {
    obs::ScopedContext sa(&a);
    EXPECT_EQ(obs::Context::current().profiler, &outer);
    {
      obs::ScopedContext sb(&b);
      EXPECT_EQ(obs::Context::current().profiler, &inner);
      obs::ScopedContext sc(nullptr);  // no-op, not an uninstall
      EXPECT_EQ(obs::Context::current().profiler, &inner);
    }
    EXPECT_EQ(obs::Context::current().profiler, &outer);
  }
  EXPECT_EQ(obs::Context::current().profiler, nullptr);
}

TEST(ProfilerTest, SnapshotJsonShapeParses) {
  prof::Profiler p;
  {
    prof::ScopedSection t(&p.section("sim.dispatch"));
  }
  const std::string json = p.snapshot().to_json();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(json, v, &err)) << err;
  const JsonValue* sections = v.find("sections");
  ASSERT_TRUE(sections && sections->is_object());
  const JsonValue* d = sections->find("sim.dispatch");
  ASSERT_TRUE(d != nullptr);
  EXPECT_DOUBLE_EQ(d->number_or("calls", 0.0), 1.0);
  EXPECT_TRUE(v.find("total_ns") != nullptr);
}

}  // namespace
}  // namespace wgtt
