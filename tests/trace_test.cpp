// Golden-trace regression suite (ctest label: trace).
//
// Locks down the deterministic observability pipeline end to end: a
// fixed-seed drive must emit a Chrome trace-event JSON, decision log,
// telemetry CSV, packet log, causal stream and health stream whose SHA-256
// hashes match the ones pinned below (plus the per-packet streams of the
// same drive under control-plane chaos, the streams of three drives down
// the start-first and failover switch paths, and those of the drive with
// four parked clients), and the very same trace bytes must come out of a
// repeat run and of a 4-worker parallel sweep.  If an
// intentional change to the simulation or to the instrumentation shifts a
// stream, rerun this test and update its pin to the "actual" value printed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/handoff_policy.h"
#include "obs/context.h"
#include "scenario/experiment.h"
#include "scenario/report.h"
#include "scenario/sweep.h"
#include "sim/fault_plan.h"
#include "util/json.h"
#include "util/jsonl.h"
#include "util/profiler.h"
#include "util/sha256.h"
#include "util/trace.h"

namespace wgtt {
namespace {

// SHA-256 of the trace JSON emitted by golden_config() below.  Pinned from a
// run of this test; any drift in event content, ordering, or formatting for
// a fixed seed is a determinism regression.
constexpr char kGoldenTraceSha256[] =
    "83faa7a2e27a813a4981e548320d062dbc09f3d66a4fc0e08646920f4fea67ba";

/// The pinned scenario: a short fixed-seed WGTT drive through the testbed.
scenario::DriveScenarioConfig golden_config(bool trace = false) {
  scenario::DriveScenarioConfig cfg;
  cfg.system = scenario::SystemType::kWgtt;
  cfg.traffic = scenario::TrafficType::kTcpDownlink;
  cfg.speed_mph = 25.0;
  cfg.duration = Time::sec(2);
  cfg.seed = 7;
  cfg.testbed.enable_trace = trace;
  return cfg;
}

std::string run_golden_drive() {
  return scenario::run_drive(golden_config(/*trace=*/true)).trace_json;
}

struct TsCase {
  Time t;
  const char* want;
};

const TsCase kTsCases[] = {
    {Time::zero(), "0.000"},
    {Time::ns(1), "0.001"},
    {Time::us(1), "1.000"},
    {Time::ns(1'234'567), "1234.567"},
    {Time::sec(3), "3000000.000"},
};

// Multi-hour simulated timestamps sit far past double's 2^53 ns mantissa
// range; the integer formatter must not lose the sub-microsecond digits.
const TsCase kSoakTsCases[] = {
    {Time::sec(3600), "3600000000.000"},
    {Time::sec(8 * 3600), "28800000000.000"},
    {Time::sec(24 * 3600) + Time::ns(1), "86400000000.001"},
    {Time::sec(7 * 24 * 3600) + Time::ns(999), "604800000000.999"},
    // ~106 simulated days, near the int64 microsecond scale used by reports.
    {Time::ns(9'216'000'000'000'000), "9216000000000.000"},
};

TEST(TracerTest, FormatTsIsPureIntegerMath) {
  for (const TsCase& c : kTsCases) {
    EXPECT_EQ(trace::Tracer::format_ts(c.t), c.want);
  }
}

TEST(TracerTest, FormatTsStaysExactAtSoakHorizons) {
  for (const TsCase& c : kSoakTsCases) {
    EXPECT_EQ(trace::Tracer::format_ts(c.t), c.want);
  }
}

// The bytes `write` puts through one obs::Line, after a fresh document's
// schema header.
template <class Write>
std::string line_bytes(Write write) {
  obs::Document doc("wgtt.test", 1);
  const std::size_t header = doc.size();
  {
    obs::Line line(doc);
    write(line);
  }
  return doc.str().substr(header);
}

TEST(JsonlLineTest, IntegersMatchToString) {
  for (const std::int64_t v : {std::int64_t{0}, std::int64_t{1},
                               std::int64_t{-1}, INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(line_bytes([v](obs::Line& l) { l.num(v); }), std::to_string(v));
  }
  EXPECT_EQ(line_bytes([](obs::Line& l) { l.num(UINT64_MAX); }),
            std::to_string(UINT64_MAX));
}

TEST(JsonlLineTest, TimestampsMatchTheTracerFormat) {
  for (const TsCase& c : kTsCases) {
    EXPECT_EQ(line_bytes([&c](obs::Line& l) { l.ts(c.t); }), c.want);
  }
  for (const TsCase& c : kSoakTsCases) {
    EXPECT_EQ(line_bytes([&c](obs::Line& l) { l.ts(c.t); }), c.want);
  }
}

TEST(JsonlDocumentTest, HeaderOnlyDocumentIsItsSchemaLine) {
  const obs::Document doc("wgtt.packets", 1);
  const std::string header =
      "{\"kind\":\"schema\",\"stream\":\"wgtt.packets\",\"version\":1}\n";
  EXPECT_EQ(doc.str(), header);
  EXPECT_EQ(doc.size(), header.size());
}

TEST(JsonlDocumentTest, JoinsAcrossBlockBoundariesToTheContiguousBytes) {
  constexpr std::size_t kBlock = obs::Document::kBlockBytes;
  obs::Document doc("wgtt.test", 1);
  std::string want = doc.str();
  // Every element kind, each started at every distance from the end of a
  // block up to the longest rendering, so each one straddles a boundary at
  // every split point.
  const std::string longer(kBlock + 100, 'z');  // outgrows any block's room
  const std::vector<std::pair<std::string, void (*)(obs::Line&)>> kinds = {
      {"-9223372036854775808", [](obs::Line& l) { l.num(INT64_MIN); }},
      {"18446744073709551615", [](obs::Line& l) { l.num(UINT64_MAX); }},
      {"604800000000.999",
       [](obs::Line& l) {
         l.ts(Time::sec(7 * 24 * 3600) + Time::ns(999));
       }},
      {"{\"ev\":", [](obs::Line& l) { l.lit("{\"ev\":"); }},
      {"ap_enqueue", [](obs::Line& l) { l.str("ap_enqueue"); }},
      {"\n", [](obs::Line& l) { l.ch('\n'); }},
      {",\"ap\":3,\"index\":-12",
       [](obs::Line& l) { l.fields({{"ap", 3}, {"index", -12}}); }},
  };
  for (const auto& [bytes, write] : kinds) {
    for (std::size_t gap = 0; gap <= 24; ++gap) {
      // Pad the current block so exactly `gap` bytes of it remain.
      const std::size_t room = (kBlock - doc.size() % kBlock) % kBlock;
      const std::string pad((room + kBlock - gap) % kBlock, 'x');
      {
        obs::Line line(doc);
        line.str(pad);
        write(line);
      }
      want += pad;
      want += bytes;
      ASSERT_EQ(doc.size(), want.size()) << bytes << " at gap " << gap;
    }
  }
  {
    obs::Line line(doc);
    line.str(longer).lit("}\n");
  }
  want += longer;
  want += "}\n";
  EXPECT_EQ(doc.size(), want.size());
  EXPECT_GE(doc.size() / kBlock, 3u);
  EXPECT_EQ(doc.str(), want);
}

TEST(TracerTest, EmitsWellFormedChromeTraceDocument) {
  trace::Tracer t;
  t.instant("core", "switch_start", Time::ms(1), 0, {{"client", 100.0}});
  t.complete("mac", "ampdu_dl", Time::ms(2), Time::us(500), 5,
             {{"mpdus", 16.0}});
  t.counter("core", "backlog", Time::ms(3), 1700.0, 1);
  EXPECT_EQ(t.events(), 3u);
  const std::string& json = t.finish();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"name\":\"switch_start\",\"cat\":\"core\",\"ph\":\"i\","
                      "\"ts\":1000.000,\"pid\":1,\"tid\":0,\"s\":\"t\","
                      "\"args\":{\"client\":100}"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":2000.000,\"pid\":1,\"tid\":5,"
                      "\"dur\":500.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // finish() is idempotent.
  EXPECT_EQ(&t.finish(), &json);
}

TEST(TracerTest, ScopedContextInstallsAndNests) {
  EXPECT_EQ(obs::Context::current().tracer, nullptr);
  trace::Tracer outer, inner;
  const obs::Context a{.tracer = &outer}, b{.tracer = &inner};
  {
    obs::ScopedContext sa(&a);
    EXPECT_EQ(obs::Context::current().tracer, &outer);
    {
      obs::ScopedContext sb(&b);
      EXPECT_EQ(obs::Context::current().tracer, &inner);
      obs::ScopedContext sc(nullptr);  // no-op, not an uninstall
      EXPECT_EQ(obs::Context::current().tracer, &inner);
    }
    EXPECT_EQ(obs::Context::current().tracer, &outer);
  }
  EXPECT_EQ(obs::Context::current().tracer, nullptr);
}

TEST(Sha256Test, MatchesKnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                       "nopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // Tail spanning two blocks (length 56..63 forces the 2-block padding path).
  EXPECT_EQ(sha256_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

// ---------------------------------------------------------------------------
// Every output stream pinned by hash
// ---------------------------------------------------------------------------

/// One pinned stream: its name and the SHA-256 of its bytes.
struct StreamPin {
  const char* name;
  const char* sha256;
};

void PrintTo(const StreamPin& pin, std::ostream* os) { *os << pin.name; }

TEST(GoldenTraceTest, FixedSeedDriveMatchesPinnedHash) {
  const std::string trace = run_golden_drive();
  ASSERT_FALSE(trace.empty());
  // Structural sanity: a loadable Chrome trace document with real events.
  EXPECT_EQ(trace.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(trace.substr(trace.size() - 2), "]}");
  EXPECT_NE(trace.find("\"cat\":\"mac\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"core\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"switch\""), std::string::npos);

  // Keep a copy for CI artifact upload when requested.
  if (const char* keep = std::getenv("WGTT_TRACE_KEEP")) {
    write_text_file(keep, trace);
  }

  EXPECT_EQ(sha256_hex(trace), kGoldenTraceSha256)
      << "trace drifted for a fixed seed; if intentional, repin the hash";
}

// The golden drive's other five streams (the Chrome trace is pinned above,
// with causal tracing off: flow events would change it), and the per-packet
// streams of the golden drive under a seeded control-chaos fault plan.  Then
// three drives down the switch paths the golden drive never takes: the
// start-first styles (make_before_break, bicast) and a liveness failover.
// Each pins its decision, packet and causal streams and its Chrome trace with
// causal tracing on, so the switch flow arrows are pinned too.  Last, the
// golden drive with four parked clients: a static channel repeats every CSI
// sample, so its telemetry's per-AP median ESNRs pin the channel's and the
// controller's memoized values directly.
constexpr StreamPin kStreamPins[] = {
    {"decisions",
     "737fa633fa5619fbc8b1187f143aa0c8c61333f722db34539c7c9510261ab3a6"},
    {"telemetry",
     "ac1ecb531770dc8c3021449ea67113d66e0b4e005bce549b4a9aac5796feac1b"},
    {"packets",
     "c7859064a950b18cd3d696fcae3e4544a7a55c289ef5b089fa596c8dd289de5f"},
    {"causal",
     "7379e694e203514167ff25883f153c993c683ee9fb060b424e3f588178115505"},
    {"health",
     "165b01e7a425cdc6dec9ffcda9bd930022da874a78fb021d94017880feb3b401"},
    {"chaos_packets",
     "9398e716b0cb92f917878190f067e12a33448a63304ccacea1dd7be808701435"},
    {"chaos_causal",
     "e10634b2768f2b6a44370d1e48fbbc75a1bdbda7ce9a07156135ca16b2720857"},
    {"chaos_health",
     "74d78ced6a08a4b0f7e3393037820947d5040a85b7c4acc77c3d92f35f7c5312"},
    {"mbb_decisions",
     "c913948da930d81fc1572152148a36655a69affb03db4eaffbc724b55b12afd9"},
    {"mbb_packets",
     "b9fbd930df08d7427ef2204269989e7868de2f526ea9428b4eca883af1129191"},
    {"mbb_causal",
     "da5a690d93cf6dd975ff6a67f8be7840713d0b61eeb20b52ce844b544cf286fc"},
    {"mbb_trace",
     "83e77adf2845a42ca50a9b57d32f3c565fc7469335a14911ac86d128c8b32e78"},
    {"bicast_decisions",
     "57e915054007e367134e356eb922aa163b5269ef09d7fa0ec011d38bb8235547"},
    {"bicast_packets",
     "e2b20274a009bc3ddb5af8b9967b729d33594b70638728adf030b09646ef08e1"},
    {"bicast_causal",
     "2384f4f12affbb5d30dbd2c352c441ae363fcbe09d01080ca8de0cc98b8446e6"},
    {"bicast_trace",
     "3a220036d71003c5c4f70a7cb34f1d433fd211b18bce7cfe6a2d5be0c65fca77"},
    {"failover_decisions",
     "8256521ae42d55e479396be33c3474e5d4d10653d9fa787d94bee31381e02140"},
    {"failover_packets",
     "4c94fdb0415659a5b2711f8e21053d316f3dfc0a1825a8fda8776c83f1d91dd8"},
    {"failover_causal",
     "b7a221a5de9344327ee9e37dcf842b01635a9317af439877402c675c2bdb3f41"},
    {"failover_trace",
     "6535301fb7bb54c1582131ecc680a60b90211147553548d98918945d0a489be3"},
    {"parked_decisions",
     "534d674ac24214b302a375bdcd1b3cd0e3be3367730d13372ee64fac2734b911"},
    {"parked_telemetry",
     "da75b1d2bf79116629c548b6625e27f625947f587e5dc4d4dd5767b67a3ba369"},
    {"parked_packets",
     "dcdadca8fd12ce0f2874166ebba028189f858cd13f7df3428eb54755b308460e"},
};

/// Golden config with every JSONL/CSV stream on.
scenario::DriveScenarioConfig all_streams_config() {
  scenario::DriveScenarioConfig cfg = golden_config();
  cfg.testbed.enable_decision_log = true;
  cfg.testbed.enable_telemetry = true;
  cfg.testbed.enable_packet_log = true;
  cfg.testbed.enable_causal = true;
  cfg.testbed.enable_health = true;
  return cfg;
}

/// Whether `causal` holds a `site` annotation whose line contains `field`.
bool has_annotation(std::string_view causal, std::string_view site,
                    std::string_view field = {}) {
  const std::string key = "\"site\":\"" + std::string(site) + "\"";
  for (std::size_t pos = causal.find(key); pos != std::string_view::npos;
       pos = causal.find(key, pos + 1)) {
    const std::size_t begin = causal.rfind('\n', pos) + 1;
    const std::string_view line =
        causal.substr(begin, causal.find('\n', pos) - begin);
    if (line.find(field) != std::string_view::npos) return true;
  }
  return false;
}

/// Whether some in-range (client, AP) median ESNR column holds one value
/// across two consecutive telemetry samples: the drive's channel is static.
bool static_esnr_column(const scenario::TelemetryTable& t) {
  for (std::size_t c = 0; c < t.columns.size(); ++c) {
    if (t.columns[c].name.find(".esnr_ap") == std::string::npos) continue;
    for (std::size_t i = 1; i < t.row_count(); ++i) {
      // -30 dB is the "no in-window readings" sentinel.
      if (t.rows[i][c] > -30.0 && t.rows[i][c] == t.rows[i - 1][c]) {
        return true;
      }
    }
  }
  return false;
}

/// A switch-path drive: the golden drive under `policy` and `faults`, with
/// the decision, packet and causal streams and the Chrome trace on.
scenario::DriveScenarioConfig switch_path_config(const std::string& policy,
                                                 const std::string& faults) {
  scenario::DriveScenarioConfig cfg = golden_config(/*trace=*/true);
  cfg.testbed.enable_decision_log = true;
  cfg.testbed.enable_packet_log = true;
  cfg.testbed.enable_causal = true;
  EXPECT_TRUE(core::parse_policy_spec(policy, cfg.wgtt.controller.policy));
  EXPECT_TRUE(sim::FaultPlan::parse(faults, cfg.testbed.faults));
  return cfg;
}

/// The bytes of one pinned stream, named "<drive>_<stream>" (a bare stream
/// name is the golden drive's).  Runs only the drive that stream comes from:
/// ctest runs each pin in its own process, in parallel.
std::string pinned_stream(std::string_view name) {
  const std::size_t sep = name.find('_');
  const std::string_view drive =
      sep == std::string_view::npos ? "" : name.substr(0, sep);
  if (!drive.empty()) name.remove_prefix(sep + 1);
  scenario::DriveScenarioConfig cfg = all_streams_config();
  if (drive == "chaos") {
    cfg.testbed.enable_decision_log = false;
    cfg.testbed.enable_telemetry = false;
    cfg.testbed.faults =
        sim::FaultPlan::control_chaos(1.5, cfg.duration, 8, cfg.seed);
    EXPECT_FALSE(cfg.testbed.faults.empty());
  } else if (drive == "mbb") {
    cfg = switch_path_config("make_before_break", "");
  } else if (drive == "bicast") {
    cfg = switch_path_config("bicast:hold_ms=50", "");
  } else if (drive == "failover") {
    cfg = switch_path_config("median_esnr",
                             "ap_crash:ap=2,at=1800ms,for=500ms;"
                             "ap_crash:ap=3,at=2500ms,for=500ms");
    cfg.duration = Time::ms(3500);
  } else if (drive == "parked") {
    cfg.speed_mph = 0.0;
    cfg.num_clients = 4;
  } else if (!drive.empty()) {
    ADD_FAILURE() << "unknown drive " << drive;
  }
  const scenario::DriveResult r = scenario::run_drive(cfg);

  // Each switch-path drive must still take its path, or its pins would
  // silently stop covering it.
  const std::string_view causal = r.causal_jsonl;
  if (drive == "mbb") {
    EXPECT_TRUE(has_annotation(causal, "ctrl.start_tx"));
    EXPECT_TRUE(has_annotation(causal, "ctrl.quench_tx"));
    EXPECT_FALSE(has_annotation(causal, "ctrl.stop_tx"));
  } else if (drive == "bicast") {
    EXPECT_GT(r.downlink_duplicates_removed, 0u);
  } else if (drive == "failover") {
    EXPECT_TRUE(has_annotation(causal, "ctrl.start_tx", "\"failover\":1"));
  } else if (drive == "parked") {
    EXPECT_TRUE(static_esnr_column(r.telemetry));
  }

  if (name == "decisions") return r.decision_jsonl;
  if (name == "telemetry") return r.telemetry.to_csv();
  if (name == "packets") return r.packet_jsonl;
  if (name == "causal") return r.causal_jsonl;
  if (name == "health") return r.health_jsonl;
  if (name == "trace") return r.trace_json;
  ADD_FAILURE() << "unknown stream " << name;
  return {};
}

class GoldenStreamTest : public ::testing::TestWithParam<StreamPin> {};

TEST_P(GoldenStreamTest, MatchesPinnedHash) {
  const std::string bytes = pinned_stream(GetParam().name);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(sha256_hex(bytes), GetParam().sha256)
      << GetParam().name
      << " stream drifted for a fixed seed; if intentional, repin the hash";
}

INSTANTIATE_TEST_SUITE_P(Streams, GoldenStreamTest,
                         ::testing::ValuesIn(kStreamPins),
                         [](const ::testing::TestParamInfo<StreamPin>& info) {
                           return std::string(info.param.name);
                         });

TEST(GoldenTraceTest, ByteIdenticalAcrossRunsAndParallelSweep) {
  const std::string first = run_golden_drive();
  const std::string second = run_golden_drive();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "repeat run produced a different trace";

  // The same config as run i of a 4-worker sweep: the trace must not care
  // which thread ran the simulation.  The other runs vary seed/system so
  // the workers genuinely interleave different sims.
  std::vector<scenario::DriveScenarioConfig> configs;
  configs.push_back(golden_config(/*trace=*/true));
  for (std::uint64_t seed : {8, 9, 10}) {
    scenario::DriveScenarioConfig cfg = golden_config();
    cfg.seed = seed;
    if (seed == 9) cfg.system = scenario::SystemType::kEnhanced80211r;
    configs.push_back(cfg);
  }
  scenario::SweepRunner runner(scenario::SweepOptions{.jobs = 4});
  const scenario::SweepOutcome outcome = runner.run(configs);
  EXPECT_EQ(first, outcome.runs[0].result.trace_json)
      << "parallel sweep produced a different trace";
}

// ---------------------------------------------------------------------------
// Decision audit log + telemetry: same determinism contract as the trace
// ---------------------------------------------------------------------------

/// Golden config plus the observability layer this suite locks down.
scenario::DriveScenarioConfig observed_config() {
  scenario::DriveScenarioConfig cfg = golden_config();
  cfg.testbed.enable_decision_log = true;
  cfg.testbed.enable_telemetry = true;
  cfg.testbed.telemetry_period = Time::ms(100);
  return cfg;
}

TEST(DecisionLogTest, ByteIdenticalAcrossRunsAndParallelSweep) {
  const auto cfg = observed_config();
  const scenario::DriveResult first = scenario::run_drive(cfg);
  const scenario::DriveResult second = scenario::run_drive(cfg);
  ASSERT_GT(first.decision_records, 0u);
  ASSERT_FALSE(first.decision_jsonl.empty());
  EXPECT_EQ(first.decision_jsonl, second.decision_jsonl)
      << "repeat run produced a different decision log";
  EXPECT_EQ(first.decision_records, second.decision_records);

  // Same config as run 0 of an 8-worker sweep; the other seven runs vary
  // seed/system so the workers genuinely interleave different sims.
  std::vector<scenario::DriveScenarioConfig> configs{cfg};
  for (std::uint64_t seed = 8; seed < 15; ++seed) {
    scenario::DriveScenarioConfig other = observed_config();
    other.seed = seed;
    if (seed % 3 == 0) other.system = scenario::SystemType::kEnhanced80211r;
    configs.push_back(other);
  }
  scenario::SweepRunner runner(scenario::SweepOptions{.jobs = 8});
  const scenario::SweepOutcome outcome = runner.run(configs);
  EXPECT_EQ(first.decision_jsonl, outcome.runs[0].result.decision_jsonl)
      << "8-worker sweep produced a different decision log";
  EXPECT_EQ(first.telemetry.to_csv(), outcome.runs[0].result.telemetry.to_csv())
      << "8-worker sweep produced a different telemetry CSV";
}

TEST(DecisionLogTest, RecordsEverySwitchCountedInMetrics) {
  const scenario::DriveResult r = scenario::run_drive(observed_config());
  // One JSONL line per decision evaluation, plus the schema header.
  std::size_t lines = 0;
  for (char ch : r.decision_jsonl) lines += ch == '\n';
  EXPECT_EQ(lines, r.decision_records + 1);
  EXPECT_EQ(r.decision_jsonl.rfind(
                "{\"kind\":\"schema\",\"stream\":\"wgtt.decisions\"", 0),
            0u);
  // "switch" outcomes in the log match the counted switch records...
  std::size_t switch_lines = 0;
  for (std::size_t pos = r.decision_jsonl.find("\"outcome\":\"switch\"");
       pos != std::string::npos;
       pos = r.decision_jsonl.find("\"outcome\":\"switch\"", pos + 1)) {
    ++switch_lines;
  }
  EXPECT_EQ(switch_lines, r.decision_switch_records);
  // ...and every switch the metrics block counted has an audit entry
  // (decisions are recorded at initiation, so completed <= logged).
  std::uint64_t completed = 0;
  for (const auto& [name, value] : r.metrics.counters) {
    if (name == "core.switches_completed") completed = value;
  }
  ASSERT_GT(completed, 0u);
  EXPECT_GE(r.decision_switch_records, completed);
  EXPECT_EQ(r.switches.size(), static_cast<std::size_t>(completed));
}

TEST(TelemetryTest, CsvShapeAndDeterminism) {
  const auto cfg = observed_config();
  const scenario::DriveResult a = scenario::run_drive(cfg);
  const scenario::DriveResult b = scenario::run_drive(cfg);
  const std::string csv = a.telemetry.to_csv();
  ASSERT_FALSE(csv.empty());
  EXPECT_EQ(csv, b.telemetry.to_csv())
      << "repeat run produced a different telemetry CSV";

  // Header names the standard drive columns.
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header.rfind("t_us,", 0), 0u);
  EXPECT_NE(header.find(".ap"), std::string::npos);
  EXPECT_NE(header.find(".goodput_mbps"), std::string::npos);
  EXPECT_NE(header.find(".cwnd"), std::string::npos);  // golden run is TCP
  EXPECT_NE(header.find(".backlog"), std::string::npos);

  // Rectangular: every line has the header's field count.
  const std::size_t fields = 1 + static_cast<std::size_t>(std::count(
                                     header.begin(), header.end(), ','));
  std::size_t rows = 0;
  std::size_t start = header.size() + 1;
  while (start < csv.size()) {
    std::size_t end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    const std::string line = csv.substr(start, end - start);
    EXPECT_EQ(1 + static_cast<std::size_t>(
                      std::count(line.begin(), line.end(), ',')),
              fields);
    ++rows;
    start = end + 1;
  }
  EXPECT_EQ(rows, a.telemetry.row_count());
  ASSERT_GT(rows, 10u);  // 2 s drive, 100 ms period, started at app_start
}

TEST(TelemetryTest, CsvTimestampsStayExactAtSoakHorizons) {
  // An hourly sampler ticking for eight simulated hours: every t_us in the
  // CSV must be the exact integer-formatted microsecond count — a double
  // round-trip would corrupt the low digits past a few simulated hours.
  sim::Scheduler sched;
  scenario::TelemetrySampler sampler(sched, Time::sec(3600));
  double ticks = 0.0;
  sampler.add_column("unit.ticks", 0, [&ticks]() { return ticks++; });
  sampler.start();
  sched.run_until(Time::sec(8 * 3600) + Time::ms(1));

  const std::string csv = sampler.to_csv();
  EXPECT_EQ(sampler.table().row_count(), 9u);  // t=0h..8h inclusive
  EXPECT_NE(csv.find("\n3600000000.000,"), std::string::npos);
  EXPECT_NE(csv.find("\n28800000000.000,"), std::string::npos);
  ASSERT_EQ(sampler.table().times.size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(sampler.table().times[i], Time::sec(3600) * static_cast<int>(i));
  }
}

TEST(ProfilerTest, RunProfileIsNonEmptyAndBoundedByWallTime) {
  const std::int64_t start = prof::Profiler::now_ns();
  const scenario::DriveResult r = scenario::run_drive(golden_config());
  const std::int64_t wall_ns = prof::Profiler::now_ns() - start;
  ASSERT_FALSE(r.profile.empty());
  // Exclusive self-time: the per-section totals can never sum past the
  // run's wall clock.
  EXPECT_LE(r.profile.total_ns(), wall_ns);
  bool saw_dispatch = false;
  for (const auto& s : r.profile.sections) {
    EXPECT_GT(s.calls, 0u);
    EXPECT_GE(s.self_ns, 0);
    if (s.name == "sim.dispatch") saw_dispatch = true;
  }
  EXPECT_TRUE(saw_dispatch);

  // The profile lands in the bench-report JSON and parses back.
  scenario::SweepReport report;
  report.bench_id = "unit";
  report.runs.push_back(
      scenario::make_run_report("run", golden_config(), r, 1.0));
  JsonValue parsed;
  std::string err;
  ASSERT_TRUE(json_parse(report.to_json(), parsed, &err)) << err;
  const JsonValue* run = &parsed.find("runs")->as_array()[0];
  const JsonValue* profile = run->find("profile");
  ASSERT_TRUE(profile != nullptr);
  EXPECT_TRUE(profile->find("sections") != nullptr);
}

TEST(GoldenTraceTest, MetricsSnapshotIdenticalAcrossRunsAndJson) {
  // Metrics ride the same determinism guarantee as the trace: snapshot JSON
  // (ordered maps, %.10g doubles) must be byte-stable for a fixed seed.
  const auto cfg = golden_config();
  const std::string a = scenario::run_drive(cfg).metrics.to_json();
  const std::string b = scenario::run_drive(cfg).metrics.to_json();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The counters the bench reports surface are present and non-trivial.
  EXPECT_NE(a.find("\"sim.events_dispatched\":"), std::string::npos);
  EXPECT_NE(a.find("\"mac.airtime_ns_total\":"), std::string::npos);
  EXPECT_NE(a.find("\"core.switches_completed\":"), std::string::npos);
}

}  // namespace
}  // namespace wgtt
