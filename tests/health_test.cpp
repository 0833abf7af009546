// Runtime health engine suite (ctest label: health).
//
// Covers the engine's contract at both levels.  Unit: the streaming window
// rollups (schema header, fixed-memory ring, gauge sampling), the invariant
// watchdogs (conservation, in-flight ceiling, bounded gauges), and the
// finalize semantics (idempotent, never re-samples gauges — overlay gauge
// closures die before the Testbed does).  Integration: a fault-free drive
// with health enabled is violation-free, the observer leaves every other
// deterministic output byte-identical, and a seeded packet leak — a drop
// site whose ledger mirror is withheld — is provably caught.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/context.h"
#include "scenario/experiment.h"
#include "util/health.h"
#include "util/metrics.h"

namespace wgtt {
namespace {

obs::HealthConfig unit_config() {
  obs::HealthConfig cfg;
  cfg.window = Time::ms(100);
  cfg.ring_capacity = 4;
  return cfg;
}

TEST(HealthEngineTest, SchemaHeaderLeadsTheStream) {
  obs::HealthEngine h(unit_config());
  EXPECT_EQ(h.jsonl(),
            "{\"kind\":\"schema\",\"stream\":\"wgtt.health\",\"version\":1}\n");
}

TEST(HealthEngineTest, LedgerArithmeticAndWindowShape) {
  obs::HealthEngine h(unit_config());
  int probes = 0;
  h.add_gauge("unit.depth", [&probes]() { return 7.0 + probes++; });
  h.packet_sent(3);
  h.packet_copies(5);
  h.packet_delivered(2);
  h.packet_retired(1);
  h.packet_dropped(1);
  EXPECT_EQ(h.in_flight(), 4);

  h.on_window_close(Time::ms(100));
  ASSERT_EQ(h.windows_closed(), 1u);
  const auto windows = h.windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].sent, 3u);
  EXPECT_EQ(windows[0].copies, 5u);
  EXPECT_EQ(windows[0].delivered, 2u);
  EXPECT_EQ(windows[0].retired, 1u);
  EXPECT_EQ(windows[0].dropped, 1u);
  EXPECT_EQ(windows[0].in_flight, 4);
  ASSERT_EQ(windows[0].gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(windows[0].gauges[0], 7.0);
  EXPECT_EQ(probes, 1);  // sampled exactly once, at window close
  EXPECT_NE(h.jsonl().find("\"kind\":\"window\",\"t_us\":100000.000"),
            std::string::npos);
  EXPECT_NE(h.jsonl().find("\"unit.depth\":7.000"), std::string::npos);
  EXPECT_TRUE(h.violations().empty());
}

TEST(HealthEngineTest, RingKeepsOnlyTheNewestWindowsOldestFirst) {
  obs::HealthEngine h(unit_config());  // ring_capacity = 4
  for (int i = 1; i <= 10; ++i) {
    h.packet_sent();  // make each window distinct
    h.on_window_close(Time::ms(100 * i));
  }
  EXPECT_EQ(h.windows_closed(), 10u);
  const auto windows = h.windows();
  ASSERT_EQ(windows.size(), 4u);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].t, Time::ms(100 * (7 + static_cast<int>(i))));
    EXPECT_EQ(windows[i].sent, 7 + i);  // cumulative ledger at close
  }
}

TEST(HealthEngineTest, ConservationCatchesDoubleTermination) {
  obs::HealthEngine h(unit_config());
  h.packet_sent(1);
  h.packet_delivered(1);
  h.packet_dropped(1);  // the same instance terminated twice
  h.on_window_close(Time::ms(100));
  ASSERT_EQ(h.violations().size(), 1u);
  EXPECT_EQ(h.violations()[0].watchdog, "packet_conservation");
  EXPECT_EQ(h.violations()[0].severity, "error");
  EXPECT_NE(h.jsonl().find("\"kind\":\"violation\""), std::string::npos);
}

TEST(HealthEngineTest, SeededLeakTripsTheInFlightCeiling) {
  // The acceptance scenario: a component egresses packets whose drop site
  // "forgot" its ledger mirror.  With the mirror withheld the watchdog must
  // fire; with it present the identical traffic is green.
  obs::HealthConfig cfg = unit_config();
  cfg.max_in_flight = 8;

  obs::HealthEngine leaky(cfg);
  for (int i = 0; i < 20; ++i) leaky.packet_sent();
  for (int i = 0; i < 12; ++i) leaky.packet_delivered();
  // 8 instances hit a drop site with no packet_dropped() mirror... plus the
  // 0 still legitimately in flight: the ledger reads 8, one more send leaks
  // past the ceiling.
  leaky.packet_sent();
  leaky.on_window_close(Time::ms(100));
  ASSERT_FALSE(leaky.violations().empty());
  EXPECT_EQ(leaky.violations()[0].watchdog, "in_flight_ceiling");
  EXPECT_EQ(leaky.violations()[0].severity, "error");

  obs::HealthEngine sound(cfg);
  for (int i = 0; i < 20; ++i) sound.packet_sent();
  for (int i = 0; i < 12; ++i) sound.packet_delivered();
  sound.packet_dropped(8);  // the mirror is in place
  sound.packet_sent();
  sound.packet_delivered();
  sound.on_window_close(Time::ms(100));
  EXPECT_TRUE(sound.violations().empty());
}

TEST(HealthEngineTest, BoundedGaugeWarnsAboveItsCeiling) {
  obs::HealthEngine h(unit_config());
  double depth = 3.0;
  h.add_gauge("unit.queue", [&depth]() { return depth; }, /*ceiling=*/5.0);
  h.on_window_close(Time::ms(100));
  EXPECT_TRUE(h.violations().empty());
  depth = 6.0;
  h.on_window_close(Time::ms(200));
  ASSERT_EQ(h.violations().size(), 1u);
  EXPECT_EQ(h.violations()[0].watchdog, "bounded_gauge");
  EXPECT_EQ(h.violations()[0].severity, "warn");
}

TEST(HealthEngineTest, FinalizeIsIdempotentAndNeverSamplesGauges) {
  obs::HealthEngine h(unit_config());
  int probes = 0;
  h.add_gauge("unit.depth", [&probes]() { return static_cast<double>(probes++); });
  h.on_window_close(Time::ms(100));
  EXPECT_EQ(probes, 1);
  // Overlay-owned gauge closures dangle by Testbed-destructor time, so
  // finalize must never probe them.
  h.finalize(Time::ms(150));
  h.finalize(Time::ms(150));
  EXPECT_EQ(probes, 1);
  const std::string jsonl = h.jsonl();
  std::size_t summaries = 0;
  for (std::size_t pos = jsonl.find("\"kind\":\"summary\"");
       pos != std::string::npos;
       pos = jsonl.find("\"kind\":\"summary\"", pos + 1)) {
    ++summaries;
  }
  EXPECT_EQ(summaries, 1u);
}

TEST(HealthEngineTest, ScopedInstallNestsAndNullKeepsCurrent) {
  obs::HealthEngine* before = obs::Context::current().health;
  obs::HealthEngine a(unit_config()), b(unit_config());
  const obs::Context ca{.health = &a}, cb{.health = &b};
  {
    obs::ScopedContext sa(&ca);
    EXPECT_EQ(obs::Context::current().health, &a);
    {
      obs::ScopedContext keep(nullptr);
      EXPECT_EQ(obs::Context::current().health, &a);
      obs::ScopedContext sb(&cb);
      EXPECT_EQ(obs::Context::current().health, &b);
    }
    EXPECT_EQ(obs::Context::current().health, &a);
  }
  EXPECT_EQ(obs::Context::current().health, before);
}

// ---------------------------------------------------------------------------
// Integration: the health engine inside a real drive
// ---------------------------------------------------------------------------

scenario::DriveScenarioConfig healthy_config() {
  scenario::DriveScenarioConfig cfg;
  cfg.system = scenario::SystemType::kWgtt;
  cfg.traffic = scenario::TrafficType::kTcpDownlink;
  cfg.speed_mph = 25.0;
  cfg.duration = Time::sec(2);
  cfg.seed = 7;
  cfg.testbed.enable_health = true;
  cfg.testbed.health_window = Time::ms(200);
  return cfg;
}

TEST(HealthDriveTest, FaultFreeDriveIsViolationFree) {
  const scenario::DriveResult r = scenario::run_drive(healthy_config());
  EXPECT_GT(r.health_windows, 5u);
  EXPECT_GT(r.health_checks, 0u);
  EXPECT_EQ(r.health_violations, 0u) << r.health_jsonl;
  EXPECT_EQ(r.health_errors, 0u);
  // Whatever is still in flight at teardown is real queued residue (cyclic
  // rings, reorder buffers); the ledger must never go negative.
  EXPECT_GE(r.health_in_flight, 0);
  EXPECT_EQ(r.health_jsonl.rfind(
                "{\"kind\":\"schema\",\"stream\":\"wgtt.health\"", 0),
            0u);
}

TEST(HealthDriveTest, BaselineDriveIsViolationFree) {
  scenario::DriveScenarioConfig cfg = healthy_config();
  cfg.system = scenario::SystemType::kEnhanced80211r;
  const scenario::DriveResult r = scenario::run_drive(cfg);
  EXPECT_GT(r.health_windows, 5u);
  EXPECT_EQ(r.health_violations, 0u) << r.health_jsonl;
  EXPECT_GE(r.health_in_flight, 0);
}

TEST(HealthDriveTest, ObserverLeavesOtherOutputsByteIdentical) {
  scenario::DriveScenarioConfig cfg = healthy_config();
  cfg.testbed.enable_health = false;
  cfg.testbed.enable_packet_log = true;
  cfg.testbed.enable_decision_log = true;
  cfg.testbed.enable_telemetry = true;
  cfg.testbed.telemetry_period = Time::ms(100);
  const scenario::DriveResult off = scenario::run_drive(cfg);

  cfg.testbed.enable_health = true;
  const scenario::DriveResult on = scenario::run_drive(cfg);

  ASSERT_GT(off.packet_records, 0u);
  EXPECT_EQ(off.packet_jsonl, on.packet_jsonl)
      << "health engine perturbed the packet log";
  EXPECT_EQ(off.decision_jsonl, on.decision_jsonl)
      << "health engine perturbed the decision log";
  EXPECT_EQ(off.telemetry.to_csv(), on.telemetry.to_csv())
      << "health engine perturbed the telemetry CSV";
  EXPECT_EQ(off.mean_goodput_mbps(), on.mean_goodput_mbps());
  EXPECT_EQ(off.switches.size(), on.switches.size());
  EXPECT_GT(on.health_windows, 0u);
  EXPECT_EQ(on.health_violations, 0u);
}

TEST(HealthDriveTest, HealthStreamIsDeterministic) {
  const auto cfg = healthy_config();
  const scenario::DriveResult a = scenario::run_drive(cfg);
  const scenario::DriveResult b = scenario::run_drive(cfg);
  ASSERT_FALSE(a.health_jsonl.empty());
  EXPECT_EQ(a.health_jsonl, b.health_jsonl)
      << "repeat run produced a different health stream";
}

}  // namespace
}  // namespace wgtt
