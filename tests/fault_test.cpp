// Fault-injection / graceful-degradation suite (ctest label: chaos).
//
// Locks down the chaos contract end to end: the FaultPlan grammar and seeded
// chaos generator, the FaultInjector's window bookkeeping on the simulated
// clock, and the controller's degradation machinery under real drives — an
// AP crash mid-dwell must fail the client over with a machine-readable
// "ap_suspect" reason and recover goodput after the window (a parked
// client's too, whose static channel repeats every ESNR), a flapping AP
// must see its quarantine double per flap up to the cap, an AP replaying
// frozen CSI must be vetoed, and the same (plan, seed) must replay
// byte-identical decision and packet logs from a repeat run and from run 0
// of an 8-worker parallel sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/bulk.h"
#include "core/decision_log.h"
#include "net/fault_injector.h"
#include "net/packet.h"
#include "scenario/experiment.h"
#include "scenario/sweep.h"
#include "scenario/testbed.h"
#include "sim/fault_plan.h"
#include "sim/scheduler.h"
#include "util/json.h"
#include "util/jsonl.h"
#include "util/rng.h"

namespace wgtt {
namespace {

using sim::FaultKind;
using sim::FaultPlan;

// ---------------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesEveryKindAndKey) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(
      "ap_crash:ap=3,at=1s,for=500ms;"
      "link_drop:src=2,dst=0,at=2s,for=1s,rate=0.5;"
      "link_latency:src=4,dst=0,at=250ms,for=100ms,extra=5ms;"
      "partition:ap=1,at=3s,for=2s;"
      "csi_freeze:ap=5,at=1500us,for=2s;"
      "csi_garbage:ap=6,at=4s,for=1s",
      plan, &err))
      << err;
  ASSERT_EQ(plan.events.size(), 6u);

  EXPECT_EQ(plan.events[0].kind, FaultKind::kApCrash);
  EXPECT_EQ(plan.events[0].node, 3u);
  EXPECT_EQ(plan.events[0].at, Time::sec(1));
  EXPECT_EQ(plan.events[0].duration, Time::ms(500));

  EXPECT_EQ(plan.events[1].kind, FaultKind::kLinkDrop);
  EXPECT_EQ(plan.events[1].node, 2u);
  EXPECT_EQ(plan.events[1].peer, 0u);
  EXPECT_DOUBLE_EQ(plan.events[1].rate, 0.5);

  EXPECT_EQ(plan.events[2].kind, FaultKind::kLinkLatency);
  EXPECT_EQ(plan.events[2].extra, Time::ms(5));

  EXPECT_EQ(plan.events[3].kind, FaultKind::kPartition);
  EXPECT_EQ(plan.events[4].kind, FaultKind::kCsiFreeze);
  EXPECT_EQ(plan.events[4].at, Time::us(1500));
  EXPECT_EQ(plan.events[5].kind, FaultKind::kCsiGarbage);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "ap_crash",                          // missing ':'
      "reboot:ap=1,at=1s",                 // unknown kind
      "ap_crash:ap=1",                     // missing at=
      "ap_crash:at=1s",                    // missing node
      "ap_crash:ap=1,at=5",                // time without unit suffix
      "ap_crash:ap=1,at=1s,for=oops",      // unparseable time
      "ap_crash:ap=1,at=1s,color=red",     // unknown key
      "ap_crash:ap=1,at=1s,for",           // missing '='
      "link_drop:src=1,at=1s,rate=0",      // a drop burst that drops nothing
      "link_drop:src=1,at=1s,rate=1.5",    // rate out of [0, 1]
      "link_latency:src=1,at=1s",          // link_latency without extra
      // Values must parse whole: atoll/atof/stod once read these as
      // something else.
      "ap_crash:ap=x,at=1500ms,for=500ms",  // was node 0, the controller
      "ap_crash:ap=,at=1s",                 // was node 0
      "ap_crash:ap=-1,at=1s",               // was node 4294967295
      "ap_crash:ap=4294967296,at=1s",       // wider than 32 bits
      "ap_crash:ap=3x,at=1s",               // trailing junk after the id
      "link_drop:src=1,dst=x,at=1s",        // was peer 0
      "link_drop:src=1,at=1s,rate=0.5abc",  // was rate 0.5
      "ap_crash:ap=1,at=-1s",               // onset before t=0
      "ap_crash:ap=1,at=nans",              // was INT64_MIN ns
      "ap_crash:ap=1,at=1e30s",             // beyond Time; was INT64_MIN ns
      "ap_crash:ap=1,at=1s,for=infs",       // not finite
      "ap_crash:ap=1,at=1s,extra=nanms",    // not finite
      // AP-scoped kinds must not name node 0, the controller.
      "ap_crash:ap=0,at=1s,for=500ms",
      "csi_freeze:ap=0,at=1s",
      "csi_garbage:src=0,at=1s",
  };
  for (const char* spec : bad) {
    FaultPlan plan;
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(spec, plan, &err)) << spec;
    // Each spec is one clause, and the error names it.
    EXPECT_NE(err.find(spec), std::string::npos) << spec << ": " << err;
  }
  // In a multi-clause spec the error names the bad clause, not the spec.
  FaultPlan plan;
  std::string err;
  EXPECT_FALSE(FaultPlan::parse(
      "ap_crash:ap=3,at=1s;csi_freeze:ap=x,at=2s", plan, &err));
  EXPECT_NE(err.find("'csi_freeze:ap=x,at=2s'"), std::string::npos) << err;
  EXPECT_EQ(err.find("ap_crash"), std::string::npos) << err;
}

TEST(FaultPlanTest, AcceptsTheValidEdgesOfTheGrammar) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(
      "link_drop:src=2,dst=0,at=0s,rate=1;"  // dst=0 is the controller leg
      "ctrl_crash:at=1s;"                    // ctrl_crash needs no node
      "ctrl_crash:ap=0,at=2s,for=0ms;"       // for=0: never clears
      "ap_crash:ap=4294967295,at=3s,for=-1s",  // largest id; never clears
      plan, &err))
      << err;
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].peer, 0u);
  EXPECT_EQ(plan.events[0].at, Time::zero());
  EXPECT_EQ(plan.events[0].rate, 1.0);
  EXPECT_EQ(plan.events[1].node, 0u);
  EXPECT_EQ(plan.events[2].duration, Time::zero());
  EXPECT_EQ(plan.events[3].node, 4294967295u);
  EXPECT_EQ(plan.events[3].duration, Time::sec(-1));
}

TEST(FaultPlanTest, EmptyAndSeparatorOnlySpecsParseToNoFaults) {
  for (const char* spec : {"", ";", ";;;"}) {
    FaultPlan plan;
    EXPECT_TRUE(FaultPlan::parse(spec, plan)) << spec;
    EXPECT_TRUE(plan.empty()) << spec;
  }
}

TEST(FaultPlanTest, ChaosIsSeededDeterministicAndBounded) {
  const Time horizon = Time::sec(10);
  const FaultPlan a = FaultPlan::chaos(1.0, horizon, 8, 42);
  const FaultPlan b = FaultPlan::chaos(1.0, horizon, 8, 42);
  ASSERT_EQ(a.events.size(), 10u);  // intensity * horizon seconds
  ASSERT_EQ(b.events.size(), a.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].node, b.events[i].node) << i;
    EXPECT_EQ(a.events[i].at, b.events[i].at) << i;
    EXPECT_EQ(a.events[i].duration, b.events[i].duration) << i;
  }
  // Events are time-sorted, land inside the middle of the horizon, and only
  // name real APs.
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(a.events[i].at, a.events[i - 1].at);
    }
    EXPECT_GE(a.events[i].at, horizon * 0.15);
    EXPECT_LE(a.events[i].at, horizon * 0.85);
    EXPECT_GE(a.events[i].node, 1u);
    EXPECT_LE(a.events[i].node, 8u);
  }
  // A different seed draws a different schedule.
  const FaultPlan c = FaultPlan::chaos(1.0, horizon, 8, 43);
  bool differs = false;
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    differs |= c.events[i].at != a.events[i].at ||
               c.events[i].kind != a.events[i].kind;
  }
  EXPECT_TRUE(differs);
  // Degenerate inputs produce the empty (injector-free) plan.
  EXPECT_TRUE(FaultPlan::chaos(0.0, horizon, 8, 42).empty());
  EXPECT_TRUE(FaultPlan::chaos(1.0, Time::zero(), 8, 42).empty());
  EXPECT_TRUE(FaultPlan::chaos(1.0, horizon, 0, 42).empty());
}

TEST(FaultPlanTest, DescribeNamesEveryEvent) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::parse(
      "ap_crash:ap=3,at=1s,for=500ms;link_drop:src=2,dst=0,at=2s,for=1s,"
      "rate=0.5;link_latency:src=4,dst=0,at=3s,for=1s,extra=5ms",
      plan));
  const std::string text = plan.describe();
  EXPECT_NE(text.find("ap_crash"), std::string::npos);
  EXPECT_NE(text.find("rate=0.50"), std::string::npos);
  EXPECT_NE(text.find("extra=5.0ms"), std::string::npos);
  EXPECT_EQ(FaultPlan{}.describe(), "no faults");
}

// ---------------------------------------------------------------------------
// FaultInjector window bookkeeping (bare scheduler, no testbed)
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, WindowsOpenAndCloseOnTheSimClock) {
  sim::Scheduler sched;
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::parse(
      "ap_crash:ap=3,at=1ms,for=2ms;"
      "csi_freeze:ap=2,at=1ms,for=4ms;"
      "csi_garbage:ap=2,at=2ms,for=1ms;"
      "partition:src=4,dst=0,at=1ms,for=2ms;"
      "link_latency:src=5,dst=0,at=1ms,for=2ms,extra=3ms;"
      "link_drop:src=6,dst=0,at=1ms,for=2ms,rate=0.5",
      plan));
  net::FaultInjector inj(sched, plan, Rng(1).fork("faults"));

  std::vector<bool> transitions;
  inj.on_ap_fault(3, [&](bool down) { transitions.push_back(down); });

  // Nothing is faulted before the first onset fires.
  EXPECT_FALSE(inj.ap_down(3));
  EXPECT_EQ(inj.csi_mode(2), net::CsiFaultMode::kNormal);
  EXPECT_FALSE(inj.link(4, 0).impaired());
  EXPECT_EQ(inj.active_faults(), 0u);

  sched.run_until(Time::us(1500));
  EXPECT_TRUE(inj.ap_down(3));
  EXPECT_FALSE(inj.ap_down(4));
  EXPECT_EQ(inj.csi_mode(2), net::CsiFaultMode::kFreeze);
  EXPECT_TRUE(inj.link(4, 0).blocked);
  EXPECT_TRUE(inj.link(0, 4).blocked);  // links are undirected
  EXPECT_EQ(inj.link(5, 0).extra_latency, Time::ms(3));
  EXPECT_DOUBLE_EQ(inj.link(6, 0).drop_rate, 0.5);
  EXPECT_FALSE(inj.link(7, 0).impaired());
  EXPECT_EQ(inj.faults_applied(), 5u);
  EXPECT_EQ(inj.active_faults(), 5u);

  // Garbage opens inside the freeze window and wins while both are open.
  sched.run_until(Time::us(2200));
  EXPECT_EQ(inj.csi_mode(2), net::CsiFaultMode::kGarbage);
  EXPECT_EQ(inj.faults_applied(), 6u);

  // At 3 ms everything but the long freeze has cleared.
  sched.run_until(Time::us(3500));
  EXPECT_FALSE(inj.ap_down(3));
  EXPECT_EQ(inj.csi_mode(2), net::CsiFaultMode::kFreeze);
  EXPECT_FALSE(inj.link(4, 0).impaired());
  EXPECT_FALSE(inj.link(5, 0).impaired());
  EXPECT_FALSE(inj.link(6, 0).impaired());
  EXPECT_EQ(inj.active_faults(), 1u);

  sched.run_until(Time::ms(6));
  EXPECT_EQ(inj.csi_mode(2), net::CsiFaultMode::kNormal);
  EXPECT_EQ(inj.active_faults(), 0u);
  EXPECT_EQ(inj.faults_applied(), 6u);

  // The crash subscriber saw exactly onset then recovery.
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_TRUE(transitions[0]);
  EXPECT_FALSE(transitions[1]);
}

// ---------------------------------------------------------------------------
// Decision-log reason vocabulary stays exhaustive
// ---------------------------------------------------------------------------

TEST(DecisionLogTest, ReasonAndOutcomeNamesAreExhaustive) {
  for (std::size_t i = 0; i < core::kDecisionReasonCount; ++i) {
    EXPECT_STRNE(core::to_string(static_cast<core::DecisionReason>(i)), "?")
        << "DecisionReason " << i << " unnamed";
  }
  EXPECT_STREQ(core::to_string(static_cast<core::DecisionReason>(
                   core::kDecisionReasonCount)),
               "?");
}

// ---------------------------------------------------------------------------
// Controller degradation under real drives
// ---------------------------------------------------------------------------

/// The golden-trace scenario with both audit logs enabled.
scenario::DriveScenarioConfig chaos_config() {
  scenario::DriveScenarioConfig cfg;
  cfg.system = scenario::SystemType::kWgtt;
  cfg.traffic = scenario::TrafficType::kTcpDownlink;
  cfg.speed_mph = 25.0;
  cfg.duration = Time::sec(2);
  cfg.seed = 7;
  cfg.testbed.enable_decision_log = true;
  cfg.testbed.enable_packet_log = true;
  cfg.testbed.packet_sample = 1;
  return cfg;
}

std::vector<JsonValue> parse_jsonl(const std::string& jsonl) {
  std::vector<JsonValue> out;
  std::string error;
  EXPECT_TRUE(obs::read_jsonl(
      jsonl,
      [&](const JsonValue& v) {
        out.push_back(v);
        return true;
      },
      &error))
      << error;
  return out;
}

/// The client's active AP at simulated time `t_us`, replayed from the
/// decision log (chosen on a switch, incumbent otherwise).
net::NodeId active_ap_at(const std::string& decision_jsonl, double t_us) {
  net::NodeId ap = 0;
  for (const JsonValue& rec : parse_jsonl(decision_jsonl)) {
    if (rec.find("kind") != nullptr) continue;  // liveness lines
    if (rec.number_or("t_us", 0.0) > t_us) break;
    const bool switched = rec.string_or("outcome", "") == "switch";
    const double id = switched ? rec.number_or("chosen", 0.0)
                               : rec.number_or("incumbent", 0.0);
    if (id > 0.0) ap = static_cast<net::NodeId>(id);
  }
  return ap;
}

TEST(ChaosDriveTest, ApCrashMidDwellFailsOverAndRecovers) {
  // Probe run (fault-free) to learn which AP the client dwells on at t = 2 s
  // — late enough in the drive that TCP is flowing and the victim's queues
  // are loaded when the crash lands.
  scenario::DriveScenarioConfig base = chaos_config();
  base.duration = Time::sec(3);
  const scenario::DriveResult probe = scenario::run_drive(base);
  const net::NodeId victim = active_ap_at(probe.decision_jsonl, 2.0e6);
  ASSERT_NE(victim, 0u) << "probe run never joined an AP";

  scenario::DriveScenarioConfig cfg = base;
  char spec[64];
  std::snprintf(spec, sizeof spec, "ap_crash:ap=%u,at=2s,for=500ms", victim);
  ASSERT_TRUE(FaultPlan::parse(spec, cfg.testbed.faults));
  const scenario::DriveResult r = scenario::run_drive(cfg);

  // The liveness monitor flagged the victim and the controller recorded a
  // failover with the machine-readable reason.
  bool suspect = false;
  bool ap_suspect_switch = false;
  for (const JsonValue& rec : parse_jsonl(r.decision_jsonl)) {
    if (rec.string_or("kind", "") == "liveness" &&
        rec.string_or("event", "") == "suspect" &&
        static_cast<net::NodeId>(rec.number_or("ap", 0.0)) == victim) {
      suspect = true;
    }
    if (rec.string_or("reason", "") == "ap_suspect" &&
        rec.string_or("outcome", "") == "switch") {
      ap_suspect_switch = true;
    }
  }
  EXPECT_TRUE(suspect) << "no liveness suspect record for AP " << victim;
  EXPECT_TRUE(ap_suspect_switch)
      << "no switch decision with reason=ap_suspect";

  // The flight recorder saw the fault window open and close on the victim,
  // the crash purge attributed its drops to the injected fault, and every
  // terminal record still carries a cause.
  bool fault_on = false, fault_off = false, fault_drop = false;
  for (const JsonValue& rec : parse_jsonl(r.packet_jsonl)) {
    const std::string hop = rec.string_or("hop", "?");
    if (hop == "fault_on" &&
        static_cast<net::NodeId>(rec.number_or("node", 0.0)) == victim) {
      fault_on = true;
    }
    if (hop == "fault_off" &&
        static_cast<net::NodeId>(rec.number_or("node", 0.0)) == victim) {
      fault_off = true;
    }
    const bool terminal = hop == "transport_drop" || hop == "backhaul_drop" ||
                          hop == "ap_drop" || hop == "mac_drop" ||
                          hop == "dedup_suppress";
    if (!terminal) continue;
    EXPECT_NE(rec.string_or("cause", ""), "") << hop << " without a cause";
    if (rec.string_or("cause", "") == "fault_injected") fault_drop = true;
  }
  EXPECT_TRUE(fault_on) << "missing fault_on marker";
  EXPECT_TRUE(fault_off) << "missing fault_off marker";
  EXPECT_TRUE(fault_drop) << "crash purge produced no fault_injected drop";

  // Goodput comes back after the fault window clears at t = 2.5 s (bins are
  // 500 ms wide on the absolute sim clock, so the last bin is post-fault).
  ASSERT_EQ(r.clients.size(), 1u);
  double recovered = 0.0;
  for (const auto& [t, mbps] : r.clients[0].throughput_bins) {
    if (t >= Time::ms(2500)) recovered += mbps;
  }
  EXPECT_GT(recovered, 0.0) << "no goodput after the fault cleared";
  EXPECT_GT(r.mean_goodput_mbps(), 0.0);
}

TEST(ChaosDriveTest, FlappingApQuarantineDoublesThenCaps) {
  scenario::DriveScenarioConfig cfg = chaos_config();
  cfg.duration = Time::sec(2.5);
  cfg.wgtt.controller.quarantine_base = Time::ms(200);
  cfg.wgtt.controller.quarantine_cap = Time::ms(600);
  // Three short crashes: each recovery lands a heartbeat while the AP is
  // suspect, so every flap re-quarantines it with a doubled window.
  ASSERT_TRUE(FaultPlan::parse(
      "ap_crash:ap=3,at=500ms,for=150ms;"
      "ap_crash:ap=3,at=1200ms,for=150ms;"
      "ap_crash:ap=3,at=1900ms,for=150ms",
      cfg.testbed.faults));
  const scenario::DriveResult r = scenario::run_drive(cfg);

  std::vector<double> quarantines;
  std::size_t reinstated = 0;
  for (const JsonValue& rec : parse_jsonl(r.decision_jsonl)) {
    if (rec.string_or("kind", "") != "liveness") continue;
    if (static_cast<net::NodeId>(rec.number_or("ap", 0.0)) != 3) continue;
    const std::string event = rec.string_or("event", "");
    if (event == "quarantined") {
      quarantines.push_back(rec.number_or("quarantine_us", 0.0));
    }
    if (event == "reinstated") ++reinstated;
  }
  // 200 ms, doubled to 400 ms, then capped at 600 ms (not 800 ms).
  ASSERT_EQ(quarantines.size(), 3u)
      << "expected one quarantine per flap:\n" << r.decision_jsonl;
  EXPECT_DOUBLE_EQ(quarantines[0], 200000.0);
  EXPECT_DOUBLE_EQ(quarantines[1], 400000.0);
  EXPECT_DOUBLE_EQ(quarantines[2], 600000.0);
  EXPECT_GE(reinstated, 2u) << "quarantine windows never expired";
}

TEST(ChaosDriveTest, ParkedClientFailsOverWhenItsApCrashes) {
  // A parked client's channel is static, so every fresh CSI report repeats
  // the last one's ESNR bit for bit.  Only a replay of an old measurement
  // may count toward the frozen-CSI veto; otherwise both APs look frozen
  // and the crash strands the client on its dead AP.
  scenario::DriveScenarioConfig cfg;
  cfg.system = scenario::SystemType::kWgtt;
  cfg.traffic = scenario::TrafficType::kUdpDownlink;
  cfg.speed_mph = 0.0;
  cfg.duration = Time::sec(6);
  cfg.seed = 42;
  cfg.testbed.ap_x = {0.0, 4.0};
  cfg.testbed.enable_health = true;
  ASSERT_TRUE(
      FaultPlan::parse("ap_crash:ap=1,at=2s,for=20s", cfg.testbed.faults));
  const scenario::DriveResult r = scenario::run_drive(cfg);

  bool failed_over = false;
  for (const core::SwitchRecord& s : r.switches) {
    if (s.from_ap == 1 && s.to_ap == 2 && s.initiated >= Time::sec(2)) {
      failed_over = true;
    }
  }
  EXPECT_TRUE(failed_over) << "no switch off the crashed AP 1";
  EXPECT_EQ(r.unconverged_clients, 0u);
  EXPECT_LT(r.longest_outage_ms, 2000.0);
}

TEST(ChaosDriveTest, FrozenCsiVetoesTheFrozenAp) {
  // AP 3's CSI pipeline replays one stale report while a moving client is
  // in its range: the replays count as frozen, and selection vetoes the AP.
  scenario::TestbedConfig tb;
  tb.seed = 7;
  ASSERT_TRUE(FaultPlan::parse("csi_freeze:ap=3,at=1s,for=3s", tb.faults));
  scenario::Testbed bed(tb);
  scenario::WgttNetwork net(bed);
  const net::NodeId client = net.add_client(bed.drive_mobility(15.0));

  transport::IpIdAllocator ids;
  transport::UdpFlowConfig ucfg;
  ucfg.flow_id = 100;
  ucfg.src = scenario::kServerId;
  ucfg.dst = client;
  ucfg.offered_load_bps = 5e6;
  apps::BulkUdpApp app(bed.sched(), ids, ucfg);
  net.wire_udp_downlink(app.sender(), app.receiver(), client);
  bed.sched().schedule_at(Time::ms(500), [&]() { app.start(); });
  bed.sched().run_until(Time::sec(4));

  EXPECT_GT(net.controller().stats().stale_csi_exclusions, 0u);
}

TEST(ChaosDriveTest, ByteIdenticalAcrossRepeatAndParallelSweep) {
  scenario::DriveScenarioConfig cfg = chaos_config();
  cfg.testbed.faults = FaultPlan::chaos(2.0, Time::sec(2), 8, cfg.seed);
  ASSERT_FALSE(cfg.testbed.faults.empty());

  const scenario::DriveResult first = scenario::run_drive(cfg);
  const scenario::DriveResult second = scenario::run_drive(cfg);
  ASSERT_GT(first.packet_records, 0u);
  ASSERT_GT(first.decision_records, 0u);
  EXPECT_EQ(first.decision_jsonl, second.decision_jsonl)
      << "repeat chaos run produced a different decision log";
  EXPECT_EQ(first.packet_jsonl, second.packet_jsonl)
      << "repeat chaos run produced a different packet log";

  // Same config as run 0 of an 8-worker sweep; the other seven runs vary
  // seed and chaos intensity so the workers interleave different fault
  // schedules while run 0 must still replay byte-identically.
  std::vector<scenario::DriveScenarioConfig> configs{cfg};
  for (std::uint64_t seed = 21; seed < 28; ++seed) {
    scenario::DriveScenarioConfig other = chaos_config();
    other.seed = seed;
    other.testbed.faults = FaultPlan::chaos(
        1.0 + static_cast<double>(seed % 3), Time::sec(2), 8, seed);
    configs.push_back(other);
  }
  scenario::SweepRunner runner(scenario::SweepOptions{.jobs = 8});
  const scenario::SweepOutcome outcome = runner.run(configs);
  EXPECT_EQ(first.decision_jsonl, outcome.runs[0].result.decision_jsonl)
      << "8-worker chaos sweep produced a different decision log";
  EXPECT_EQ(first.packet_jsonl, outcome.runs[0].result.packet_jsonl)
      << "8-worker chaos sweep produced a different packet log";
}

}  // namespace
}  // namespace wgtt
