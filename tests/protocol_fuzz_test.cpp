// Control-plane hardening suite (ctest label: protocol).
//
// Locks down the idempotent, fenced switch protocol end to end:
//
//  * regression tests for the two pre-hardening corruption bugs — a stale
//    SwitchAckMsg completing the wrong switch at the controller, and a
//    replayed StartMsg re-activating an already-handed-over AP (the
//    dual-active transmitter bug);
//  * the retry rule: a fault-free stop-start switch retransmits its stop
//    until acked, and a start-first switch toward a silent target is
//    abandoned after max_control_retries;
//  * the deterministic protocol fuzzer: 32 seeded adversarial schedules per
//    mode ({msg_dup, msg_reorder, ctrl_crash, combined}, and the combined
//    schedules under the make_before_break and bicast styles) driven through
//    full drives, asserting zero health errors, no client stranded, the
//    at-most-one-active-transmitter invariant, and per-client
//    (epoch, switch_id) monotonicity across the switch log;
//  * byte-reproducibility of adversarial runs (the new impairments draw
//    from the injector's own RNG stream, so same (plan, seed) replays the
//    exact same decision and packet logs).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "channel/channel_model.h"
#include "core/control_messages.h"
#include "core/wgtt_ap.h"
#include "core/wgtt_controller.h"
#include "mac/medium.h"
#include "mac/wifi_device.h"
#include "net/backhaul.h"
#include "net/fault_injector.h"
#include "net/packet.h"
#include "phy/error_model.h"
#include "scenario/experiment.h"
#include "scenario/sweep.h"
#include "sim/fault_plan.h"
#include "sim/scheduler.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace wgtt {
namespace {

using core::ControllerConfig;
using core::StartMsg;
using core::StopMsg;
using core::SwitchAckMsg;
using core::WgttController;
using sim::FaultPlan;

// ---------------------------------------------------------------------------
// Regression: stale SwitchAckMsg fencing at the controller
// ---------------------------------------------------------------------------

// The SwitchFsmTest harness from core_test, but with a FaultInjector
// installed before the controller constructs — that arms the fences.  The
// (empty) plan never fires a fault; only the hardening machinery is active.
class HardenedFsmTest : public ::testing::Test {
 protected:
  HardenedFsmTest()
      : injector(sched, FaultPlan{}, Rng(2).fork("faults")),
        scope(&injector),
        backhaul(sched, net::BackhaulConfig{}, Rng(1)),
        controller(sched, backhaul, {1, 2}, ControllerConfig{}) {}

  void attach_ap(net::NodeId id, bool respond_to_stop) {
    backhaul.attach(id, [this, respond_to_stop](
                            const net::TunneledPacket& f) {
      auto inner = net::decapsulate(f);
      if (inner->type == net::PacketType::kStop) {
        ++stops_seen;
        if (!respond_to_stop) return;  // swallow: ack never comes
        const auto* stop = net::payload_as<StopMsg>(*inner);
        ASSERT_NE(stop, nullptr);
        net::Packet ack;
        ack.type = net::PacketType::kSwitchAck;
        ack.size_bytes = SwitchAckMsg::kWireBytes;
        // A real AP echoes the fencing epoch the start carried (relayed
        // from this stop).
        ack.payload =
            SwitchAckMsg{stop->client, stop->next_ap, stop->switch_id,
                         stop->epoch};
        ack.src = stop->next_ap;
        ack.dst = net::kControllerId;
        backhaul.send(net::encapsulate(net::make_packet(std::move(ack)),
                                       stop->next_ap, net::kControllerId));
      }
    });
  }

  void join_client(net::NodeId ap) {
    core::StaInfo info;
    info.client = net::kClientBase;
    info.associating_ap = ap;
    net::Packet p;
    p.type = net::PacketType::kAssocSync;
    p.size_bytes = core::ClientJoinedMsg::kWireBytes;
    p.payload = core::ClientJoinedMsg{info};
    backhaul.send(net::encapsulate(net::make_packet(std::move(p)), ap,
                                   net::kControllerId));
  }

  void feed_csi(net::NodeId ap, double esnr_snr_db, int count) {
    for (int i = 0; i < count; ++i) {
      phy::Csi csi;
      for (auto& s : csi.subcarrier_snr_db) s = esnr_snr_db;
      net::Packet p;
      p.type = net::PacketType::kCsiReport;
      p.size_bytes = core::CsiReportMsg::kWireBytes;
      p.payload = core::CsiReportMsg{ap, net::kClientBase, csi};
      backhaul.send(net::encapsulate(net::make_packet(std::move(p)), ap,
                                     net::kControllerId));
    }
  }

  void send_ack(std::uint32_t switch_id, std::uint32_t epoch,
                net::NodeId new_ap = 2) {
    net::Packet p;
    p.type = net::PacketType::kSwitchAck;
    p.size_bytes = SwitchAckMsg::kWireBytes;
    p.payload = SwitchAckMsg{net::kClientBase, new_ap, switch_id, epoch};
    backhaul.send(net::encapsulate(net::make_packet(std::move(p)), new_ap,
                                   net::kControllerId));
  }

  /// Drive the 1 -> 2 switch to completion (bootstrap on 1 first).
  void complete_one_switch() {
    attach_ap(1, true);
    attach_ap(2, true);
    join_client(1);
    sched.run_until(Time::ms(50));
    for (int burst = 0; burst < 10; ++burst) {
      sched.schedule(Time::ms(burst * 2), [this]() {
        feed_csi(1, 5.0, 2);
        feed_csi(2, 18.0, 2);
      });
    }
    sched.run_until(Time::ms(200));
    ASSERT_EQ(controller.active_ap(net::kClientBase), 2u);
    ASSERT_EQ(controller.stats().switches_completed, 1u);
  }

  sim::Scheduler sched;
  net::FaultInjector injector;
  net::ScopedFaultInjector scope;
  net::Backhaul backhaul;
  WgttController controller;
  int stops_seen = 0;
};

TEST_F(HardenedFsmTest, DuplicateAndPreRestartAcksAreFencedOff) {
  complete_one_switch();

  // A duplicate of the already-consumed ack (msg_dup, or the same ack
  // tunneled by two paths): no switch is in flight, so it is stale.
  send_ack(/*switch_id=*/1, controller.epoch());
  // An ack stamped before any restart (epoch 0 != current epoch): stale
  // even if a recycled switch_id happened to match.
  send_ack(/*switch_id=*/1, /*epoch=*/0);
  sched.run_until(Time::ms(250));

  EXPECT_EQ(controller.stats().stale_acks, 2u);
  // Neither corrupted the FSM: still exactly one completed switch, the
  // active AP unchanged.
  EXPECT_EQ(controller.stats().switches_completed, 1u);
  EXPECT_EQ(controller.active_ap(net::kClientBase), 2u);
}

TEST_F(HardenedFsmTest, ForeignAckCannotCompleteAnInflightSwitch) {
  // AP1 swallows the stop, so the 1 -> 2 switch stays open and retries.
  attach_ap(1, false);
  attach_ap(2, true);
  join_client(1);
  sched.run_until(Time::ms(50));
  for (int burst = 0; burst < 40; ++burst) {
    sched.schedule(Time::ms(burst * 2), [this]() {
      feed_csi(1, 5.0, 2);
      feed_csi(2, 18.0, 2);
    });
  }
  sched.run_until(Time::ms(120));
  ASSERT_TRUE(controller.switch_in_flight(net::kClientBase));

  // Before the fence, any ack naming this client completed the in-flight
  // switch regardless of which handshake it belonged to.  An ack with a
  // foreign switch_id must bounce off.
  send_ack(/*switch_id=*/999, controller.epoch());
  sched.run_until(Time::ms(160));

  EXPECT_GE(controller.stats().stale_acks, 1u);
  EXPECT_EQ(controller.stats().switches_completed, 0u);
  EXPECT_EQ(controller.active_ap(net::kClientBase), 1u);
  EXPECT_TRUE(controller.switch_in_flight(net::kClientBase));
}

// ---------------------------------------------------------------------------
// Regression: stale StartMsg fencing at the AP (the dual-active bug)
// ---------------------------------------------------------------------------

// One real WgttAp on a real radio, with an injector installed so the
// (epoch, switch_id) fences are armed.  The controller side is a plain
// backhaul sink.
class HardenedApWorld {
 public:
  HardenedApWorld()
      : channel(channel::RadioConfig{18.0, 20.0, 0.0, 20e6, 6.0, 2.462e9},
                channel::PathLossConfig{}, channel::ShadowingConfig{},
                channel::FadingConfig{}, Rng(3)),
        medium(sched, channel),
        ctx(sched, medium, channel, error_model, Rng(4)),
        injector(sched, FaultPlan{}, Rng(2).fork("faults")),
        scope(&injector),
        backhaul(sched, net::BackhaulConfig{}, Rng(1)) {
    channel::ApSite site;
    site.id = 1;
    site.position = {0.0, 10.0, 5.0};
    site.boresight = channel::Vec3{0, -10, -3.5}.normalized();
    site.antenna = std::make_shared<channel::ParabolicAntenna>();
    channel.add_ap(site);
    channel.add_client(net::kClientBase,
                       std::make_shared<channel::StaticMobility>(
                           channel::Vec3{0, 0, 1.5}));
    mac::WifiDeviceConfig dev_cfg;
    dev_cfg.is_ap = true;
    dev_cfg.bssid = 1;
    device = std::make_unique<mac::WifiDevice>(ctx, 1, dev_cfg);
    core::WgttApConfig cfg;
    cfg.id = 1;
    ap = std::make_unique<core::WgttAp>(sched, backhaul, *device, cfg);
    // Swallow everything the AP sends upstream (acks, heartbeats, CSI);
    // count the switch acks.
    backhaul.attach(net::kControllerId, [this](const net::TunneledPacket& f) {
      auto inner = net::decapsulate(f);
      if (inner->type == net::PacketType::kSwitchAck) ++acks_seen;
    });
    // The stop relays a start to AP2; give the frame somewhere to die.
    backhaul.attach(2, [](const net::TunneledPacket&) {});
  }

  void send_start(std::uint32_t switch_id, std::uint32_t epoch) {
    net::Packet p;
    p.type = net::PacketType::kStart;
    p.size_bytes = StartMsg::kWireBytes;
    p.payload = StartMsg{net::kClientBase, core::kResumeHeadIndex, switch_id,
                         /*from_ap=*/0, epoch};
    backhaul.send(net::encapsulate(net::make_packet(std::move(p)),
                                   net::kControllerId, 1));
  }

  void send_stop(std::uint32_t switch_id, std::uint32_t epoch) {
    net::Packet p;
    p.type = net::PacketType::kStop;
    p.size_bytes = StopMsg::kWireBytes;
    StopMsg stop;
    stop.client = net::kClientBase;
    stop.next_ap = 2;
    stop.switch_id = switch_id;
    stop.epoch = epoch;
    p.payload = stop;
    backhaul.send(net::encapsulate(net::make_packet(std::move(p)),
                                   net::kControllerId, 1));
  }

  sim::Scheduler sched;
  phy::ErrorModel error_model;
  channel::ChannelModel channel;
  mac::Medium medium;
  mac::MacContext ctx;
  net::FaultInjector injector;
  net::ScopedFaultInjector scope;
  net::Backhaul backhaul;
  std::unique_ptr<mac::WifiDevice> device;
  std::unique_ptr<core::WgttAp> ap;
  int acks_seen = 0;
};

TEST(StaleStartRegression, ReplayedStartCannotReactivateAHandedOverAp) {
  HardenedApWorld w;

  // Switch 5 activates this AP (controller-originated failover start).
  w.send_start(/*switch_id=*/5, /*epoch=*/1);
  w.sched.run_until(Time::ms(40));
  ASSERT_TRUE(w.ap->active_for(net::kClientBase));
  ASSERT_EQ(w.acks_seen, 1);

  // Switch 6 hands the client over to AP2: stop, flush, relay.
  w.send_stop(/*switch_id=*/6, /*epoch=*/1);
  w.sched.run_until(Time::ms(80));
  ASSERT_FALSE(w.ap->active_for(net::kClientBase));

  // An msg_reorder/msg_dup replay of the old start(5) arrives late.  Before
  // the fence this re-activated the stack unconditionally — two APs then
  // transmitted to the client under the shared BSSID (dual-active).  The
  // (epoch, switch_id) fence sits at (1, 6) and must reject (1, 5).
  w.send_start(/*switch_id=*/5, /*epoch=*/1);
  w.sched.run_until(Time::ms(120));

  EXPECT_EQ(w.ap->stats().stale_starts_rejected, 1u);
  EXPECT_FALSE(w.ap->active_for(net::kClientBase));
  EXPECT_FALSE(w.ap->transmitting(net::kClientBase));
  EXPECT_EQ(w.acks_seen, 1);  // the stale start earned no second ack
}

TEST(StaleStartRegression, RetransmittedCurrentStopReprocessesIdempotently) {
  HardenedApWorld w;
  w.send_start(5, 1);
  w.sched.run_until(Time::ms(40));

  // The controller's ack timeout retransmits stop(6): the fence holds an
  // equal pair, which must re-process (re-deriving the same k), not bounce.
  w.send_stop(6, 1);
  w.sched.run_until(Time::ms(80));
  w.send_stop(6, 1);
  w.sched.run_until(Time::ms(120));

  EXPECT_EQ(w.ap->stats().stops_handled, 2u);
  EXPECT_EQ(w.ap->stats().stale_stops_rejected, 0u);
  EXPECT_FALSE(w.ap->active_for(net::kClientBase));
}

// ---------------------------------------------------------------------------
// The retry rule: which switches give up
// ---------------------------------------------------------------------------

// A fault-free controller (no injector installed) between two scripted APs
// that never ack: AP1 holds the client, AP2 reports far better CSI for the
// whole run.  Each AP counts the stop(c) / start(c) frames it swallows by
// switch id.
class RetryRuleTest : public ::testing::Test {
 protected:
  RetryRuleTest() : backhaul(sched, net::BackhaulConfig{}, Rng(1)) {}

  /// Run `policy`'s controller for `horizon` with CSI favouring AP2.
  void drive(const char* policy, Time horizon) {
    ControllerConfig cfg;
    ASSERT_TRUE(core::parse_policy_spec(policy, cfg.policy));
    controller = std::make_unique<WgttController>(
        sched, backhaul, std::vector<net::NodeId>{1, 2}, cfg);
    for (net::NodeId ap : {1u, 2u}) {
      backhaul.attach(ap, [this, ap](const net::TunneledPacket& f) {
        const auto inner = net::decapsulate(f);
        if (const auto* stop = net::payload_as<StopMsg>(*inner)) {
          EXPECT_EQ(ap, 1u);
          ++stops[stop->switch_id];
        } else if (const auto* start = net::payload_as<StartMsg>(*inner)) {
          EXPECT_EQ(ap, 2u);
          ++starts[start->switch_id];
        }
      });
    }
    core::StaInfo info;
    info.client = net::kClientBase;
    info.associating_ap = 1;
    backhaul.send(net::encapsulate(
        net::make_packet(core::control_packet(core::ClientJoinedMsg{info})),
        1, net::kControllerId));
    for (Time t = Time::zero(); t < horizon; t += Time::ms(2)) {
      sched.schedule(t, [this]() {
        feed_csi(1, 5.0);
        feed_csi(2, 18.0);
      });
    }
    sched.run_until(horizon);
  }

  void feed_csi(net::NodeId ap, double snr_db) {
    phy::Csi csi;
    for (auto& s : csi.subcarrier_snr_db) s = snr_db;
    for (int i = 0; i < 2; ++i) {
      backhaul.send(net::encapsulate(
          net::make_packet(core::control_packet(
              core::CsiReportMsg{ap, net::kClientBase, csi})),
          ap, net::kControllerId));
    }
  }

  sim::Scheduler sched;
  net::Backhaul backhaul;
  std::unique_ptr<WgttController> controller;
  std::map<std::uint32_t, unsigned> stops;   // at AP1, by switch id
  std::map<std::uint32_t, unsigned> starts;  // at AP2, by switch id
};

TEST_F(RetryRuleTest, StartFirstSwitchToASilentTargetIsAbandoned) {
  drive("make_before_break", Time::ms(600));
  const core::ControllerStats& st = controller->stats();
  const std::size_t retries = controller->config().max_control_retries;
  // Switch ids count up from 1 and each switch ends before the next
  // begins, so switches 1..abandoned_switches are the abandoned ones.
  ASSERT_GE(st.abandoned_switches, 2u);
  for (std::uint32_t id = 1; id <= st.abandoned_switches; ++id) {
    EXPECT_EQ(starts[id], retries + 1)
        << "switch " << id << " made " << starts[id] - 1
        << " retransmissions, not max_control_retries";
  }
  // The incumbent was never stopped or quenched: the client stays on it.
  EXPECT_TRUE(stops.empty());
  EXPECT_EQ(st.switches_completed, 0u);
  EXPECT_EQ(controller->active_ap(net::kClientBase), 1u);
}

TEST_F(RetryRuleTest, FaultFreeStopStartSwitchRetransmitsUntilAcked) {
  drive("median_esnr", Time::ms(600));
  const core::ControllerStats& st = controller->stats();
  const std::size_t retries = controller->config().max_control_retries;
  // One switch, still in flight: its stop went out far more often than the
  // retry bound allows any other switch, at the flat 30 ms ack timeout.
  EXPECT_EQ(st.abandoned_switches, 0u);
  EXPECT_TRUE(controller->switch_in_flight(net::kClientBase));
  ASSERT_EQ(stops.size(), 1u);
  EXPECT_GT(stops[1], 2 * (retries + 1));
  EXPECT_EQ(st.stop_retransmissions, stops[1] - 1);
  EXPECT_TRUE(starts.empty());
  EXPECT_EQ(controller->active_ap(net::kClientBase), 1u);
}

// ---------------------------------------------------------------------------
// The deterministic protocol fuzzer
// ---------------------------------------------------------------------------

constexpr std::size_t kFuzzSeeds = 32;
const Time kFuzzHorizon = Time::sec(3);

/// One adversarial drive: the golden-trace scenario under a seeded
/// control-chaos schedule, with the health engine's outage ledger on.
/// control_chaos confines every fault window to [10%, 75%] of the horizon,
/// so the final ~0.75 s is fault-free convergence headroom.
scenario::DriveScenarioConfig fuzz_config(std::uint64_t seed, unsigned mask,
                                          const char* policy = "median_esnr") {
  scenario::DriveScenarioConfig cfg;
  cfg.system = scenario::SystemType::kWgtt;
  cfg.traffic = scenario::TrafficType::kTcpDownlink;
  cfg.speed_mph = 25.0;
  cfg.duration = kFuzzHorizon;
  cfg.seed = seed;
  cfg.testbed.enable_health = true;
  cfg.testbed.faults =
      FaultPlan::control_chaos(1.5, kFuzzHorizon, 8, seed, mask);
  EXPECT_TRUE(core::parse_policy_spec(policy, cfg.wgtt.controller.policy));
  return cfg;
}

std::uint64_t counter_sum(const metrics::Snapshot& snap,
                          std::string_view name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

struct FuzzSummary {
  std::uint64_t faults_injected = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t stale_rejected = 0;
  std::uint64_t stale_acks = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t switches = 0;
  std::uint64_t client_duplicates = 0;
};

/// Run kFuzzSeeds adversarial drives for one fault-kind mask and handoff
/// policy (8-way parallel), assert the protocol contract on every run, and
/// return the summed hardening counters for the per-mode expectations.
FuzzSummary fuzz_mode(unsigned mask, const char* policy = "median_esnr") {
  std::vector<scenario::DriveScenarioConfig> configs;
  for (std::uint64_t seed = 1; seed <= kFuzzSeeds; ++seed) {
    configs.push_back(fuzz_config(seed, mask, policy));
    EXPECT_FALSE(configs.back().testbed.faults.empty()) << "seed " << seed;
  }
  scenario::SweepRunner runner(scenario::SweepOptions{.jobs = 8});
  const scenario::SweepOutcome outcome = runner.run(configs);
  EXPECT_EQ(outcome.runs.size(), kFuzzSeeds);

  FuzzSummary sum;
  for (std::size_t i = 0; i < outcome.runs.size(); ++i) {
    const scenario::DriveResult& r = outcome.runs[i].result;
    const std::uint64_t seed = i + 1;

    // Contract 1: no watchdog tripped (conservation, ledger sanity).
    EXPECT_EQ(r.health_errors, 0u) << "seed " << seed;
    // Contract 2: at most one active transmitter per client once the
    // schedule's faults have cleared (in-flight handshakes excluded).
    EXPECT_TRUE(r.dual_active_clients.empty())
        << "seed " << seed << ": " << r.dual_active_clients.size()
        << " client(s) had two active transmitters at end of run";
    // Contract 3: no client stranded — every outage window the health
    // ledger opened was closed again before the run ended.
    EXPECT_EQ(r.unconverged_clients, 0u)
        << "seed " << seed << ": client still stranded at end of run ("
        << r.outages << " outages, longest " << r.longest_outage_ms << " ms)";
    // Contract 4: (epoch, switch_id) is lexicographically non-decreasing
    // per client across the completed-switch log.
    std::map<net::NodeId, std::pair<std::uint32_t, std::uint32_t>> last;
    for (const core::SwitchRecord& rec : r.switches) {
      EXPECT_GE(rec.epoch, 1u) << "seed " << seed << ": unfenced record";
      const auto stamp = std::make_pair(rec.epoch, rec.switch_id);
      auto it = last.find(rec.client);
      if (it != last.end()) {
        EXPECT_GE(stamp, it->second)
            << "seed " << seed << " client " << rec.client
            << ": switch identity went backwards";
      }
      last[rec.client] = stamp;
    }

    sum.faults_injected += counter_sum(r.metrics, "fault.injected");
    sum.dup_suppressed +=
        counter_sum(r.metrics, "controller.protocol.dup_suppressed");
    sum.stale_rejected +=
        counter_sum(r.metrics, "controller.protocol.stale_rejected");
    sum.stale_acks += counter_sum(r.metrics, "controller.protocol.stale_acks");
    sum.resyncs += counter_sum(r.metrics, "controller.protocol.resyncs");
    sum.switches += r.switches.size();
    sum.client_duplicates += r.downlink_duplicates_removed;
  }
  // The schedules actually exercised something: faults fired and the
  // control plane kept switching through them.
  EXPECT_GT(sum.faults_injected, 0u);
  EXPECT_GT(sum.switches, 0u);
  return sum;
}

TEST(ProtocolFuzz, MsgDupSchedulesConvergeWithoutViolations) {
  const FuzzSummary s = fuzz_mode(FaultPlan::kChaosMsgDup);
  // 32 seeds of adversarial duplication: the receivers' seq dedup must
  // have seen and dropped real duplicates somewhere.
  EXPECT_GT(s.dup_suppressed, 0u);
}

TEST(ProtocolFuzz, MsgReorderSchedulesConvergeWithoutViolations) {
  fuzz_mode(FaultPlan::kChaosMsgReorder);
}

TEST(ProtocolFuzz, CtrlCrashSchedulesWarmRestartAndResync) {
  const FuzzSummary s = fuzz_mode(FaultPlan::kChaosCtrlCrash);
  // Every crash clear runs a warm restart; at least one resync round must
  // have been broadcast across the 32 seeds.
  EXPECT_GT(s.resyncs, 0u);
}

TEST(ProtocolFuzz, CombinedAdversarialSchedulesConverge) {
  const FuzzSummary s = fuzz_mode(FaultPlan::kChaosControlAll);
  EXPECT_GT(s.dup_suppressed + s.stale_rejected + s.stale_acks + s.resyncs,
            0u);
}

// The start-first styles under the combined schedules: direct starts,
// post-ack quenches and bicast overlap windows must keep the same contract.
// Client-side duplicates show the overlap really happened.
TEST(ProtocolFuzz, MakeBeforeBreakSchedulesConverge) {
  const FuzzSummary s =
      fuzz_mode(FaultPlan::kChaosControlAll, "make_before_break");
  EXPECT_GT(s.client_duplicates, 0u);
}

TEST(ProtocolFuzz, BicastSchedulesConverge) {
  const FuzzSummary s =
      fuzz_mode(FaultPlan::kChaosControlAll, "bicast:hold_ms=50");
  EXPECT_GT(s.client_duplicates, 0u);
}

// ---------------------------------------------------------------------------
// Adversarial runs stay byte-reproducible
// ---------------------------------------------------------------------------

TEST(ProtocolFuzz, AdversarialRunsAreByteReproducible) {
  scenario::DriveScenarioConfig cfg =
      fuzz_config(11, FaultPlan::kChaosControlAll);
  cfg.testbed.enable_decision_log = true;
  cfg.testbed.enable_packet_log = true;
  cfg.testbed.packet_sample = 1;
  const scenario::DriveResult a = scenario::run_drive(cfg);
  const scenario::DriveResult b = scenario::run_drive(cfg);
  ASSERT_GT(a.decision_records, 0u);
  ASSERT_GT(a.packet_records, 0u);
  EXPECT_EQ(a.decision_jsonl, b.decision_jsonl)
      << "control chaos replay produced a different decision log";
  EXPECT_EQ(a.packet_jsonl, b.packet_jsonl)
      << "control chaos replay produced a different packet log";
}

}  // namespace
}  // namespace wgtt
