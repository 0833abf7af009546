// The WGTT controller (paper §3, Fig. 5 control plane).
//
// A single wired host that:
//  * receives CSI reports from every AP for every overheard client frame
//    and maintains a sliding window W of ESNR readings per (client, AP);
//  * selects, per client, the AP with the maximal median ESNR in the window
//    (§3.1.1, Fig. 6) and drives the stop/start/ack switching protocol with
//    a 30 ms ack timeout (§3.1.2) and a configurable time hysteresis
//    between switches (§5.3.3);
//  * fans every downlink packet out to all APs within communication range
//    of the client (the APs that reported CSI within the window), tagging
//    it with the client's 12-bit cyclic index;
//  * de-duplicates uplink packets tunneled by multiple APs before handing
//    them to the wired network (§3.2.3).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/ap_selector.h"
#include "core/control_link.h"
#include "core/control_messages.h"
#include "core/decision_log.h"
#include "core/dedup.h"
#include "core/handoff_policy.h"
#include "net/backhaul.h"
#include "net/fault_injector.h"
#include "net/packet.h"
#include "obs/context.h"
#include "phy/csi.h"
#include "sim/scheduler.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/stats.h"

namespace wgtt::core {

struct ControllerConfig {
  Time selection_window = Time::ms(10);   // W (Fig. 21: 10 ms is optimal)
  Time switch_hysteresis = Time::ms(40);  // T (Fig. 22 sweeps 40-120 ms)
  Time ack_timeout = Time::ms(30);        // stop retransmission timer
  Time selection_period = Time::ms(2);    // how often selection runs
  /// Require the challenger's median ESNR to beat the incumbent's by this
  /// much (dB) — 0 reproduces the paper's plain argmax.
  double switch_margin_db = 0.0;
  /// Minimum CSI readings from an AP before it is eligible for selection.
  std::size_t min_readings = 2;
  /// Ablation: select on the newest reading instead of the window median.
  bool use_latest_reading = false;
  /// Ablation: send each downlink packet only to the active AP instead of
  /// fanning out to every in-range AP — removes the pre-placed backlog the
  /// start(c, k) handover depends on.
  bool fanout_active_only = false;

  // -- fault tolerance (armed only when a net::FaultInjector is installed;
  //    fault-free runs never evaluate any of these) ------------------------
  /// AP heartbeat cadence; must be <= the CSI report cadence so liveness
  /// reacts no slower than selection data goes stale.
  Time heartbeat_period = Time::ms(10);
  /// Consecutive missed heartbeats before an AP is marked suspect.
  std::size_t liveness_misses = 3;
  /// Quarantine backoff for a flapping AP: base * 2^(flaps-1), capped.
  Time quarantine_base = Time::ms(200);
  Time quarantine_cap = Time::sec(5);
  /// Bounded control-message retries: every switch but a fault-free
  /// stop-start one (which retransmits its stop until acked, §3.1.2) is
  /// abandoned after this many retransmissions instead of retrying forever
  /// into a dead AP.
  std::size_t max_control_retries = 4;
  /// Consecutive CSI reports from one (client, AP) pair carrying the same
  /// measurement time — replays of one stale measurement — before the AP's
  /// CSI is considered frozen and excluded from selection.  A fresh report
  /// of a static channel repeats its ESNR but carries a new time.
  std::size_t stale_csi_repeats = 8;

  // -- handoff policy ------------------------------------------------------
  /// Which HandoffPolicy answers the per-client keep/switch/defer question.
  /// The default reproduces the paper's median-ESNR algorithm byte for byte.
  PolicySpec policy{};
  /// Roadside AP sites for trajectory-predicting policies.  Filled by the
  /// scenario layer from the testbed geometry; empty in bare unit tests.
  std::vector<ApSite> ap_sites{};
};

struct SwitchRecord {
  Time initiated;
  Time completed;
  net::NodeId client = 0;
  net::NodeId from_ap = 0;
  net::NodeId to_ap = 0;
  unsigned stop_retransmissions = 0;
  /// Protocol identity of the completed switch (hardened runs; 0/0 in
  /// fault-free runs).  The protocol fuzzer asserts (epoch, switch_id) is
  /// non-decreasing per client across this log.
  std::uint32_t switch_id = 0;
  std::uint32_t epoch = 0;
};

struct ControllerStats {
  std::uint64_t csi_reports = 0;
  std::uint64_t downlink_packets = 0;
  std::uint64_t downlink_copies = 0;     // fan-out multiplicity total
  std::uint64_t uplink_packets = 0;      // after de-duplication
  std::uint64_t uplink_duplicates = 0;
  std::uint64_t switches_initiated = 0;
  std::uint64_t switches_completed = 0;
  std::uint64_t stop_retransmissions = 0;
  SampleSet switch_latency_ms;           // stop sent -> ack received
  // Fault tolerance (all zero without an installed FaultInjector):
  std::uint64_t heartbeats_received = 0;
  std::uint64_t liveness_suspects = 0;     // live -> suspect transitions
  std::uint64_t liveness_failovers = 0;    // switches initiated off dead APs
  std::uint64_t liveness_quarantines = 0;  // flapping APs put in backoff
  std::uint64_t abandoned_switches = 0;    // control retries exhausted
  std::uint64_t stale_csi_exclusions = 0;  // frozen-CSI selection vetoes
  // Handoff-policy extensions (all zero under the default median policy):
  std::uint64_t prearm_copies = 0;         // extra fan-out to pre-armed APs
  std::uint64_t direct_starts = 0;         // start-first switch initiations
  std::uint64_t quench_stops = 0;          // post-ack incumbent quenches
  std::uint64_t bicast_windows = 0;        // overlap windows opened
  std::uint64_t quenches_skipped = 0;      // stale quenches suppressed
  // Control-plane hardening (all zero without an installed FaultInjector):
  std::uint64_t dup_frames_suppressed = 0;  // adversarial duplicates dropped
  std::uint64_t stale_acks = 0;             // fenced-off SwitchAckMsgs
  std::uint64_t ctrl_crashes = 0;           // injected controller crashes
  std::uint64_t ctrl_restarts = 0;          // warm restarts completed
  std::uint64_t resync_rounds = 0;          // resync requests broadcast
  std::uint64_t resync_reports = 0;         // AP state reports consumed
  std::uint64_t stale_resyncs = 0;          // reports from an older epoch
  std::uint64_t resync_adoptions = 0;       // active claims adopted
  std::uint64_t resync_readoptions = 0;     // orphans re-homed post-restart
  std::uint64_t resync_conflicts = 0;       // dual-claim quenches issued
};

class WgttController {
 public:
  WgttController(sim::Scheduler& sched, net::Backhaul& backhaul,
                 std::vector<net::NodeId> ap_ids, ControllerConfig cfg = {});

  /// Wired-side egress: de-duplicated uplink packets (to the server stack).
  std::function<void(net::PacketPtr)> on_uplink;
  /// Fired on every completed switch (metrics hooks).
  std::function<void(const SwitchRecord&)> on_switch;

  /// Wired-side ingress: a downlink packet for `client` from the servers.
  void send_downlink(net::NodeId client, net::PacketPtr pkt);

  /// AP currently serving the client (0 if none yet).
  net::NodeId active_ap(net::NodeId client) const;

  /// Out-of-band CSI injection: the 802.11k-style scan-report path used by
  /// the multi-channel extension, where APs on other channels cannot hear
  /// the client directly.  Equivalent to receiving a CsiReportMsg.
  void inject_csi(net::NodeId ap, net::NodeId client, const phy::Csi& csi);
  /// Median-ESNR table for a client (diagnostics / AP-selection tests).
  std::optional<double> median_esnr(net::NodeId client, net::NodeId ap) const;

  /// Kinematics feed for trajectory-predicting policies: sampled on demand
  /// during the selection pass.  Plain doubles, so the scenario layer can
  /// adapt any channel::MobilityModel without a core -> channel dependency.
  using MobilityProvider = std::function<MobilityHint(Time)>;
  void set_mobility_provider(net::NodeId client, MobilityProvider provider) {
    mobility_[client] = std::move(provider);
  }

  const ControllerStats& stats() const { return stats_; }
  const std::vector<SwitchRecord>& switch_log() const { return switch_log_; }
  const ControllerConfig& config() const { return cfg_; }
  /// Current fencing epoch (1 until the first warm restart bumps it).
  std::uint32_t epoch() const { return epoch_; }
  /// True while an injected ctrl_crash fault holds the controller down.
  bool crashed() const { return ctrl_down_; }
  /// True while a stop/start/ack handshake is outstanding for `client`
  /// (the scenario layer's dual-active probe excludes these transitions).
  bool switch_in_flight(net::NodeId client) const {
    auto it = clients_.find(client);
    return it != clients_.end() && it->second.switch_in_flight;
  }

 private:
  /// The last CSI report from one (client, AP) pair.
  struct LastReport {
    /// The report's SNRs and their selection ESNR, reused while the next
    /// report's SNRs repeat these bit for bit.
    std::array<double, phy::kNumSubcarriers> snr_db{};
    double esnr = 0.0;
    Time measured_at;
    /// Frozen-CSI detector (stale-CSI defense; read only by fault-aware
    /// selection): consecutive reports of one measurement time.
    std::size_t repeats = 0;
  };

  struct ClientState {
    net::NodeId active_ap = 0;
    std::unique_ptr<MedianEsnrSelector> selector;  // per-client windows
    std::unique_ptr<HandoffPolicy> policy;         // per-client instance
    std::uint32_t next_index = 0;     // cyclic downlink index counter
    Time last_switch = Time::zero();  // hysteresis anchor
    // Switch FSM: at most one outstanding switch per client (§3.1.2 fn. 2).
    bool switch_in_flight = false;
    std::uint32_t switch_id = 0;
    net::NodeId switch_target = 0;
    Time switch_started;
    unsigned stop_retx = 0;
    sim::EventId retx_event;
    bool failover_in_flight = false;  // current switch is a liveness failover
    /// How the in-flight switch hands over (policy-chosen; §3.1.2 default).
    SwitchStyle switch_style = SwitchStyle::kStopStart;
    Time bicast_hold;                 // incumbent overlap (kBicast only)
    /// Extra fan-out target requested by the policy (0 = none).
    net::NodeId prearm_ap = 0;
    /// Causal id of the event that initiated the in-flight switch — the key
    /// the ctrl.switch_start/done trace flow events pair on (causal only).
    std::uint64_t causal_start_ev = 0;
    std::map<net::NodeId, LastReport> last_report;  // by AP
    /// Per-client ActiveApMsg broadcast version (hardened runs only).
    std::uint32_t active_version = 0;
    /// The client is known-associated (join or resync report) — a client
    /// with associated && active_ap == 0 is an orphan the liveness tick
    /// re-adopts after a warm restart.
    bool associated = false;
  };

  /// Liveness monitor state per AP (fault tolerance; only maintained when a
  /// FaultInjector is installed).
  struct ApHealth {
    enum class State { kLive, kSuspect, kQuarantine };
    State state = State::kLive;
    Time last_heartbeat = Time::zero();
    bool heard = false;            // at least one heartbeat ever received
    std::uint32_t flaps = 0;       // suspect transitions (backoff exponent)
    Time quarantined_until = Time::zero();
  };

  void on_backhaul_frame(const net::TunneledPacket& frame);
  void handle_csi_report(const CsiReportMsg& msg);
  void handle_switch_ack(const SwitchAckMsg& msg);
  void handle_client_joined(const ClientJoinedMsg& msg);
  void handle_uplink_data(net::PacketPtr pkt, net::NodeId from_ap);
  void handle_heartbeat(const HeartbeatMsg& msg);
  void handle_resync_report(const ResyncReportMsg& msg);

  // -- warm restart (ctrl_crash faults; injector-armed runs only) ----------
  void on_ctrl_fault(bool down);
  void broadcast_resync_request();
  /// Ack-timeout with exponential backoff on hardened runs (fault-free runs
  /// keep the paper's flat 30 ms cadence, part of the golden timing).
  Time retx_timeout(unsigned retx) const;

  // -- liveness / failover (no-ops unless a FaultInjector is installed) ----
  void liveness_tick();
  bool ap_live(net::NodeId ap) const;
  /// Selection with degraded candidates excluded: suspect/quarantined APs
  /// and APs whose CSI for this client looks frozen.
  net::NodeId select_live(const ClientState& st, net::NodeId client, Time now);
  bool csi_frozen(const ClientState& st, net::NodeId ap) const;
  void attempt_failover(net::NodeId client, ClientState& st, Time now,
                        DecisionReason reason = DecisionReason::kApSuspect);
  Time quarantine_for(std::uint32_t flaps) const;
  void log_liveness(net::NodeId ap, const char* event, std::uint32_t flaps,
                    Time quarantine);

  /// PolicyEnv adapter handed to HandoffPolicy::decide (defined in the
  /// .cpp): binds the controller's liveness view and mobility providers to
  /// one (client, pass).
  struct PolicyEnvImpl;

  void run_selection();
  void log_decision(net::NodeId client, const ClientState& st, Time now,
                    DecisionOutcome outcome, DecisionReason reason,
                    net::NodeId chosen, Time hysteresis_remaining);
  /// Open a switch of `client` to `target`, from a policy decision or (with
  /// `failover`) off a dead incumbent: set the switch FSM, write the
  /// switch_start records and send the switch's first message.
  void begin_switch(net::NodeId client, ClientState& st, net::NodeId target,
                    SwitchStyle style, Time bicast_hold, bool failover);
  /// Send the in-flight switch's stop(c) to the incumbent, or, for
  /// start-first styles and failovers, start(c, resume-from-head) to the
  /// target; then arm the ack timeout.
  void send_switch(net::NodeId client, ClientState& st);
  /// The in-flight switch's ack did not arrive in time: retransmit, or
  /// abandon the switch (the retry rule).
  void on_ack_timeout(net::NodeId client);
  /// Tell `ap` to stop transmitting to `client` with no handover relay (the
  /// successor is already active).
  void send_quench(net::NodeId ap, net::NodeId client, net::NodeId new_ap,
                   std::uint32_t switch_id);
  void broadcast_active(net::NodeId client, net::NodeId ap, bool bootstrap,
                        bool overlap = false);
  ClientState& client_state(net::NodeId client);
  /// The fencing epoch control messages carry (0, unfenced, on fault-free
  /// runs).
  std::uint32_t fence_epoch() const {
    return injector_ != nullptr ? epoch_ : 0;
  }
  void send_to(net::NodeId dst, net::Packet fields);

  sim::Scheduler& sched_;
  net::Backhaul& backhaul_;
  std::vector<net::NodeId> ap_ids_;
  ControllerConfig cfg_;
  std::map<net::NodeId, ClientState> clients_;
  std::map<net::NodeId, MobilityProvider> mobility_;
  Deduplicator dedup_;
  std::uint32_t next_switch_id_ = 1;
  // Hardened control plane (inert without an installed FaultInjector: no
  // sequence numbers are stamped and no fences are evaluated).
  ControlSequencer ctrl_seq_;
  ControlDedup ctrl_dedup_;
  std::uint32_t epoch_ = 1;   // bumped by each warm restart
  bool ctrl_down_ = false;    // a ctrl_crash fault currently holds us down
  ControllerStats stats_;
  std::vector<SwitchRecord> switch_log_;
  // Liveness monitor (populated only when a FaultInjector is installed;
  // empty otherwise, so fault-free runs never touch it).
  std::map<net::NodeId, ApHealth> ap_health_;
  net::FaultInjector* injector_ = nullptr;
  // Instrumentation (null when the sim has no metrics/trace context).
  metrics::Counter* m_switches_ = nullptr;
  metrics::Counter* m_dedup_hits_ = nullptr;
  metrics::Histogram* m_switch_latency_ms_ = nullptr;
  // Liveness instruments (created only when a FaultInjector is installed,
  // keeping the fault-free metrics snapshot byte-identical).
  metrics::Counter* m_suspects_ = nullptr;
  metrics::Counter* m_failovers_ = nullptr;
  metrics::Counter* m_quarantines_ = nullptr;
  metrics::Gauge* m_live_aps_ = nullptr;
  // Protocol-hardening instruments (injector-armed runs only).  The dup /
  // stale counters are shared with the APs via the registry's get-or-create
  // naming, so one counter totals each phenomenon across the control plane.
  metrics::Counter* m_dup_suppressed_ = nullptr;
  metrics::Counter* m_stale_rejected_ = nullptr;
  metrics::Counter* m_stale_acks_ = nullptr;
  metrics::Counter* m_retries_ = nullptr;
  metrics::Counter* m_resyncs_ = nullptr;
  obs::Context obs_ = obs::Context::current();
  prof::Section* p_selection_ = nullptr;
  prof::Section* p_csi_ = nullptr;
};

}  // namespace wgtt::core
