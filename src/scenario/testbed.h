// Testbed construction: the eight-AP roadside deployment of paper §4
// (Fig. 9), with a dense cluster (AP2-AP4 at 7.5 m spacing) and a sparse
// stretch (AP5-AP7 at 12 m) so the Fig. 23 density experiment has both
// regimes, plus the radio calibration that produces meter-scale picocells
// with 6-10 m coverage overlap.
//
// `Testbed` owns the substrate (scheduler, channel, medium, backhaul, MAC
// context, radios) and the simulation's observers.  `WgttNetwork` /
// `BaselineNetwork` overlay the two systems under test on a shared
// `NetworkOverlay`, whose flow-wiring helpers let experiments read like the
// paper's methodology section.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "apps/conference.h"
#include "apps/web_browse.h"
#include "baseline/enhanced_80211r.h"
#include "channel/channel_model.h"
#include "core/decision_log.h"
#include "core/wgtt_ap.h"
#include "core/wgtt_controller.h"
#include "mac/medium.h"
#include "mac/wifi_device.h"
#include "net/backhaul.h"
#include "net/fault_injector.h"
#include "net/flight_recorder.h"
#include "obs/context.h"
#include "scenario/telemetry.h"
#include "sim/fault_plan.h"
#include "sim/scheduler.h"
#include "transport/tcp_connection.h"
#include "transport/udp_flow.h"
#include "util/causal.h"
#include "util/health.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/trace.h"

namespace wgtt::scenario {

/// The shared virtual BSSID all WGTT APs advertise (§4.3).
constexpr net::NodeId kWgttBssid = 90;
constexpr net::NodeId kServerId = net::kServerBase;

struct TestbedConfig {
  /// AP x positions along the road (m).  Default: the 8-AP layout with the
  /// dense AP2-AP4 cluster and sparse AP5-AP7 stretch.
  std::vector<double> ap_x = {0.0, 7.5, 15.0, 22.5, 34.0, 46.0, 58.0, 65.5};
  double ap_y = 15.0;      // perpendicular distance building -> road (m)
  double ap_z = 8.0;       // third floor
  double client_z = 1.5;   // car-mounted antenna
  double lane_y = 0.0;     // default driving lane
  /// Radio calibration: TP-Link through a splitter-combiner into the Laird
  /// antenna, chosen so each AP yields a meter-scale picocell — high MCS
  /// inside the 21-degree main lobe (~±6 m on the road), marginal in the
  /// side lobes, dead beyond ~25 m — with 6-10 m overlap between adjacent
  /// cells, matching the paper's Figs. 9/10.
  channel::RadioConfig radio{.ap_tx_power_dbm = 18.0,
                             .client_tx_power_dbm = 20.0,
                             .ap_system_loss_db = 35.0};
  channel::PathLossConfig pathloss{.exponent = 2.9};
  channel::ShadowingConfig shadowing{};
  channel::FadingConfig fading{};
  double antenna_peak_dbi = 14.0;
  double antenna_hpbw_deg = 21.0;
  double antenna_side_lobe_db = 32.0;
  double client_antenna_dbi = 2.0;
  mac::AirtimeConfig airtime{};
  mac::MediumConfig medium{};
  phy::ErrorModelConfig error_model{};
  net::BackhaulConfig backhaul{};
  Time wan_latency = Time::ms(2);  // content cached at the local server (§5.4)
  Time client_keepalive = Time::ms(4);
  std::uint64_t seed = 1;
  /// Per-sim log destination.  When set, the Testbed installs it as the
  /// constructing thread's current sink for its whole lifetime, so
  /// concurrent simulations on different threads log independently.  Null
  /// inherits whatever sink is already current (ultimately the process-wide
  /// default).
  std::shared_ptr<LogSink> log_sink{};
  /// The observer switches below each create one sink of the simulation's
  /// obs::Context (obs/context.h), which the Testbed installs on the
  /// constructing thread for its lifetime.  Observers only observe: turning
  /// any of them on or off never changes the simulation or another stream.
  /// A stream leaves the run in memory, through run_drive's DriveResult (or
  /// the sink itself while the Testbed lives); the Testbed writes no files.
  ///
  /// Per-sim instrumentation: a MetricsRegistry whose typed instruments
  /// components cache at construction (a single branch per site when off).
  bool enable_metrics = true;
  /// Chrome trace-event JSON of the run (chrome://tracing / Perfetto).
  bool enable_trace = false;
  /// Host-time profiler: instrumented hot paths (scheduler dispatch, channel
  /// CSI synthesis, MAC exchanges, PHY rate selection, controller passes)
  /// accumulate exclusive self-time that lands in the bench report's
  /// "profile" block.  Measures host wall-clock only — it never touches the
  /// simulated clock.
  bool enable_profiler = true;
  /// Controller decision audit log (JSONL, one record per AP-selection
  /// evaluation).
  bool enable_decision_log = false;
  /// Periodic telemetry sampling (columnar CSV on the simulated clock).
  /// Experiments register the probe columns (run_drive wires the standard
  /// set).
  bool enable_telemetry = false;
  Time telemetry_period = Time::ms(100);
  /// Per-packet flight recorder (JSONL, one record per lifecycle hop of a
  /// sampled set of data packets).  packet_sample records 1-in-N data
  /// packets by seeded uid hash.
  bool enable_packet_log = false;
  std::uint32_t packet_sample = 1;
  /// Deterministic infrastructure fault schedule (chaos testing).  When
  /// non-empty the Testbed owns a net::FaultInjector driven by a dedicated
  /// RNG stream forked from `seed`, and installs it as the constructing
  /// thread's current injector; components then arm their
  /// degradation paths (heartbeats, liveness monitoring, failover).  When
  /// empty — the default — no injector exists, nothing extra is scheduled,
  /// and runs are byte-identical to builds without this feature.
  sim::FaultPlan faults{};
  /// Causal event-graph tracing (util/causal.h): the scheduler records a
  /// parent edge for every scheduled event and ~enough semantic annotation
  /// sites to attribute switch latency per layer.  Off — the default —
  /// every other output stream is byte-identical to builds without this
  /// feature.  Per-packet annotation
  /// sites sample 1-in-causal_sample data packets with the flight
  /// recorder's seeded uid hash, so at equal sampling rates the two
  /// streams cover the same packets; edges and switch/control annotations
  /// are never sampled away.
  bool enable_causal = false;
  std::uint32_t causal_sample = 1;
  /// Runtime health engine (streaming windowed telemetry + invariant
  /// watchdogs; see util/health.h).  The engine only observes — the
  /// simulation and every other output stream stay byte-identical with
  /// health on or off.
  bool enable_health = false;
  /// Rollup window on the simulated clock.
  Time health_window = Time::sec(1);
  /// Arms the in-flight ceiling watchdog when nonzero (conservation —
  /// in_flight >= 0 — is always checked).
  std::uint64_t health_max_in_flight = 0;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig cfg = {});
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Scheduler& sched() { return sched_; }
  channel::ChannelModel& channel() { return *channel_; }
  const phy::ErrorModel& error_model() const { return error_model_; }
  mac::Medium& medium() { return *medium_; }
  mac::MacContext& mac() { return *mac_; }
  net::Backhaul& backhaul() { return *backhaul_; }
  const TestbedConfig& config() const { return cfg_; }
  const std::vector<net::NodeId>& ap_ids() const { return ap_ids_; }
  /// This simulation's observers (a null sink is off).
  const obs::Context& obs() const { return obs_; }
  /// Flattened copy of every instrument; empty when metrics are disabled.
  metrics::Snapshot metrics_snapshot() const;
  /// Per-section host self-time; empty when profiling is disabled.
  prof::ProfileSnapshot profile_snapshot() const;
  net::FaultInjector* fault_injector() { return fault_injector_.get(); }
  /// Periodic telemetry sampler (null unless telemetry is enabled).
  TelemetrySampler* telemetry() { return telemetry_.get(); }

  /// Create an AP radio (called by the network overlays).
  mac::WifiDevice& create_ap_device(net::NodeId id,
                                    mac::WifiDeviceConfig dev_cfg);
  /// Create a client radio bound to a mobility trace.
  net::NodeId add_client(std::shared_ptr<const channel::MobilityModel> mob,
                         net::NodeId bssid);
  mac::WifiDevice& client_device(net::NodeId id);
  mac::WifiDevice& ap_device(net::NodeId id);
  const std::vector<net::NodeId>& client_ids() const { return client_ids_; }

  /// Convenience: mobility for a straight drive down the road at `mph`,
  /// entering `lead_in_m` before the first AP.  Direction +1 / -1.
  std::shared_ptr<channel::MobilityModel> drive_mobility(
      double mph, double lead_in_m = 15.0, double lane_y_offset = 0.0,
      int direction = +1, double start_offset_m = 0.0) const;
  /// Road x-extent of the AP deployment.
  double road_length() const;
  /// Time for a drive-through at `mph` incl. lead-in/out.
  Time transit_duration(double mph, double lead_in_m = 15.0) const;

 private:
  /// Periodic health-window close (read-only: touches no RNG stream, no
  /// tracer, no recorder — so enabling health never perturbs the run).
  void health_tick();
  // Members construct in declaration order: the log sink and the observer
  // sinks first, then the context that names them (installed before any
  // component exists), then the scheduler and everything built on it.
  std::shared_ptr<LogSink> log_sink_;
  ScopedLogSink log_scope_;
  TestbedConfig cfg_;
  std::unique_ptr<metrics::MetricsRegistry> metrics_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<prof::Profiler> profiler_;
  std::unique_ptr<core::DecisionLog> decision_log_;
  std::unique_ptr<net::FlightRecorder> flight_recorder_;
  std::unique_ptr<obs::HealthEngine> health_engine_;
  std::unique_ptr<obs::CausalTracer> causal_tracer_;
  obs::Context obs_;
  obs::ScopedContext obs_scope_;
  // Per-sim packet uids (always installed: parallel sweep workers sharing a
  // process-global counter would make uids — and therefore flight-recorder
  // output — depend on thread interleaving).
  net::PacketUidAllocator uid_alloc_;
  net::ScopedPacketUidAllocator uid_scope_;
  // Per-sim packet-node freelist (recycles make_packet allocations; affects
  // only where nodes live in memory, never their contents or uids).
  net::PacketPool packet_pool_;
  net::ScopedPacketPool packet_pool_scope_;
  sim::Scheduler sched_;
  // After sched_ (schedules its fault events at construction), before every
  // component that caches FaultInjector::current().
  std::unique_ptr<net::FaultInjector> fault_injector_;
  net::ScopedFaultInjector fault_scope_;
  std::unique_ptr<TelemetrySampler> telemetry_;  // after sched_: holds a ref
  Rng rng_;
  phy::ErrorModel error_model_;
  std::unique_ptr<channel::ChannelModel> channel_;
  std::unique_ptr<mac::Medium> medium_;
  std::unique_ptr<mac::MacContext> mac_;
  std::unique_ptr<net::Backhaul> backhaul_;
  std::vector<net::NodeId> ap_ids_;
  std::vector<net::NodeId> client_ids_;
  std::map<net::NodeId, std::unique_ptr<mac::WifiDevice>> devices_;
  net::NodeId next_client_ = net::kClientBase;
};

// ---------------------------------------------------------------------------
// Flow routing and wiring shared by both network overlays
// ---------------------------------------------------------------------------

class FlowRouter {
 public:
  using Handler = std::function<void(const net::PacketPtr&)>;
  explicit FlowRouter(sim::Scheduler* sched = nullptr) : sched_(sched) {
    if (auto* reg = obs_.metrics) {
      m_dropped_ = &reg->counter("net.flow_router_drops");
    }
  }
  void register_flow(std::uint32_t flow_id, Handler h) {
    handlers_[flow_id] = std::move(h);
  }
  void deliver(const net::PacketPtr& pkt) {
    auto it = handlers_.find(pkt->flow_id);
    if (it == handlers_.end()) {
      ++dropped_;
      if (m_dropped_) m_dropped_->add();
      if (sched_ != nullptr) {
        obs_.drop(*pkt, sched_->now(), net::Hop::kTransportDrop, pkt->dst,
                  net::DropCause::kNoFlowHandler, {{"flow", pkt->flow_id}});
      }
      WGTT_LOG(kDebug, "flow",
               "no handler for flow " << pkt->flow_id << ", dropping "
                                      << net::to_string(pkt->type) << " "
                                      << pkt->src << "->" << pkt->dst);
      return;
    }
    it->second(pkt);
  }
  /// Packets delivered to a flow_id nobody registered — a miswired
  /// experiment if nonzero.
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::map<std::uint32_t, Handler> handlers_;
  std::uint64_t dropped_ = 0;
  obs::Context obs_ = obs::Context::current();
  metrics::Counter* m_dropped_ = nullptr;
  sim::Scheduler* sched_ = nullptr;
};

/// What the WGTT and Enhanced 802.11r overlays share: client-side uplink
/// injection, the two FlowRouters, and the flow-wiring helpers that connect
/// transport endpoints and apps to them.  The overlays differ only in how
/// the wired server's downlink reaches the APs.
class NetworkOverlay {
 public:
  virtual ~NetworkOverlay() = default;
  NetworkOverlay(const NetworkOverlay&) = delete;
  NetworkOverlay& operator=(const NetworkOverlay&) = delete;

  /// Inject an uplink packet at the client radio.
  void client_uplink(net::NodeId client, net::PacketPtr pkt);
  /// Inject a downlink packet at the wired server (adds WAN latency).
  virtual void server_downlink(net::NodeId client, net::PacketPtr pkt) = 0;

  // -- flow wiring -------------------------------------------------------
  void wire_tcp_downlink(transport::TcpConnection& conn);
  void wire_udp_downlink(transport::UdpSender& sender,
                         transport::UdpReceiver& receiver,
                         net::NodeId client);
  void wire_udp_uplink(transport::UdpSender& sender,
                       transport::UdpReceiver& receiver, net::NodeId client);
  void wire_conference_downlink(apps::ConferenceApp& app, net::NodeId client);
  void wire_conference_uplink(apps::ConferenceApp& app, net::NodeId client);
  void wire_web_browse(apps::WebBrowseApp& app, net::NodeId client);

 protected:
  explicit NetworkOverlay(Testbed& bed);

  Testbed& bed_;
  obs::Context obs_ = obs::Context::current();
  FlowRouter client_rx_;
  FlowRouter server_rx_;
};

// ---------------------------------------------------------------------------
// WGTT overlay
// ---------------------------------------------------------------------------

enum class RateControlKind {
  kMinstrel,  // the testbed default (stock Atheros rate control)
  kEsnr,      // channel-aware: select from the freshest CSI-derived ESNR
};

struct WgttNetworkConfig {
  core::ControllerConfig controller{};
  Time control_processing = Time::ms(5.5);
  Time control_jitter = Time::ms(6);
  Time ioctl_delay = Time::ms(2.5);
  Time ba_completion_grace = Time::ms(1);
  core::QueueStackConfig stack{};
  bool enable_ba_forwarding = true;              // ablation knob
  Time nic_drain_window = Time::ms(8);           // old-AP quench deadline
  RateControlKind rate_control = RateControlKind::kMinstrel;
  /// Multi-channel extension (paper §7): channel plan applied round-robin
  /// across APs (empty = the prototype's single channel 11).  Clients
  /// retune to the new AP's channel when a switch completes (a short deaf
  /// period), and an 802.11k-style scan report gives the controller coarse
  /// 100 ms-cadence ESNR for APs on other channels.
  std::vector<unsigned> ap_channels{};
  Time client_retune_pause = Time::ms(3);
  Time scan_report_period = Time::ms(100);
};

class WgttNetwork : public NetworkOverlay {
 public:
  WgttNetwork(Testbed& bed, WgttNetworkConfig cfg = {});

  core::WgttController& controller() { return *controller_; }
  core::WgttAp& ap(net::NodeId id);

  /// Create a client driving on `mob` and schedule its association.
  net::NodeId add_client(std::shared_ptr<const channel::MobilityModel> mob,
                         Time associate_at = Time::ms(250));

  void server_downlink(net::NodeId client, net::PacketPtr pkt) override;

  /// Channel the AP with this id operates on.
  unsigned ap_channel(net::NodeId ap) const;
  bool multi_channel() const { return !cfg_.ap_channels.empty(); }
  /// Downlink duplicates absorbed at the clients (start-first / bicast
  /// policies interpose a per-client Deduplicator; 0 for stop-start).
  std::uint64_t client_duplicates_removed() const;
  /// At-most-one-transmitter probe: clients that more than one AP is
  /// actively transmitting to right now, excluding clients whose switch
  /// handshake is still in flight (stop-start relays and declared overlap
  /// windows legitimately pass through two-transmitter states).  Must be
  /// empty once a chaos run has converged; the protocol fuzzer asserts it.
  std::vector<net::NodeId> dual_active_clients() const;

 private:
  void retry_associate(net::NodeId client);
  /// 802.11k-style background scan: inject coarse CSI for APs the client's
  /// current channel cannot hear (multi-channel mode only).
  void scan_tick(net::NodeId client);

  WgttNetworkConfig cfg_;
  std::unique_ptr<core::WgttController> controller_;
  std::map<net::NodeId, std::unique_ptr<core::WgttAp>> aps_;
  /// Client-side downlink dedup (only populated when the configured policy
  /// intentionally duplicates: make_before_break / bicast overlap windows).
  std::map<net::NodeId, std::shared_ptr<core::Deduplicator>> client_dedups_;
  metrics::Counter* m_client_dedup_ = nullptr;
};

// ---------------------------------------------------------------------------
// Enhanced 802.11r overlay
// ---------------------------------------------------------------------------

struct BaselineNetworkConfig {
  baseline::RoamingConfig roaming{};
  baseline::BaselineApConfig ap_template{};
  Time distribution_relearn = Time::ms(15);
};

class BaselineNetwork : public NetworkOverlay {
 public:
  BaselineNetwork(Testbed& bed, BaselineNetworkConfig cfg = {});

  baseline::Distribution& distribution() { return *distribution_; }
  baseline::RoamingClient& roaming(net::NodeId client);

  net::NodeId add_client(std::shared_ptr<const channel::MobilityModel> mob);

  void server_downlink(net::NodeId client, net::PacketPtr pkt) override;

 private:
  BaselineNetworkConfig cfg_;
  std::unique_ptr<baseline::Distribution> distribution_;
  std::vector<std::unique_ptr<baseline::BaselineAp>> aps_;
  std::map<net::NodeId, std::unique_ptr<baseline::RoamingClient>> roaming_;
};

}  // namespace wgtt::scenario
