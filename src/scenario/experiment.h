// Turn-key drive-through experiments.
//
// run_drive() builds the full testbed, overlays WGTT or the Enhanced/stock
// 802.11r baseline, attaches the requested traffic workload to one or more
// mobile clients, runs the discrete-event simulation for a whole transit,
// and returns every metric the paper's evaluation plots: per-client
// throughput (total and binned), UDP loss, AP-association timelines,
// ground-truth switching accuracy, link bit-rate samples, TCP stats, and
// the controller's switch log.  All bench binaries are thin wrappers over
// this entry point.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/wgtt_controller.h"
#include "scenario/metrics.h"
#include "scenario/testbed.h"
#include "util/metrics.h"

namespace wgtt::scenario {

enum class SystemType {
  kWgtt,
  kEnhanced80211r,  // the paper's §5.1 comparison scheme
  kStock80211r,     // §2: 5-second RSSI history before any decision
};

enum class TrafficType {
  kTcpDownlink,
  kUdpDownlink,
  kUdpUplink,
};

enum class MultiClientPattern {
  kFollowing,  // same lane, 3 m gaps (Fig. 19a)
  kParallel,   // adjacent lanes, abreast (Fig. 19b)
  kOpposing,   // opposite directions (Fig. 19c)
};

struct DriveScenarioConfig {
  SystemType system = SystemType::kWgtt;
  TrafficType traffic = TrafficType::kTcpDownlink;
  double speed_mph = 15.0;
  std::size_t num_clients = 1;
  MultiClientPattern pattern = MultiClientPattern::kFollowing;
  double following_gap_m = 3.0;
  double lane_width_m = 3.0;
  double udp_offered_mbps = 15.0;
  /// Shuttle mode (soak runs): clients drive back and forth over the whole
  /// deployment for the scenario duration instead of a single transit.
  /// The multi-client pattern still applies (following = staggered along
  /// the route, parallel = adjacent lanes, opposing = half a route apart).
  bool shuttle = false;
  /// 0 = run for one full transit (plus setup time).
  Time duration = Time::zero();
  Time app_start = Time::ms(500);
  bool record_seq_trace = false;  // per-packet (time, seq) points (Fig. 4)
  std::uint64_t seed = 1;
  TestbedConfig testbed{};
  WgttNetworkConfig wgtt{};
  BaselineNetworkConfig baseline{};
  transport::TcpConfig tcp{};
};

struct ClientDriveResult {
  net::NodeId client = 0;
  double goodput_mbps = 0.0;
  double udp_loss_rate = 0.0;
  double switching_accuracy = 0.0;
  std::vector<std::pair<Time, double>> throughput_bins;
  std::vector<DriveMetrics::TimelinePoint> timeline;
  std::vector<double> bitrate_samples;
  std::vector<std::pair<Time, double>> bitrate_series;
  std::vector<std::pair<Time, std::uint64_t>> seq_trace;
  transport::TcpStats tcp_stats;
  std::size_t handovers = 0;            // baseline reassociations
  std::size_t failed_handovers = 0;
};

struct DriveResult {
  std::vector<ClientDriveResult> clients;
  Time measured_duration;               // app_start .. end
  double medium_utilization = 0.0;
  // WGTT-only:
  std::vector<core::SwitchRecord> switches;
  std::uint64_t stop_retransmissions = 0;
  std::uint64_t uplink_duplicates_removed = 0;
  /// Downlink duplicates absorbed at the clients (nonzero only under
  /// start-first / bicast handoff policies).
  std::uint64_t downlink_duplicates_removed = 0;
  std::vector<double> switch_latencies_ms;
  /// Every instrument the sim recorded (empty when testbed.enable_metrics
  /// is false).  Exported into the bench reports' "metrics" section.
  metrics::Snapshot metrics;
  /// The sampled telemetry table (empty unless testbed.enable_telemetry is
  /// set).  run_drive wires the standard column set: per-client active AP,
  /// per-(client, AP) median ESNR, instantaneous goodput, TCP
  /// cwnd/retransmissions or UDP loss, and per-AP backlog.
  TelemetryTable telemetry;
  /// Chrome trace-event JSON (empty unless testbed.enable_trace is set).
  std::string trace_json;
  /// Controller decision audit log (JSONL; empty unless
  /// testbed.enable_decision_log is set).
  std::string decision_jsonl;
  std::uint64_t decision_records = 0;
  std::uint64_t decision_switch_records = 0;
  /// Per-packet flight-recorder log (JSONL; empty unless
  /// testbed.enable_packet_log is set).
  std::string packet_jsonl;
  std::uint64_t packet_records = 0;
  /// Causal event-graph stream (JSONL; empty unless testbed.enable_causal is
  /// set).
  std::string causal_jsonl;
  std::uint64_t causal_records = 0;
  /// Host self-time per instrumented section (empty when
  /// testbed.enable_profiler is false).  Exported as the reports' "profile"
  /// block.
  prof::ProfileSnapshot profile;
  /// Runtime health stream (JSONL; empty unless testbed.enable_health is
  /// set).  run_drive finalizes the engine before collecting so the summary
  /// line is included.
  std::string health_jsonl;
  std::uint64_t health_windows = 0;
  std::uint64_t health_checks = 0;
  std::uint64_t health_violations = 0;
  /// Violations with severity "error" (a strict run fails on these).
  std::uint64_t health_errors = 0;
  /// Final packet-conservation balance (sent + copies - delivered -
  /// retired - dropped); small and non-negative in a healthy run.
  std::int64_t health_in_flight = 0;
  // Control-plane convergence (populated only on fault-injected WGTT runs).
  /// Clients two or more APs were still actively transmitting to at the end
  /// of the run (transient in-flight switches excluded) — the at-most-one
  /// transmitter invariant; must be empty after convergence.
  std::vector<net::NodeId> dual_active_clients;
  /// Client outage windows the health engine ledgered (closed + open).
  std::uint64_t outages = 0;
  /// Clients still stranded when the run ended (open outage windows).
  std::uint64_t unconverged_clients = 0;
  /// Longest single outage window (ms).
  double longest_outage_ms = 0.0;

  double mean_goodput_mbps() const {
    if (clients.empty()) return 0.0;
    double s = 0.0;
    for (const auto& c : clients) s += c.goodput_mbps;
    return s / static_cast<double>(clients.size());
  }
};

DriveResult run_drive(const DriveScenarioConfig& cfg);

}  // namespace wgtt::scenario
