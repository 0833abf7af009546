#include "scenario/experiment.h"

#include <algorithm>
#include <memory>

#include "apps/bulk.h"
#include "util/units.h"

namespace wgtt::scenario {

namespace {

std::shared_ptr<channel::MobilityModel> shuttle_mobility(
    const Testbed& bed, const DriveScenarioConfig& cfg, std::size_t i) {
  const TestbedConfig& tb = bed.config();
  const auto [lo, hi] = std::minmax_element(tb.ap_x.begin(), tb.ap_x.end());
  const double lead = 15.0;
  double lane_off = 0.0;
  double phase = 0.0;
  switch (cfg.pattern) {
    case MultiClientPattern::kFollowing:
      phase = cfg.following_gap_m * static_cast<double>(i);
      break;
    case MultiClientPattern::kParallel:
      lane_off = cfg.lane_width_m * static_cast<double>(i);
      break;
    case MultiClientPattern::kOpposing:
      if (i % 2 == 1) {
        lane_off = cfg.lane_width_m;
        phase = (*hi - *lo) + 2.0 * lead;  // start the return leg
      }
      break;
  }
  const double y = tb.lane_y + lane_off;
  return std::make_shared<channel::PingPongMobility>(
      channel::Vec3{*lo - lead, y, tb.client_z},
      channel::Vec3{*hi + lead, y, tb.client_z}, mph_to_mps(cfg.speed_mph),
      phase);
}

std::shared_ptr<channel::MobilityModel> client_mobility(
    const Testbed& bed, const DriveScenarioConfig& cfg, std::size_t i) {
  if (cfg.shuttle) return shuttle_mobility(bed, cfg, i);
  switch (cfg.pattern) {
    case MultiClientPattern::kFollowing:
      return bed.drive_mobility(cfg.speed_mph, 15.0, 0.0, +1,
                                cfg.following_gap_m * static_cast<double>(i));
    case MultiClientPattern::kParallel:
      return bed.drive_mobility(cfg.speed_mph, 15.0,
                                cfg.lane_width_m * static_cast<double>(i), +1,
                                0.0);
    case MultiClientPattern::kOpposing:
      if (i % 2 == 0) {
        return bed.drive_mobility(cfg.speed_mph, 15.0, 0.0, +1, 0.0);
      }
      return bed.drive_mobility(cfg.speed_mph, 15.0, cfg.lane_width_m, -1,
                                0.0);
  }
  return bed.drive_mobility(cfg.speed_mph);
}

}  // namespace

DriveResult run_drive(const DriveScenarioConfig& cfg) {
  TestbedConfig tb = cfg.testbed;
  tb.seed = cfg.seed;
  Testbed bed(tb);

  const Time duration = cfg.duration > Time::zero()
                            ? cfg.duration
                            : bed.transit_duration(cfg.speed_mph) +
                                  cfg.app_start;

  // --- overlay the system under test --------------------------------------
  std::unique_ptr<WgttNetwork> wgtt;
  std::unique_ptr<BaselineNetwork> baseline;
  NetworkOverlay* net = nullptr;
  if (cfg.system == SystemType::kWgtt) {
    wgtt = std::make_unique<WgttNetwork>(bed, cfg.wgtt);
    net = wgtt.get();
  } else {
    BaselineNetworkConfig bcfg = cfg.baseline;
    if (cfg.system == SystemType::kStock80211r) {
      bcfg.roaming.stock_history_requirement = Time::sec(5);
    }
    baseline = std::make_unique<BaselineNetwork>(bed, bcfg);
    net = baseline.get();
  }

  // --- clients -------------------------------------------------------------
  std::vector<net::NodeId> clients;
  for (std::size_t i = 0; i < cfg.num_clients; ++i) {
    auto mob = client_mobility(bed, cfg, i);
    clients.push_back(wgtt ? wgtt->add_client(std::move(mob))
                           : baseline->add_client(std::move(mob)));
  }

  // --- workload ------------------------------------------------------------
  transport::IpIdAllocator ip_ids;
  std::vector<std::unique_ptr<apps::BulkTcpApp>> tcp_apps;
  std::vector<std::unique_ptr<apps::BulkUdpApp>> udp_apps;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const net::NodeId client = clients[i];
    const auto flow = static_cast<std::uint32_t>(100 + i);
    switch (cfg.traffic) {
      case TrafficType::kTcpDownlink: {
        auto app = std::make_unique<apps::BulkTcpApp>(
            bed.sched(), ip_ids, cfg.tcp, flow, kServerId, client);
        net->wire_tcp_downlink(app->connection());
        bed.sched().schedule_at(cfg.app_start,
                                [a = app.get()]() { a->start(); });
        tcp_apps.push_back(std::move(app));
        break;
      }
      case TrafficType::kUdpDownlink:
      case TrafficType::kUdpUplink: {
        const bool down = cfg.traffic == TrafficType::kUdpDownlink;
        transport::UdpFlowConfig ucfg;
        ucfg.flow_id = flow;
        ucfg.src = down ? kServerId : client;
        ucfg.dst = down ? client : kServerId;
        ucfg.offered_load_bps = cfg.udp_offered_mbps * 1e6;
        auto app = std::make_unique<apps::BulkUdpApp>(bed.sched(), ip_ids,
                                                      ucfg);
        if (cfg.record_seq_trace) app->receiver().enable_trace(true);
        if (down) {
          net->wire_udp_downlink(app->sender(), app->receiver(), client);
        } else {
          net->wire_udp_uplink(app->sender(), app->receiver(), client);
        }
        bed.sched().schedule_at(cfg.app_start,
                                [a = app.get()]() { a->start(); });
        udp_apps.push_back(std::move(app));
        break;
      }
    }
  }

  // --- instrumentation -----------------------------------------------------
  auto active_lookup = [&](net::NodeId client) -> net::NodeId {
    if (wgtt) return wgtt->controller().active_ap(client);
    return baseline->roaming(client).associated_ap();
  };
  DriveMetrics metrics(bed, active_lookup);
  for (net::NodeId c : clients) metrics.track_client(c);
  for (net::NodeId ap : bed.ap_ids()) {
    metrics.attach_bitrate_probe(bed.ap_device(ap));
  }
  bed.sched().schedule_at(cfg.app_start, [&metrics]() { metrics.start(); });

  // --- telemetry columns ---------------------------------------------------
  // Probes read live state owned by this frame (overlay, apps); they only
  // fire during run_until below, while everything they capture is alive.
  if (TelemetrySampler* tel = bed.telemetry()) {
    const double period_ns = static_cast<double>(tel->period().to_ns());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const net::NodeId client = clients[i];
      // Appended, not "c" + to_string(): GCC 12 at -O3 reads the operator+
      // form as an overlapping memcpy (-Wrestrict, a false positive).
      std::string prefix = "c";
      prefix += std::to_string(client);
      tel->add_column(prefix + ".ap", 0, [active_lookup, client]() {
        return static_cast<double>(active_lookup(client));
      });
      if (wgtt) {
        for (net::NodeId ap : bed.ap_ids()) {
          // The ESNR lookup table's floor (-30 dB) doubles as the
          // "no in-window readings" sentinel.
          tel->add_column(prefix + ".esnr_ap" + std::to_string(ap), 3,
                          [w = wgtt.get(), client, ap]() {
                            return w->controller()
                                .median_esnr(client, ap)
                                .value_or(-30.0);
                          });
        }
      }
      std::function<std::uint64_t()> bytes_now;
      if (cfg.traffic == TrafficType::kTcpDownlink) {
        auto* conn = &tcp_apps[i]->connection();
        bytes_now = [conn]() { return conn->delivered_bytes(); };
        tel->add_column(prefix + ".cwnd", 2,
                        [conn]() { return conn->cwnd_segments(); });
        tel->add_column(prefix + ".tcp_retx", 0, [conn]() {
          return static_cast<double>(conn->stats().retransmissions);
        });
      } else {
        auto* app = udp_apps[i].get();
        bytes_now = [app]() {
          return static_cast<std::uint64_t>(
              app->receiver().throughput().total_bytes());
        };
        tel->add_column(prefix + ".udp_loss", 4,
                        [app]() { return app->loss_rate(); });
      }
      auto prev = std::make_shared<std::uint64_t>(0);
      tel->add_column(prefix + ".goodput_mbps", 3,
                      [bytes_now, prev, period_ns]() {
                        const std::uint64_t b = bytes_now();
                        const double delta =
                            static_cast<double>(b - *prev);
                        *prev = b;
                        // bytes/period -> Mbit/s
                        return delta * 8000.0 / period_ns;
                      });
    }
    if (wgtt) {
      for (net::NodeId ap : bed.ap_ids()) {
        tel->add_column("ap" + std::to_string(ap) + ".backlog", 0,
                        [w = wgtt.get(), ap, clients]() {
                          double backlog = 0.0;
                          for (net::NodeId c : clients) {
                            if (const auto* stack = w->ap(ap).stack_for(c)) {
                              backlog += static_cast<double>(
                                  stack->total_backlog());
                            }
                          }
                          return backlog;
                        });
      }
    }
    bed.sched().schedule_at(cfg.app_start, [tel]() { tel->start(); });
  }

  // --- health gauges -------------------------------------------------------
  // Overlay-level resource probes for the windowed rollups.  They fire only
  // during run_until below, while the overlay and apps this frame owns are
  // alive (finalize never samples gauges).
  if (obs::HealthEngine* health = bed.obs().health) {
    if (wgtt) {
      health->add_gauge("ap.backlog_sum", [w = wgtt.get(), &bed, clients]() {
        double backlog = 0.0;
        for (net::NodeId ap : bed.ap_ids()) {
          for (net::NodeId c : clients) {
            if (const auto* stack = w->ap(ap).stack_for(c)) {
              backlog += static_cast<double>(stack->total_backlog());
            }
          }
        }
        return backlog;
      });
    }
    if (cfg.traffic == TrafficType::kTcpDownlink) {
      std::vector<const transport::TcpConnection*> conns;
      for (const auto& app : tcp_apps) conns.push_back(&app->connection());
      health->add_gauge("tcp.retx_total", [conns = std::move(conns)]() {
        double retx = 0.0;
        for (const auto* c : conns) {
          retx += static_cast<double>(c->stats().retransmissions);
        }
        return retx;
      });
    }
  }

  // --- run -----------------------------------------------------------------
  bed.sched().run_until(duration);

  // --- collect ---------------------------------------------------------
  DriveResult result;
  result.measured_duration = duration - cfg.app_start;
  result.medium_utilization = bed.medium().utilization();
  result.metrics = bed.metrics_snapshot();
  result.profile = bed.profile_snapshot();
  if (const TelemetrySampler* tel = bed.telemetry()) {
    result.telemetry = tel->table();
  }
  if (trace::Tracer* tracer = bed.obs().tracer) {
    result.trace_json = tracer->finish();
  }
  if (const core::DecisionLog* dlog = bed.obs().decisions) {
    result.decision_jsonl = dlog->jsonl();
    result.decision_records = dlog->entries();
    result.decision_switch_records = dlog->switches();
  }
  if (const net::FlightRecorder* fr = bed.obs().recorder) {
    result.packet_jsonl = fr->jsonl();
    result.packet_records = fr->records();
  }
  if (const obs::CausalTracer* causal = bed.obs().causal) {
    result.causal_jsonl = causal->jsonl();
    result.causal_records = causal->records();
  }
  if (obs::HealthEngine* health = bed.obs().health) {
    health->finalize(bed.sched().now());
    result.health_jsonl = health->jsonl();
    result.health_windows = health->windows_closed();
    result.health_checks = health->checks();
    result.health_violations = health->violations().size();
    for (const auto& v : health->violations()) {
      if (v.severity == "error") ++result.health_errors;
    }
    result.health_in_flight = health->in_flight();
    for (const obs::OutageRecord& o : health->outages()) {
      ++result.outages;
      if (o.open) ++result.unconverged_clients;
      const double ms =
          static_cast<double>((o.end - o.begin).to_ns()) / 1e6;
      if (ms > result.longest_outage_ms) result.longest_outage_ms = ms;
    }
  }
  if (wgtt) {
    result.switches = wgtt->controller().switch_log();
    result.stop_retransmissions =
        wgtt->controller().stats().stop_retransmissions;
    result.uplink_duplicates_removed =
        wgtt->controller().stats().uplink_duplicates;
    result.downlink_duplicates_removed = wgtt->client_duplicates_removed();
    result.switch_latencies_ms =
        wgtt->controller().stats().switch_latency_ms.samples();
    // At-most-one-transmitter snapshot, taken before teardown while the
    // overlay is still alive.  Only meaningful (and only nonempty) on
    // fault-injected runs — the hardened protocol's fences keep it empty.
    if (bed.fault_injector() != nullptr) {
      result.dual_active_clients = wgtt->dual_active_clients();
    }
  }
  std::size_t tcp_i = 0;
  std::size_t udp_i = 0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const net::NodeId client = clients[i];
    ClientDriveResult cr;
    cr.client = client;
    cr.switching_accuracy = metrics.switching_accuracy(client);
    cr.timeline = metrics.timeline(client);
    cr.bitrate_samples = metrics.bitrate_samples(client).samples();
    cr.bitrate_series = metrics.bitrate_series(client);
    if (cfg.traffic == TrafficType::kTcpDownlink) {
      auto& app = *tcp_apps[tcp_i++];
      cr.goodput_mbps =
          app.connection().goodput().average_mbps_over(result.measured_duration);
      cr.throughput_bins = app.connection().goodput().bins();
      cr.tcp_stats = app.connection().stats();
    } else {
      auto& app = *udp_apps[udp_i++];
      cr.goodput_mbps =
          app.receiver().throughput().average_mbps_over(result.measured_duration);
      cr.throughput_bins = app.receiver().throughput().bins();
      cr.udp_loss_rate = app.loss_rate();
      cr.seq_trace = app.receiver().trace();
    }
    if (baseline) {
      for (const auto& h : baseline->roaming(client).handovers()) {
        if (h.from_ap != 0) {  // don't count the initial association
          if (h.success) {
            ++cr.handovers;
          } else {
            ++cr.failed_handovers;
          }
        }
      }
    }
    result.clients.push_back(std::move(cr));
  }
  return result;
}

}  // namespace wgtt::scenario
