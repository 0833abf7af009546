#include "scenario/testbed.h"

#include <algorithm>
#include <cassert>

#include "util/units.h"

namespace wgtt::scenario {

// ---------------------------------------------------------------------------
// Testbed
// ---------------------------------------------------------------------------

Testbed::Testbed(TestbedConfig cfg)
    : log_sink_(cfg.log_sink),
      log_scope_(log_sink_.get()),
      cfg_(std::move(cfg)),
      metrics_(cfg_.enable_metrics
                   ? std::make_unique<metrics::MetricsRegistry>()
                   : nullptr),
      tracer_(cfg_.enable_trace ? std::make_unique<trace::Tracer>()
                                : nullptr),
      profiler_(cfg_.enable_profiler ? std::make_unique<prof::Profiler>()
                                     : nullptr),
      decision_log_(cfg_.enable_decision_log
                        ? std::make_unique<core::DecisionLog>(
                              /*protocol_extensions=*/!cfg_.faults.empty())
                        : nullptr),
      flight_recorder_(
          cfg_.enable_packet_log
              ? std::make_unique<net::FlightRecorder>(
                    net::FlightRecorderConfig{cfg_.seed, cfg_.packet_sample})
              : nullptr),
      health_engine_(cfg_.enable_health
                         ? std::make_unique<obs::HealthEngine>(
                               obs::HealthConfig{cfg_.health_window,
                                                 /*ring_capacity=*/4096,
                                                 cfg_.health_max_in_flight,
                                                 /*fault_aware=*/
                                                 !cfg_.faults.empty()},
                               metrics_.get())
                         : nullptr),
      causal_tracer_(cfg_.enable_causal
                         ? std::make_unique<obs::CausalTracer>(
                               obs::CausalTracerConfig{cfg_.seed,
                                                       cfg_.causal_sample})
                         : nullptr),
      obs_{metrics_.get(), tracer_.get(), profiler_.get(),
           decision_log_.get(), flight_recorder_.get(), health_engine_.get(),
           causal_tracer_.get()},
      obs_scope_(&obs_),
      uid_scope_(&uid_alloc_),
      packet_pool_scope_(&packet_pool_),
      fault_injector_(cfg_.faults.empty()
                          ? nullptr
                          : std::make_unique<net::FaultInjector>(
                                sched_, cfg_.faults,
                                Rng(cfg_.seed).fork("faults"))),
      fault_scope_(fault_injector_.get()),
      telemetry_(cfg_.enable_telemetry
                     ? std::make_unique<TelemetrySampler>(sched_,
                                                          cfg_.telemetry_period)
                     : nullptr),
      rng_(cfg_.seed),
      error_model_(cfg_.error_model) {
  channel_ = std::make_unique<channel::ChannelModel>(
      cfg_.radio, cfg_.pathloss, cfg_.shadowing, cfg_.fading,
      rng_.fork("channel"));
  medium_ = std::make_unique<mac::Medium>(sched_, *channel_, cfg_.medium);
  mac_ = std::make_unique<mac::MacContext>(sched_, *medium_, *channel_,
                                           error_model_, rng_.fork("mac"));
  backhaul_ = std::make_unique<net::Backhaul>(sched_, cfg_.backhaul,
                                              rng_.fork("backhaul"));
  if (obs::HealthEngine* health = obs_.health) {
    // Substrate resource gauges.  Probes read members the Testbed owns, so
    // they stay valid for every periodic tick (finalize() never samples —
    // caller-owned overlays may already be gone by teardown).
    health->add_gauge("sched.pending", [this] {
      return static_cast<double>(sched_.events_pending());
    });
    health->add_gauge("sched.peak_pending", [this] {
      return static_cast<double>(sched_.peak_pending());
    });
    health->add_gauge("pool.live", [this] {
      return static_cast<double>(packet_pool_.live());
    });
    health->add_gauge("pool.free", [this] {
      return static_cast<double>(packet_pool_.free_nodes());
    });
    if (obs_.recorder) {
      health->add_gauge("fr.records", [this] {
        return static_cast<double>(obs_.recorder->records());
      });
    }
    if (obs_.decisions) {
      health->add_gauge("decisions.records", [this] {
        return static_cast<double>(obs_.decisions->entries() +
                                   obs_.decisions->liveness_entries());
      });
    }
    // Coarse heap estimate: packet nodes (live + pooled) plus the buffered
    // observability documents — the allocations that grow with run length.
    health->add_gauge("heap.est_bytes", [this] {
      std::size_t bytes = (packet_pool_.live() + packet_pool_.free_nodes()) *
                          packet_pool_.node_size();
      if (obs_.recorder) bytes += obs_.recorder->jsonl_bytes();
      if (obs_.decisions) bytes += obs_.decisions->jsonl_bytes();
      if (obs_.causal) bytes += obs_.causal->jsonl_bytes();
      bytes += obs_.health->jsonl_bytes();
      return static_cast<double>(bytes);
    });
    sched_.schedule(cfg_.health_window, [this]() { health_tick(); });
  }
}

void Testbed::health_tick() {
  obs_.health->on_window_close(sched_.now());
  sched_.schedule(cfg_.health_window, [this]() { health_tick(); });
}

metrics::Snapshot Testbed::metrics_snapshot() const {
  return metrics_ ? metrics_->snapshot() : metrics::Snapshot{};
}

prof::ProfileSnapshot Testbed::profile_snapshot() const {
  return profiler_ ? profiler_->snapshot() : prof::ProfileSnapshot{};
}

mac::WifiDevice& Testbed::create_ap_device(net::NodeId id,
                                           mac::WifiDeviceConfig dev_cfg) {
  assert(devices_.count(id) == 0);
  const std::size_t ap_index = ap_ids_.size();
  assert(ap_index < cfg_.ap_x.size() && "more APs than configured positions");

  channel::ApSite site;
  site.id = id;
  site.position = {cfg_.ap_x[ap_index], cfg_.ap_y, cfg_.ap_z};
  // Boresight: aimed at the road surface directly across from the window.
  site.boresight = channel::Vec3{0.0, cfg_.lane_y - cfg_.ap_y,
                                 cfg_.client_z - cfg_.ap_z}
                       .normalized();
  site.antenna = std::make_shared<channel::ParabolicAntenna>(
      cfg_.antenna_peak_dbi, cfg_.antenna_hpbw_deg, cfg_.antenna_side_lobe_db);
  channel_->add_ap(site);
  ap_ids_.push_back(id);

  dev_cfg.is_ap = true;
  dev_cfg.airtime = cfg_.airtime;
  auto dev = std::make_unique<mac::WifiDevice>(*mac_, id, std::move(dev_cfg));
  mac::WifiDevice& ref = *dev;
  devices_.emplace(id, std::move(dev));
  return ref;
}

net::NodeId Testbed::add_client(
    std::shared_ptr<const channel::MobilityModel> mob, net::NodeId bssid) {
  const net::NodeId id = next_client_++;
  channel_->add_client(id, std::move(mob), cfg_.client_antenna_dbi);
  mac::WifiDeviceConfig dev_cfg;
  dev_cfg.is_ap = false;
  dev_cfg.bssid = bssid;
  dev_cfg.monitor_mode = false;
  dev_cfg.keepalive_interval = cfg_.client_keepalive;
  dev_cfg.hw_queue_limit = 256;  // the client's socket + driver queues
  dev_cfg.airtime = cfg_.airtime;
  auto dev = std::make_unique<mac::WifiDevice>(*mac_, id, std::move(dev_cfg));
  devices_.emplace(id, std::move(dev));
  client_ids_.push_back(id);
  return id;
}

mac::WifiDevice& Testbed::client_device(net::NodeId id) {
  auto it = devices_.find(id);
  assert(it != devices_.end());
  return *it->second;
}

mac::WifiDevice& Testbed::ap_device(net::NodeId id) {
  return client_device(id);  // same storage
}

double Testbed::road_length() const {
  const auto [lo, hi] =
      std::minmax_element(cfg_.ap_x.begin(), cfg_.ap_x.end());
  return *hi - *lo;
}

std::shared_ptr<channel::MobilityModel> Testbed::drive_mobility(
    double mph, double lead_in_m, double lane_y_offset, int direction,
    double start_offset_m) const {
  const double v = mph_to_mps(mph);
  const auto [lo, hi] =
      std::minmax_element(cfg_.ap_x.begin(), cfg_.ap_x.end());
  const double y = cfg_.lane_y + lane_y_offset;
  if (v <= 0.0) {
    // Static client parked mid-deployment.
    return std::make_shared<channel::StaticMobility>(
        channel::Vec3{(*lo + *hi) / 2.0, y, cfg_.client_z});
  }
  double start_x;
  channel::Vec3 vel;
  if (direction >= 0) {
    start_x = *lo - lead_in_m - start_offset_m;
    vel = {v, 0.0, 0.0};
  } else {
    start_x = *hi + lead_in_m + start_offset_m;
    vel = {-v, 0.0, 0.0};
  }
  return std::make_shared<channel::LinearMobility>(
      channel::Vec3{start_x, y, cfg_.client_z}, vel);
}

Time Testbed::transit_duration(double mph, double lead_in_m) const {
  const double v = mph_to_mps(mph);
  if (v <= 0.0) return Time::sec(10);
  return Time::sec((road_length() + 2.0 * lead_in_m) / v);
}

// ---------------------------------------------------------------------------
// NetworkOverlay
// ---------------------------------------------------------------------------

NetworkOverlay::NetworkOverlay(Testbed& bed)
    : bed_(bed), client_rx_(&bed.sched()), server_rx_(&bed.sched()) {}

void NetworkOverlay::client_uplink(net::NodeId client, net::PacketPtr pkt) {
  mac::WifiDevice& dev = bed_.client_device(client);
  // No BSSID yet: a baseline client before its first association (WGTT
  // clients share the virtual BSSID from the start).
  const net::NodeId bssid = dev.bssid();
  if (bssid == 0 || !dev.has_room(bssid)) {
    obs_.drop(*pkt, bed_.sched().now(), net::Hop::kMacDrop, client,
              bssid == 0 ? net::DropCause::kNotAssociated
                         : net::DropCause::kQueueFull,
              {{"peer", bssid}});
    return;
  }
  dev.enqueue(bssid, std::move(pkt));
}

void NetworkOverlay::wire_tcp_downlink(transport::TcpConnection& conn) {
  const net::NodeId client = conn.receiver();
  conn.transmit_data = [this, client](net::PacketPtr pkt) {
    server_downlink(client, std::move(pkt));
  };
  conn.transmit_ack = [this, client](net::PacketPtr pkt) {
    client_uplink(client, std::move(pkt));
  };
  client_rx_.register_flow(conn.flow_id(), [&conn](const net::PacketPtr& p) {
    conn.on_network_data(p);
  });
  server_rx_.register_flow(conn.flow_id(),
                           [this, &conn](const net::PacketPtr& p) {
                             bed_.sched().schedule(bed_.config().wan_latency,
                                                   [&conn, p]() {
                                                     conn.on_network_ack(p);
                                                   });
                           });
}

void NetworkOverlay::wire_udp_downlink(transport::UdpSender& sender,
                                    transport::UdpReceiver& receiver,
                                    net::NodeId client) {
  sender.transmit = [this, client](net::PacketPtr pkt) {
    server_downlink(client, std::move(pkt));
  };
  client_rx_.register_flow(sender.config().flow_id,
                           [&receiver](const net::PacketPtr& p) {
                             receiver.on_packet(p);
                           });
}

void NetworkOverlay::wire_udp_uplink(transport::UdpSender& sender,
                                  transport::UdpReceiver& receiver,
                                  net::NodeId client) {
  sender.transmit = [this, client](net::PacketPtr pkt) {
    client_uplink(client, std::move(pkt));
  };
  server_rx_.register_flow(sender.config().flow_id,
                           [&receiver](const net::PacketPtr& p) {
                             receiver.on_packet(p);
                           });
}

void NetworkOverlay::wire_conference_downlink(apps::ConferenceApp& app,
                                           net::NodeId client) {
  app.transmit = [this, client](net::PacketPtr pkt) {
    server_downlink(client, std::move(pkt));
  };
  client_rx_.register_flow(app.flow_id(),
                           [&app](const net::PacketPtr& p) {
                             app.on_packet(p);
                           });
}

void NetworkOverlay::wire_conference_uplink(apps::ConferenceApp& app,
                                         net::NodeId client) {
  app.transmit = [this, client](net::PacketPtr pkt) {
    client_uplink(client, std::move(pkt));
  };
  server_rx_.register_flow(app.flow_id(),
                           [&app](const net::PacketPtr& p) {
                             app.on_packet(p);
                           });
}

void NetworkOverlay::wire_web_browse(apps::WebBrowseApp& app,
                                  net::NodeId client) {
  app.transmit_request = [this, client](net::PacketPtr pkt) {
    client_uplink(client, std::move(pkt));
  };
  for (std::size_t i = 0; i < app.connections(); ++i) {
    transport::TcpConnection& conn = app.connection(i);
    conn.transmit_data = [this, client](net::PacketPtr pkt) {
      server_downlink(client, std::move(pkt));
    };
    conn.transmit_ack = [this, client](net::PacketPtr pkt) {
      client_uplink(client, std::move(pkt));
    };
    client_rx_.register_flow(conn.flow_id(),
                             [&conn](const net::PacketPtr& p) {
                               conn.on_network_data(p);
                             });
    server_rx_.register_flow(
        conn.flow_id(), [this, &conn, &app](const net::PacketPtr& p) {
          if (p->type == net::PacketType::kTcpAck) {
            bed_.sched().schedule(bed_.config().wan_latency, [&conn, p]() {
              conn.on_network_ack(p);
            });
          } else if (const auto* req =
                         net::payload_as<apps::WebRequestMsg>(*p)) {
            apps::WebRequestMsg r = *req;
            bed_.sched().schedule(bed_.config().wan_latency, [&app, r]() {
              app.on_request(r);
            });
          } else {
            // Unparseable payload: the ledger instance terminates here.
            obs_.ledger(*p, obs::Ledger::kRetired);
          }
        });
  }
}

// ---------------------------------------------------------------------------
// WgttNetwork
// ---------------------------------------------------------------------------

WgttNetwork::WgttNetwork(Testbed& bed, WgttNetworkConfig cfg)
    : NetworkOverlay(bed), cfg_(cfg) {
  const std::size_t n_aps = bed_.config().ap_x.size();
  std::vector<net::NodeId> ap_ids;
  for (std::size_t i = 0; i < n_aps; ++i) {
    ap_ids.push_back(static_cast<net::NodeId>(i + 1));
  }
  // Roadside geometry for trajectory-predicting handoff policies.
  cfg_.controller.ap_sites.clear();
  for (std::size_t i = 0; i < n_aps; ++i) {
    cfg_.controller.ap_sites.push_back(core::ApSite{
        static_cast<net::NodeId>(i + 1), bed_.config().ap_x[i],
        bed_.config().ap_y, bed_.config().ap_z});
  }
  if (core::policy_duplicates_downlink(cfg_.controller.policy)) {
    if (auto* reg = obs_.metrics) {
      m_client_dedup_ = &reg->counter("client.dedup_hits");
    }
  }
  controller_ = std::make_unique<core::WgttController>(
      bed_.sched(), bed_.backhaul(), ap_ids, cfg_.controller);
  controller_->on_uplink = [this](net::PacketPtr pkt) {
    server_rx_.deliver(pkt);
  };
  if (multi_channel()) {
    // Clients follow their serving AP across channels (a short retune
    // pause), as the §7 multi-channel design requires.
    controller_->on_switch = [this](const core::SwitchRecord& rec) {
      bed_.client_device(rec.client)
          .set_channel(ap_channel(rec.to_ap), cfg_.client_retune_pause);
    };
  }
  for (net::NodeId id : ap_ids) {
    mac::WifiDeviceConfig dev_cfg;
    dev_cfg.bssid = kWgttBssid;
    dev_cfg.monitor_mode = true;  // the second virtual interface (§3.2.1)
    dev_cfg.ba_completion_grace = cfg_.ba_completion_grace;
    dev_cfg.channel = ap_channel(id);
    if (cfg_.rate_control == RateControlKind::kEsnr) {
      const phy::ErrorModel& em = bed_.error_model();
      dev_cfg.rate_control_factory = [&em] {
        return std::make_unique<phy::EsnrRateControl>(em);
      };
    }
    mac::WifiDevice& dev = bed_.create_ap_device(id, std::move(dev_cfg));

    core::WgttApConfig ap_cfg;
    ap_cfg.id = id;
    ap_cfg.controller = net::kControllerId;
    for (net::NodeId peer : ap_ids) {
      if (peer != id) ap_cfg.peer_aps.push_back(peer);
    }
    ap_cfg.control_processing = cfg_.control_processing;
    ap_cfg.control_jitter = cfg_.control_jitter;
    ap_cfg.ioctl_delay = cfg_.ioctl_delay;
    ap_cfg.stack = cfg_.stack;
    ap_cfg.enable_ba_forwarding = cfg_.enable_ba_forwarding;
    ap_cfg.nic_drain_window = cfg_.nic_drain_window;
    ap_cfg.feed_esnr_to_rate_control =
        cfg_.rate_control == RateControlKind::kEsnr;
    ap_cfg.heartbeat_period = cfg_.controller.heartbeat_period;
    aps_.emplace(id, std::make_unique<core::WgttAp>(bed_.sched(),
                                                    bed_.backhaul(), dev,
                                                    ap_cfg));
  }
  // Observational dual-active gauge (fault-injected runs only, so fault-free
  // health streams stay byte-identical).  No ceiling: transient overlap
  // during switches is legitimate — the authoritative at-most-one check is
  // the end-of-run dual_active_clients() probe the protocol fuzzer asserts.
  if (obs_.health != nullptr && bed_.fault_injector() != nullptr) {
    obs_.health->add_gauge("protocol.dual_active", [this] {
      return static_cast<double>(dual_active_clients().size());
    });
  }
}

core::WgttAp& WgttNetwork::ap(net::NodeId id) {
  auto it = aps_.find(id);
  assert(it != aps_.end());
  return *it->second;
}

std::vector<net::NodeId> WgttNetwork::dual_active_clients() const {
  std::vector<net::NodeId> out;
  for (net::NodeId client : bed_.client_ids()) {
    if (controller_->switch_in_flight(client)) continue;
    std::size_t active = 0;
    for (const auto& [id, ap] : aps_) {
      if (ap->transmitting(client)) ++active;
    }
    if (active > 1) out.push_back(client);
  }
  return out;
}

unsigned WgttNetwork::ap_channel(net::NodeId ap) const {
  if (cfg_.ap_channels.empty()) return 11;
  return cfg_.ap_channels[(ap - 1) % cfg_.ap_channels.size()];
}

void WgttNetwork::scan_tick(net::NodeId client) {
  mac::WifiDevice& dev = bed_.client_device(client);
  const Time now = bed_.sched().now();
  std::vector<net::NodeId> candidates;
  bed_.channel().candidate_aps(client, now, candidates);
  for (net::NodeId ap : candidates) {
    if (ap_channel(ap) == dev.channel()) continue;  // heard natively
    const phy::Csi csi = bed_.channel().uplink_csi(ap, client, now);
    // Only report APs that would actually hear a probe (in range).
    if (csi.mean_snr_db() > 0.0) controller_->inject_csi(ap, client, csi);
  }
  bed_.sched().schedule(cfg_.scan_report_period,
                        [this, client]() { scan_tick(client); });
}

net::NodeId WgttNetwork::add_client(
    std::shared_ptr<const channel::MobilityModel> mob, Time associate_at) {
  std::shared_ptr<const channel::MobilityModel> mob_ref = mob;
  const net::NodeId id = bed_.add_client(std::move(mob), kWgttBssid);
  mac::WifiDevice& dev = bed_.client_device(id);
  dev.set_keepalive_peer(kWgttBssid);
  if (multi_channel()) {
    dev.set_channel(ap_channel(1), Time::zero());  // start on AP1's channel
    bed_.sched().schedule(cfg_.scan_report_period,
                          [this, id]() { scan_tick(id); });
  }
  // Kinematics hints for trajectory-predicting policies (plain doubles so
  // core never depends on channel/).
  controller_->set_mobility_provider(id, [mob_ref](Time t) {
    core::MobilityHint h;
    const channel::Vec3 p = mob_ref->position(t);
    const channel::Vec3 v = mob_ref->velocity(t);
    h.valid = true;
    h.x = p.x; h.y = p.y; h.z = p.z;
    h.vx = v.x; h.vy = v.y; h.vz = v.z;
    return h;
  });
  if (core::policy_duplicates_downlink(cfg_.controller.policy)) {
    // Start-first / bicast handoffs deliver overlap duplicates over the
    // air; absorb them at the client exactly as the controller does for
    // uplink fan-in (§3.2.3, same (src, IP-ID) key).
    auto dedup = std::make_shared<core::Deduplicator>(Time::sec(2));
    client_dedups_[id] = dedup;
    dev.on_deliver = [this, id, dedup](net::PacketPtr pkt,
                                       const mac::RxMeta&) {
      if (core::Deduplicator::needs_dedup(*pkt) &&
          dedup->is_duplicate(*pkt, bed_.sched().now())) {
        if (m_client_dedup_) m_client_dedup_->add();
        obs_.drop(*pkt, bed_.sched().now(), net::Hop::kDedupSuppress, id,
                  net::DropCause::kDuplicate, {{"ip_id", pkt->ip_id}});
        return;
      }
      client_rx_.deliver(pkt);
    };
  } else {
    dev.on_deliver = [this](net::PacketPtr pkt, const mac::RxMeta&) {
      client_rx_.deliver(pkt);
    };
  }
  // Schedule the association handshake; retry until it succeeds.
  bed_.sched().schedule_at(std::max(associate_at, bed_.sched().now()),
                           [this, id]() { retry_associate(id); });
  return id;
}

void WgttNetwork::retry_associate(net::NodeId client) {
  mac::WifiDevice& dev = bed_.client_device(client);
  const net::NodeId target =
      bed_.channel().best_ap(client, bed_.sched().now());
  net::Packet req;
  req.type = net::PacketType::kMgmt;
  req.src = client;
  req.dst = target;
  req.size_bytes = 90;
  req.created = bed_.sched().now();
  req.payload = core::AssocRequestMsg{client};
  dev.send_management(target, net::make_packet(std::move(req)),
                      [this, client](bool ok) {
                        if (!ok) {
                          bed_.sched().schedule(Time::ms(200), [this, client]() {
                            retry_associate(client);
                          });
                        }
                      });
}

std::uint64_t WgttNetwork::client_duplicates_removed() const {
  std::uint64_t total = 0;
  for (const auto& [client, dedup] : client_dedups_) {
    (void)client;
    total += dedup->duplicates_dropped();
  }
  return total;
}

void WgttNetwork::server_downlink(net::NodeId client, net::PacketPtr pkt) {
  bed_.sched().schedule(bed_.config().wan_latency,
                        [this, client, pkt = std::move(pkt)]() {
                          controller_->send_downlink(client, pkt);
                        });
}
// ---------------------------------------------------------------------------
// BaselineNetwork
// ---------------------------------------------------------------------------

BaselineNetwork::BaselineNetwork(Testbed& bed, BaselineNetworkConfig cfg)
    : NetworkOverlay(bed), cfg_(cfg) {
  distribution_ = std::make_unique<baseline::Distribution>(
      bed_.sched(), bed_.backhaul(), cfg_.distribution_relearn);
  distribution_->on_uplink = [this](net::PacketPtr pkt) {
    server_rx_.deliver(pkt);
  };
  const std::size_t n_aps = bed_.config().ap_x.size();
  for (std::size_t i = 0; i < n_aps; ++i) {
    const auto id = static_cast<net::NodeId>(i + 1);
    mac::WifiDeviceConfig dev_cfg;
    dev_cfg.bssid = id;  // every baseline AP is its own BSS
    dev_cfg.monitor_mode = false;
    mac::WifiDevice& dev = bed_.create_ap_device(id, std::move(dev_cfg));
    baseline::BaselineApConfig ap_cfg = cfg_.ap_template;
    ap_cfg.id = id;
    ap_cfg.distribution = net::kControllerId;
    aps_.push_back(std::make_unique<baseline::BaselineAp>(
        bed_.sched(), bed_.backhaul(), dev, ap_cfg));
  }
}

baseline::RoamingClient& BaselineNetwork::roaming(net::NodeId client) {
  auto it = roaming_.find(client);
  assert(it != roaming_.end());
  return *it->second;
}

net::NodeId BaselineNetwork::add_client(
    std::shared_ptr<const channel::MobilityModel> mob) {
  const net::NodeId id = bed_.add_client(std::move(mob), /*bssid=*/0);
  mac::WifiDevice& dev = bed_.client_device(id);
  dev.on_deliver = [this](net::PacketPtr pkt, const mac::RxMeta&) {
    client_rx_.deliver(pkt);
  };
  auto rc = std::make_unique<baseline::RoamingClient>(bed_.sched(), dev,
                                                      cfg_.roaming);
  rc->start();
  roaming_.emplace(id, std::move(rc));
  return id;
}

void BaselineNetwork::server_downlink(net::NodeId client, net::PacketPtr pkt) {
  bed_.sched().schedule(bed_.config().wan_latency,
                        [this, client, pkt = std::move(pkt)]() {
                          distribution_->send_downlink(client, pkt);
                        });
}

}  // namespace wgtt::scenario
