#include "baseline/enhanced_80211r.h"

#include <algorithm>

#include "net/flight_recorder.h"
#include "util/logging.h"

namespace wgtt::baseline {

// ---------------------------------------------------------------------------
// Distribution
// ---------------------------------------------------------------------------

Distribution::Distribution(sim::Scheduler& sched, net::Backhaul& backhaul,
                           Time relearn_delay)
    : sched_(sched), backhaul_(backhaul), relearn_delay_(relearn_delay) {
  backhaul_.attach(net::kControllerId, [this](const net::TunneledPacket& f) {
    on_backhaul_frame(f);
  });
}

void Distribution::send_downlink(net::NodeId client, net::PacketPtr pkt) {
  auto it = assoc_.find(client);
  if (it == assoc_.end()) {
    ++dropped_;
    obs_.drop(*pkt, sched_.now(), net::Hop::kCtrlFanout, net::kControllerId,
              net::DropCause::kNotAssociated, {{"client", client}});
    return;
  }
  ++downlink_packets_;
  backhaul_.send(net::encapsulate(std::move(pkt), net::kControllerId,
                                  it->second));
}

void Distribution::set_association(net::NodeId client, net::NodeId ap) {
  pending_assoc_[client] = ap;
  sched_.schedule(relearn_delay_, [this, client, ap]() {
    auto pit = pending_assoc_.find(client);
    if (pit == pending_assoc_.end() || pit->second != ap) return;  // superseded
    auto old = assoc_.find(client);
    if (old != assoc_.end() && old->second != ap) {
      // Tell the abandoned AP to flush its stale per-client queue.
      net::Packet p = core::control_packet(FlushClientMsg{client});
      p.src = net::kControllerId;
      p.dst = old->second;
      p.created = sched_.now();
      backhaul_.send(net::encapsulate(net::make_packet(std::move(p)),
                                      net::kControllerId, old->second));
    }
    assoc_[client] = ap;
  });
}

net::NodeId Distribution::associated_ap(net::NodeId client) const {
  auto it = assoc_.find(client);
  return it == assoc_.end() ? 0 : it->second;
}

void Distribution::on_backhaul_frame(const net::TunneledPacket& frame) {
  net::PacketPtr inner = net::decapsulate(frame);
  switch (inner->type) {
    case net::PacketType::kData:
    case net::PacketType::kTcpAck:
      if (on_uplink) {
        on_uplink(std::move(inner));
      } else {
        obs_.ledger(*inner, obs::Ledger::kRetired);  // no wired-side consumer
      }
      return;
    case net::PacketType::kAssocSync:
      if (const auto* joined = net::payload_as<core::ClientJoinedMsg>(*inner)) {
        set_association(joined->info.client, joined->info.associating_ap);
      }
      return;
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// BaselineAp
// ---------------------------------------------------------------------------

BaselineAp::BaselineAp(sim::Scheduler& sched, net::Backhaul& backhaul,
                       mac::WifiDevice& device, BaselineApConfig cfg)
    : sched_(sched), backhaul_(backhaul), device_(device), cfg_(cfg) {
  backhaul_.attach(cfg_.id, [this](const net::TunneledPacket& frame) {
    on_backhaul_frame(frame);
  });
  device_.on_deliver = [this](net::PacketPtr pkt, const mac::RxMeta&) {
    // Uplink: bridge to the distribution system.
    backhaul_.send(net::encapsulate(std::move(pkt), cfg_.id,
                                    cfg_.distribution));
  };
  device_.on_management = [this](net::PacketPtr pkt, const mac::RxMeta& meta) {
    on_management(std::move(pkt), meta);
  };
  // Stagger the first beacon so eight APs do not collide forever.
  sched_.schedule(Time::ms(1) * static_cast<double>(cfg_.id), [this]() {
    beacon();
  });
}

void BaselineAp::beacon() {
  net::Packet b;
  b.type = net::PacketType::kBeacon;
  b.src = cfg_.id;
  b.dst = net::kBroadcast;
  b.size_bytes = 128;
  b.created = sched_.now();
  b.payload = BeaconMsg{cfg_.id};
  device_.send_management(net::kBroadcast, net::make_packet(std::move(b)));
  sched_.schedule(cfg_.beacon_interval, [this]() { beacon(); });
}

void BaselineAp::on_backhaul_frame(const net::TunneledPacket& frame) {
  net::PacketPtr inner = net::decapsulate(frame);
  if (inner->type == net::PacketType::kAssocSync) {
    if (const auto* flush = net::payload_as<FlushClientMsg>(*inner)) {
      auto it = kernel_queues_.find(flush->client);
      if (it != kernel_queues_.end()) {
        for (const net::PacketPtr& pkt : it->second) {
          obs_.drop(*pkt, sched_.now(), net::Hop::kApDrop, cfg_.id,
                    net::DropCause::kHandoverFlush,
                    {{"client", flush->client}});
        }
        it->second.clear();
      }
      device_.flush_queue(flush->client);
    }
    return;
  }
  if (inner->type == net::PacketType::kData ||
      inner->type == net::PacketType::kTcpAck) {
    const net::NodeId client = inner->dst;
    enqueue_downlink(client, std::move(inner));
  }
}

void BaselineAp::enqueue_downlink(net::NodeId client, net::PacketPtr pkt) {
  auto& q = kernel_queues_[client];
  if (q.size() >= cfg_.kernel_queue_limit) {
    obs_.drop(*pkt, sched_.now(), net::Hop::kApDrop, cfg_.id,
              net::DropCause::kQueueFull, {{"client", client}});
    return;
  }
  q.push_back(std::move(pkt));
  pump(client);
}

void BaselineAp::pump(net::NodeId client) {
  auto& q = kernel_queues_[client];
  while (!q.empty() && device_.has_room(client)) {
    if (!device_.enqueue(client, q.front())) break;
    q.pop_front();
  }
  if (!q.empty()) {
    device_.set_refill_handler(client, [this, client]() { pump(client); });
  }
}

void BaselineAp::on_management(net::PacketPtr pkt, const mac::RxMeta& meta) {
  (void)meta;
  const auto* req = net::payload_as<core::AssocRequestMsg>(*pkt);
  if (!req) return;

  net::Packet resp;
  resp.type = net::PacketType::kMgmt;
  resp.src = cfg_.id;
  resp.dst = req->client;
  resp.size_bytes = 64;
  resp.created = sched_.now();
  core::AssocResponseMsg body;
  body.ap = cfg_.id;
  body.aid = next_aid_++;
  body.success = true;
  resp.payload = body;
  device_.send_management(req->client, net::make_packet(std::move(resp)));

  // Register with the distribution (auth state is pre-shared, §5.1 (3)).
  core::StaInfo info;
  info.client = req->client;
  info.authorized = true;
  info.associated_at = sched_.now();
  info.associating_ap = cfg_.id;
  net::Packet p = core::control_packet(core::ClientJoinedMsg{info});
  p.src = cfg_.id;
  p.dst = cfg_.distribution;
  p.created = sched_.now();
  backhaul_.send(net::encapsulate(net::make_packet(std::move(p)), cfg_.id,
                                  cfg_.distribution));
}

// ---------------------------------------------------------------------------
// RoamingClient
// ---------------------------------------------------------------------------

RoamingClient::RoamingClient(sim::Scheduler& sched, mac::WifiDevice& device,
                             RoamingConfig cfg)
    : sched_(sched), device_(device), cfg_(cfg) {}

void RoamingClient::start() {
  device_.on_management = [this](net::PacketPtr pkt, const mac::RxMeta& meta) {
    on_management(std::move(pkt), meta);
  };
}

double RoamingClient::rssi_of(net::NodeId ap) const {
  auto it = rssi_.find(ap);
  return it == rssi_.end() ? -100.0 : it->second.rssi_dbm;
}

void RoamingClient::on_management(net::PacketPtr pkt,
                                  const mac::RxMeta& meta) {
  const auto* beacon = net::payload_as<BeaconMsg>(*pkt);
  if (!beacon) return;
  const Time now = sched_.now();
  auto [it, inserted] = rssi_.try_emplace(beacon->ap);
  RssiEntry& e = it->second;
  if (inserted) {
    e.rssi_dbm = meta.csi.rssi_dbm;
    e.first_heard = now;
  } else {
    e.rssi_dbm = cfg_.rssi_ewma_weight * meta.csi.rssi_dbm +
                 (1.0 - cfg_.rssi_ewma_weight) * e.rssi_dbm;
  }
  e.last_heard = now;

  if (associated_ap_ == 0 && !handover_in_progress_) {
    // Initial association: take the first AP we hear.
    reassociate(beacon->ap);
    return;
  }
  consider_roaming();
}

void RoamingClient::consider_roaming() {
  if (handover_in_progress_ || associated_ap_ == 0) return;
  const Time now = sched_.now();

  // Stock 802.11r (§2): refuse to decide before the RSSI history of the
  // *current* association is long enough.
  if (cfg_.stock_history_requirement > Time::zero() &&
      now - associated_since_ < cfg_.stock_history_requirement) {
    return;
  }

  // The client only knows what beacons told it: when beacons stop decoding
  // it keeps the last-known (healthy-looking) RSSI until the expiry rolls
  // it off — one of the reasons real 802.11 roaming triggers so late.
  auto cur = rssi_.find(associated_ap_);
  double cur_rssi;
  if (cur == rssi_.end()) {
    cur_rssi = -100.0;
  } else if (now - cur->second.last_heard > cfg_.rssi_expiry) {
    cur_rssi = -100.0;  // stale beyond expiry: assume the AP is gone
  } else {
    cur_rssi = cur->second.rssi_dbm;
  }

  // Time hysteresis: the below-threshold condition must persist.  Any
  // beacon that pops back above the threshold (constructive fading, or a
  // brief return toward a cell centre) resets the timer.
  if (cur_rssi >= cfg_.rssi_threshold_dbm) {
    below_threshold_ = false;
    return;
  }
  if (!below_threshold_) {
    below_threshold_ = true;
    below_threshold_since_ = now;
  }
  if (now - below_threshold_since_ < cfg_.hysteresis) return;

  // Pick the strongest recently-heard alternative.
  net::NodeId best = 0;
  double best_rssi = cur_rssi;
  for (const auto& [ap, e] : rssi_) {
    if (ap == associated_ap_) continue;
    if (now - e.last_heard > cfg_.rssi_expiry) continue;
    if (e.rssi_dbm > best_rssi) {
      best_rssi = e.rssi_dbm;
      best = ap;
    }
  }
  if (best == 0) return;
  reassociate(best);
}

void RoamingClient::reassociate(net::NodeId target) {
  handover_in_progress_ = true;
  const Time started = sched_.now();
  const net::NodeId old_ap = associated_ap_;

  net::Packet req;
  req.type = net::PacketType::kMgmt;
  req.src = device_.id();
  req.dst = target;
  req.size_bytes = 90;
  req.created = started;
  req.payload = core::AssocRequestMsg{device_.id()};
  // Make-before-break: the data path stays on the old AP until the new
  // association succeeds.
  device_.send_management(target, net::make_packet(std::move(req)),
                          [this, target, old_ap, started](bool ok) {
    handover_in_progress_ = false;
    HandoverRecord rec;
    rec.when = started;
    rec.from_ap = old_ap;
    rec.to_ap = target;
    rec.success = ok;
    rec.outage = sched_.now() - started;
    if (ok) {
      associated_ap_ = target;
      associated_since_ = sched_.now();
      last_handover_ = sched_.now();
      below_threshold_ = false;  // fresh association, fresh timer
      device_.set_bssid(target);
      device_.set_keepalive_peer(target);
    }
    handovers_.push_back(rec);
  });
}

}  // namespace wgtt::baseline
