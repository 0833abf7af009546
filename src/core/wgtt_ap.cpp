#include "core/wgtt_ap.h"

#include <cassert>
#include <utility>

#include "phy/esnr.h"
#include "util/logging.h"

namespace wgtt::core {

WgttAp::WgttAp(sim::Scheduler& sched, net::Backhaul& backhaul,
               mac::WifiDevice& device, WgttApConfig cfg)
    : sched_(sched),
      backhaul_(backhaul),
      device_(device),
      cfg_(std::move(cfg)),
      rng_(0xA9000ull + cfg_.id) {
  backhaul_.attach(cfg_.id, [this](const net::TunneledPacket& frame) {
    on_backhaul_frame(frame);
  });
  device_.on_frame_heard = [this](const mac::RxMeta& meta) {
    on_frame_heard(meta);
  };
  device_.on_deliver = [this](net::PacketPtr pkt, const mac::RxMeta& meta) {
    on_uplink_deliver(std::move(pkt), meta);
  };
  device_.on_overheard_block_ack = [this](const mac::BlockAckInfo& ba,
                                          const mac::RxMeta& meta) {
    on_overheard_block_ack(ba, meta);
  };
  device_.on_management = [this](net::PacketPtr pkt, const mac::RxMeta& meta) {
    on_management(std::move(pkt), meta);
  };
  // Fault wiring: only when this sim injects faults does the AP register a
  // crash callback and start heartbeating (fault-free runs schedule nothing).
  injector_ = net::FaultInjector::current();
  if (injector_ != nullptr) {
    injector_->on_ap_fault(cfg_.id, [this](bool down) { on_fault(down); });
    sched_.schedule(cfg_.heartbeat_period, [this]() { heartbeat_tick(); });
    if (auto* reg = obs_.metrics) {
      m_dup_suppressed_ = &reg->counter("controller.protocol.dup_suppressed");
      m_stale_rejected_ = &reg->counter("controller.protocol.stale_rejected");
    }
  }
}

void WgttAp::on_fault(bool down) {
  down_ = down;
  device_.set_down(down);
  if (down) {
    ++stats_.fault_crashes;
    // Crash semantics: every queued packet dies with the AP — cyclic and
    // kernel queues both, each recorded with the fault_injected drop cause.
    for (auto& [client, st] : stacks_) {
      (void)client;
      stats_.crash_purged_packets += st->purge(net::DropCause::kFaultInjected);
    }
    WGTT_LOG(kInfo, "ap", "ap " << cfg_.id << " crashed");
  } else {
    // Recovery: associations survive (sta_info is replicated state), queues
    // restart empty; the controller's fan-out refills them.  Announce the
    // rejoin with an unsolicited state report (epoch 0) so the controller
    // can quench us if it failed our clients over while we were dark.
    WGTT_LOG(kInfo, "ap", "ap " << cfg_.id << " recovered");
    send_resync_report(0);
  }
}

void WgttAp::heartbeat_tick() {
  if (!down_) {
    ++stats_.heartbeats_sent;
    send_to(cfg_.controller, control_packet(HeartbeatMsg{cfg_.id}));
  }
  // Keep ticking while down so heartbeats resume the instant the AP does.
  sched_.schedule(cfg_.heartbeat_period, [this]() { heartbeat_tick(); });
}

Time WgttAp::control_delay() {
  Time d = cfg_.control_processing;
  if (cfg_.control_jitter > Time::zero()) {
    d += Time::ns(rng_.uniform_int(0, cfg_.control_jitter.to_ns()));
  }
  return d;
}

bool WgttAp::active_for(net::NodeId client) const {
  auto it = active_ap_.find(client);
  return it != active_ap_.end() && it->second == cfg_.id;
}

bool WgttAp::transmitting(net::NodeId client) const {
  if (down_) return false;
  auto it = stacks_.find(client);
  return it != stacks_.end() && it->second->active() &&
         !device_.shadow_stream(client);
}

const ApQueueStack* WgttAp::stack_for(net::NodeId client) const {
  auto it = stacks_.find(client);
  return it == stacks_.end() ? nullptr : it->second.get();
}

ApQueueStack& WgttAp::stack(net::NodeId client) {
  auto it = stacks_.find(client);
  if (it == stacks_.end()) {
    it = stacks_
             .emplace(client, std::make_unique<ApQueueStack>(
                                  sched_, device_, client, cfg_.stack))
             .first;
  }
  return *it->second;
}

void WgttAp::send_to(net::NodeId dst, net::Packet fields) {
  fields.src = cfg_.id;
  fields.dst = dst;
  fields.created = sched_.now();
  // Hardened runs: per-link seq for dup suppression, plus the highest
  // controller epoch we have seen (relays inherit it; 0 until heard).
  if (injector_ != nullptr && sequenced_control(fields.type)) {
    fields.ctrl_seq = ctrl_seq_.next(dst);
    fields.ctrl_epoch = epoch_seen_;
  }
  backhaul_.send(net::encapsulate(net::make_packet(std::move(fields)),
                                  cfg_.id, dst));
}

// ---------------------------------------------------------------------------
// Backhaul reception
// ---------------------------------------------------------------------------

void WgttAp::on_backhaul_frame(const net::TunneledPacket& frame) {
  net::PacketPtr inner = net::decapsulate(frame);
  if (down_) {
    // A crashed AP consumes nothing: data dies (with a drop record for the
    // autopsy), control vanishes — the sender's timeout machinery copes.
    obs_.drop(*inner, sched_.now(), net::Hop::kApDrop, cfg_.id,
              net::DropCause::kFaultInjected,
              {{"client", inner->dst}, {"index", inner->index}});
    return;
  }
  if (injector_ != nullptr && sequenced_control(inner->type)) {
    // Duplicate suppression before dispatch: an adversarial duplicate
    // carries its original's seq (a retransmission carries a fresh one).
    if (!ctrl_dedup_.accept(frame.outer_src, inner->ctrl_seq)) {
      ++stats_.ctrl_dups_suppressed;
      if (m_dup_suppressed_) m_dup_suppressed_->add();
      return;
    }
    // Coarse epoch fence: a frame stamped before a controller restart is
    // stale wholesale (per-message (epoch, id) fences below catch the
    // finer-grained races inside one epoch).
    if (inner->ctrl_epoch != 0) {
      if (inner->ctrl_epoch < epoch_seen_) {
        ++stats_.stale_epoch_rejected;
        if (m_stale_rejected_) m_stale_rejected_->add();
        return;
      }
      epoch_seen_ = inner->ctrl_epoch;
    }
  }
  switch (inner->type) {
    case net::PacketType::kData:
      handle_downlink_data(std::move(inner));
      return;
    case net::PacketType::kStop:
      // Control packets are prioritized: they bypass the cyclic queue and
      // are handled after only the processing latency (§3.1.2).
      if (const auto* msg = net::payload_as<StopMsg>(*inner)) {
        StopMsg m = *msg;
        sched_.schedule(control_delay(), [this, m]() { handle_stop(m); });
      }
      return;
    case net::PacketType::kStart:
      if (const auto* msg = net::payload_as<StartMsg>(*inner)) {
        StartMsg m = *msg;
        sched_.schedule(control_delay(), [this, m]() { handle_start(m); });
      }
      return;
    case net::PacketType::kBlockAckFwd:
      if (const auto* msg = net::payload_as<BaForwardMsg>(*inner)) {
        handle_ba_forward(*msg);
      }
      return;
    case net::PacketType::kAssocSync:
      if (const auto* msg = net::payload_as<AssocSyncMsg>(*inner)) {
        handle_assoc_sync(*msg);
      }
      return;
    case net::PacketType::kActiveAp:
      if (const auto* msg = net::payload_as<ActiveApMsg>(*inner)) {
        handle_active_ap(*msg);
      }
      return;
    case net::PacketType::kResync:
      // Warm-restart state query: answer over the same prioritized control
      // path as stop/start (the report is control-plane work too).
      if (const auto* msg = net::payload_as<ResyncRequestMsg>(*inner)) {
        const std::uint32_t epoch = msg->epoch;
        sched_.schedule(control_delay(), [this, epoch]() {
          if (!down_) send_resync_report(epoch);
        });
      }
      return;
    default:
      return;
  }
}

void WgttAp::handle_downlink_data(net::PacketPtr pkt) {
  const net::NodeId client = pkt->dst;
  if (!assoc_.known(client)) {
    // Shouldn't normally happen: the controller only forwards for
    // associated clients.  Drop rather than queue for a stranger.
    obs_.drop(*pkt, sched_.now(), net::Hop::kApDrop, cfg_.id,
              net::DropCause::kUnknownClient,
              {{"client", client}, {"index", pkt->index}});
    return;
  }
  ++stats_.downlink_packets_buffered;
  const std::uint32_t index = pkt->index;
  stack(client).on_downlink(index, std::move(pkt));
}

void WgttAp::handle_stop(const StopMsg& msg) {
  if (injector_ != nullptr &&
      !fence_accept(msg.client, msg.epoch, msg.switch_id)) {
    // A stop from an already-superseded switch (delayed past a newer one by
    // msg_reorder, or from before a controller restart).  Obeying it would
    // silence the transmitter the newer switch installed.
    ++stats_.stale_stops_rejected;
    if (m_stale_rejected_) m_stale_rejected_->add();
    return;
  }
  ++stats_.stops_handled;
  obs_.annotate("ap.stop", {{"ap", cfg_.id},
                            {"client", msg.client},
                            {"quench", msg.quench ? 1 : 0}});
  // Query the kernel for the first unsent index (the ioctl), then flush and
  // hand over.  A repeated stop (the controller's ack timeout fired) takes
  // the same path: the stack is already inactive, so next_nic_index()
  // re-derives the same k and start(c, k) is simply re-sent.
  sched_.schedule(cfg_.ioctl_delay, [this, msg]() {
    // A quench that raced a restart: the controller re-selected this AP and
    // its start(c) was processed first.  We are the active transmitter again
    // — obeying the stale quench would silence the client's only AP.
    if (msg.quench && active_for(msg.client)) return;
    ApQueueStack& st = stack(msg.client);
    // Quench deactivations (start-first styles) rewind the kernel stage into
    // the cyclic ring instead of flushing it: this AP stays a live fallback
    // and its next resume-from-head must restart at the true first-unsent
    // index.  Relay stops keep the paper's flush semantics — the successor
    // resumes from the relayed k, so local copies are pure duplicates.
    const std::uint32_t k = st.active() ? st.deactivate(msg.quench)
                                        : st.next_nic_index();
    obs_.annotate("ap.ioctl", {{"ap", cfg_.id},
                               {"client", msg.client},
                               {"k", static_cast<std::int64_t>(k)}});
    stats_.kernel_packets_flushed = st.kernel_flushed();
    active_ap_[msg.client] = msg.next_ap;

    // Let the NIC queue drain over the air (§3.1.2: "these packets take
    // 6 ms to deliver"), then flush the remainder — the next AP already
    // owns those indices, and lingering retries would interfere with it.
    sched_.schedule(cfg_.nic_drain_window, [this, client = msg.client]() {
      if (!active_for(client)) device_.flush_queue(client);
      // End of any overlap window: the frames drained above were the last
      // shadow-stream transmissions (no-op outside start-first styles).
      device_.set_shadow_stream(client, false);
    });

    // Quench (start-first handoff styles): the successor already activated
    // via a controller-originated start, so there is nobody to relay to.
    if (msg.quench) {
      ++stats_.quench_stops_handled;
      return;
    }
    send_to(msg.next_ap, control_packet(StartMsg{.client = msg.client,
                                                 .first_unsent_index = k,
                                                 .switch_id = msg.switch_id,
                                                 .from_ap = cfg_.id,
                                                 .epoch = msg.epoch}));
  });
}

void WgttAp::handle_start(const StartMsg& msg) {
  if (injector_ != nullptr &&
      !fence_accept(msg.client, msg.epoch, msg.switch_id)) {
    // The pre-hardening bug: a stale start (a reordered duplicate of an old
    // switch, or one relayed across a controller restart) used to activate
    // this AP unconditionally, leaving two APs transmitting to the client
    // under the shared BSSID.  Fence it off instead.
    ++stats_.stale_starts_rejected;
    if (m_stale_rejected_) m_stale_rejected_->add();
    return;
  }
  ++stats_.starts_handled;
  active_ap_[msg.client] = cfg_.id;
  // Becoming the active member of the BSSID again ends any shadow window
  // left over from a prior overlap switch away from this AP.
  device_.set_shadow_stream(msg.client, false);
  ApQueueStack& st = stack(msg.client);
  // Resume-from-head starts (failover and start-first styles): no
  // first-unsent index was relayed, so restart from our own cyclic head —
  // which quench deactivations keep rewound to this AP's true first-unsent
  // position.
  const std::uint32_t k = msg.first_unsent_index == kResumeHeadIndex
                              ? st.cyclic().head()
                              : msg.first_unsent_index;
  obs_.annotate("ap.start", {{"ap", cfg_.id},
                             {"client", msg.client},
                             {"index", static_cast<std::int64_t>(k)}});
  st.activate(k);
  send_to(cfg_.controller, control_packet(SwitchAckMsg{
                               .client = msg.client,
                               .new_ap = cfg_.id,
                               .switch_id = msg.switch_id,
                               .epoch = msg.epoch}));
}

void WgttAp::handle_active_ap(const ActiveApMsg& msg) {
  if (injector_ != nullptr && msg.version != 0) {
    // (epoch, version) fence: a reordered older broadcast must not roll the
    // active-AP map back.  Versions restart per epoch (the controller wipes
    // client state on crash), hence the lexicographic pair.
    const auto stamp = std::make_pair(msg.epoch, msg.version);
    auto it = active_fence_.find(msg.client);
    if (it != active_fence_.end() && stamp < it->second) {
      ++stats_.stale_actives_rejected;
      if (m_stale_rejected_) m_stale_rejected_->add();
      return;
    }
    active_fence_[msg.client] = stamp;
  }
  active_ap_[msg.client] = msg.active_ap;
  if (msg.bootstrap && msg.active_ap == cfg_.id) {
    ApQueueStack& st = stack(msg.client);
    if (!st.active()) st.activate(st.cyclic().head());
  }
  // Overlap switch styles (make-before-break / bicast): we are the outgoing
  // AP and deliberately still transmitting until the quench lands.  Drop out
  // of the shared-BSSID illusion for this client — our remaining downlink
  // frames deliver under our own id as the reorder stream, so the client
  // sees a second independent transmitter (as in a classic double
  // association) and its IP-layer dedup, not the shared BA reorder buffer,
  // absorbs the duplicate copies.  Failover broadcasts have overlap unset,
  // so a falsely-suspected incumbent is unaffected.
  if (msg.overlap && msg.active_ap != cfg_.id) {
    auto it = stacks_.find(msg.client);
    if (it != stacks_.end() && it->second->active()) {
      device_.set_shadow_stream(msg.client, true);
    }
  } else if (msg.active_ap == cfg_.id) {
    device_.set_shadow_stream(msg.client, false);
  }
}

void WgttAp::handle_assoc_sync(const AssocSyncMsg& msg) {
  assoc_.add(msg.info);
}

bool WgttAp::fence_accept(net::NodeId client, std::uint32_t epoch,
                          std::uint32_t switch_id) {
  const auto stamp = std::make_pair(epoch, switch_id);
  auto it = switch_fence_.find(client);
  if (it != switch_fence_.end() && stamp < it->second) return false;
  switch_fence_[client] = stamp;
  return true;
}

void WgttAp::send_resync_report(std::uint32_t epoch) {
  ++stats_.resync_reports_sent;
  ResyncReportMsg report;
  report.ap = cfg_.id;
  report.epoch = epoch;
  for (net::NodeId client : assoc_.clients()) {
    const StaInfo* info = assoc_.find(client);
    if (info == nullptr) continue;
    ResyncEntry entry;
    entry.info = *info;
    auto it = stacks_.find(client);
    entry.active = it != stacks_.end() && it->second->active();
    report.entries.push_back(entry);
  }
  const auto entries = static_cast<std::int64_t>(report.entries.size());
  obs_.annotate("ap.resync_report",
                {{"ap", cfg_.id}, {"epoch", epoch}, {"entries", entries}});
  send_to(cfg_.controller, control_packet(std::move(report)));
}

void WgttAp::handle_ba_forward(const BaForwardMsg& msg) {
  // Duplicate check: same BA may arrive from several monitor APs (§3.2.1:
  // "AP1 first checks whether this Block ACK has been received before").
  auto it = seen_ba_.find(msg.ba.client);
  const Time now = sched_.now();
  if (it != seen_ba_.end() && it->second.start_seq == msg.ba.start_seq &&
      it->second.bitmap == msg.ba.bitmap.to_ullong() &&
      now - it->second.when <= cfg_.ba_dedup_window) {
    ++stats_.forwarded_bas_duplicate;
    return;
  }
  seen_ba_[msg.ba.client] =
      SeenBa{msg.ba.start_seq, msg.ba.bitmap.to_ullong(), now};
  if (device_.apply_external_block_ack(msg.ba)) {
    ++stats_.forwarded_bas_applied;
  }
}

// ---------------------------------------------------------------------------
// Radio-side events
// ---------------------------------------------------------------------------

void WgttAp::on_frame_heard(const mac::RxMeta& meta) {
  if (cfg_.feed_esnr_to_rate_control) {
    device_.update_peer_esnr(meta.transmitter,
                             phy::selection_esnr_db(meta.csi), sched_.now());
  }
  // Every decoded client frame yields a CSI report to the controller.
  ++stats_.csi_reports_sent;
  phy::Csi csi = meta.csi;
  if (injector_ != nullptr) {
    // CSI extraction faults corrupt the *reporting* path (the firmware-side
    // tool wedging), not the radio itself.
    switch (injector_->csi_mode(cfg_.id)) {
      case net::CsiFaultMode::kFreeze: {
        auto it = last_csi_.find(meta.transmitter);
        if (it != last_csi_.end()) csi = it->second;
        break;
      }
      case net::CsiFaultMode::kGarbage: {
        Rng& rng = injector_->rng();
        for (double& snr : csi.subcarrier_snr_db) {
          snr = rng.uniform(-10.0, 40.0);
        }
        break;
      }
      case net::CsiFaultMode::kNormal:
        last_csi_[meta.transmitter] = csi;
        break;
    }
  }
  send_to(cfg_.controller, control_packet(CsiReportMsg{
                               cfg_.id, meta.transmitter, std::move(csi)}));
}

void WgttAp::on_uplink_deliver(net::PacketPtr pkt, const mac::RxMeta& meta) {
  (void)meta;
  // §3.2.2: encapsulate with this AP as outer source, controller as outer
  // destination, and let the controller de-duplicate.
  ++stats_.uplink_packets_tunneled;
  backhaul_.send(net::encapsulate(std::move(pkt), cfg_.id, cfg_.controller));
}

void WgttAp::on_overheard_block_ack(const mac::BlockAckInfo& ba,
                                    const mac::RxMeta& meta) {
  (void)meta;
  if (!cfg_.enable_ba_forwarding) return;
  // Forward to the client's active AP — unless that is us (our AP-mode
  // interface already saw or missed it; forwarding to ourselves is useless).
  auto it = active_ap_.find(ba.client);
  if (it == active_ap_.end() || it->second == cfg_.id) return;
  ++stats_.block_acks_forwarded;
  send_to(it->second, control_packet(BaForwardMsg{ba, cfg_.id}));
}

void WgttAp::on_management(net::PacketPtr pkt, const mac::RxMeta& meta) {
  const auto* req = net::payload_as<AssocRequestMsg>(*pkt);
  if (!req) return;  // null keepalives etc. only matter as CSI sources
  (void)meta;
  StaInfo info;
  info.client = req->client;
  info.authorized = true;
  info.associated_at = sched_.now();
  info.associating_ap = cfg_.id;
  info.aid = next_aid_++;
  const bool is_new = assoc_.add(info);

  // Respond over the air.
  net::Packet resp;
  resp.type = net::PacketType::kMgmt;
  resp.src = cfg_.id;
  resp.dst = req->client;
  resp.size_bytes = 64;
  resp.created = sched_.now();
  AssocResponseMsg body;
  body.ap = cfg_.id;
  body.aid = info.aid;
  body.success = true;
  resp.payload = body;
  device_.send_management(req->client, net::make_packet(std::move(resp)));

  if (is_new) {
    // Replicate sta_info to peers (§4.3) and tell the controller.
    for (net::NodeId peer : cfg_.peer_aps) {
      send_to(peer, control_packet(AssocSyncMsg{info}));
    }
    send_to(cfg_.controller, control_packet(ClientJoinedMsg{info}));
  }
}

}  // namespace wgtt::core
