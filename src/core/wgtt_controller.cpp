#include "core/wgtt_controller.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "phy/esnr.h"
#include "util/health.h"
#include "util/logging.h"
#include "util/trace.h"

namespace wgtt::core {

WgttController::WgttController(sim::Scheduler& sched, net::Backhaul& backhaul,
                               std::vector<net::NodeId> ap_ids,
                               ControllerConfig cfg)
    : sched_(sched),
      backhaul_(backhaul),
      ap_ids_(std::move(ap_ids)),
      cfg_(cfg) {
  if (auto* reg = obs_.metrics) {
    m_switches_ = &reg->counter("core.switches_completed");
    m_dedup_hits_ = &reg->counter("core.dedup_hits");
    m_switch_latency_ms_ = &reg->histogram(
        "core.switch_latency_ms", metrics::exponential_buckets(0.5, 2.0, 10));
  }
  if (auto* p = obs_.profiler) {
    p_selection_ = &p->section("core.selection");
    p_csi_ = &p->section("core.csi_report");
  }
  backhaul_.attach(net::kControllerId, [this](const net::TunneledPacket& f) {
    on_backhaul_frame(f);
  });
  // Periodic AP-selection pass.
  sched_.schedule(cfg_.selection_period, [this]() { run_selection(); });

  // Liveness monitor: armed only when the sim injects faults, so fault-free
  // runs schedule no extra events and create no extra metrics.
  injector_ = net::FaultInjector::current();
  if (injector_ != nullptr) {
    for (net::NodeId ap : ap_ids_) {
      ApHealth h;
      h.last_heartbeat = sched_.now();
      ap_health_.emplace(ap, h);
    }
    if (auto* reg = obs_.metrics) {
      m_suspects_ = &reg->counter("controller.liveness.suspects");
      m_failovers_ = &reg->counter("controller.liveness.failovers");
      m_quarantines_ = &reg->counter("controller.liveness.quarantines");
      m_live_aps_ = &reg->gauge("controller.liveness.live_aps");
      m_live_aps_->set(static_cast<double>(ap_ids_.size()));
      m_dup_suppressed_ = &reg->counter("controller.protocol.dup_suppressed");
      m_stale_rejected_ = &reg->counter("controller.protocol.stale_rejected");
      m_stale_acks_ = &reg->counter("controller.protocol.stale_acks");
      m_retries_ = &reg->counter("controller.protocol.retries");
      m_resyncs_ = &reg->counter("controller.protocol.resyncs");
    }
    sched_.schedule(cfg_.heartbeat_period, [this]() { liveness_tick(); });
    // ctrl_crash faults target node 0 — this process.
    injector_->on_ap_fault(net::kControllerId,
                           [this](bool down) { on_ctrl_fault(down); });
  }
}

void WgttController::send_to(net::NodeId dst, net::Packet fields) {
  fields.src = net::kControllerId;
  fields.dst = dst;
  fields.created = sched_.now();
  // Hardened runs stamp state-bearing control frames with a per-link seq
  // (dup suppression) and the fencing epoch.  A retransmission rebuilds its
  // packet, so it always carries a fresh seq and is never mistaken for an
  // adversarial duplicate.
  if (injector_ != nullptr && sequenced_control(fields.type)) {
    fields.ctrl_seq = ctrl_seq_.next(dst);
    fields.ctrl_epoch = epoch_;
  }
  backhaul_.send(net::encapsulate(net::make_packet(std::move(fields)),
                                  net::kControllerId, dst));
}

net::NodeId WgttController::active_ap(net::NodeId client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.active_ap;
}

std::optional<double> WgttController::median_esnr(net::NodeId client,
                                                  net::NodeId ap) const {
  auto it = clients_.find(client);
  if (it == clients_.end() || !it->second.selector) return std::nullopt;
  return it->second.selector->median(ap, sched_.now());
}

WgttController::ClientState& WgttController::client_state(
    net::NodeId client) {
  ClientState& st = clients_[client];
  if (!st.selector) {
    st.selector = std::make_unique<MedianEsnrSelector>(
        cfg_.selection_window, cfg_.min_readings, cfg_.use_latest_reading);
    st.policy = make_handoff_policy(
        cfg_.policy, PolicyTuning{cfg_.switch_hysteresis,
                                  cfg_.switch_margin_db});
  }
  return st;
}

/// Binds the controller's fault-tolerance view and the scenario's mobility
/// feed to one (client, selection pass) for HandoffPolicy::decide.
struct WgttController::PolicyEnvImpl final : PolicyEnv {
  PolicyEnvImpl(WgttController& c, ClientState& s, net::NodeId cl, Time t)
      : self(c), st(s), client(cl), now(t) {}
  bool fault_aware() const override { return self.injector_ != nullptr; }
  net::NodeId select_live() override {
    return self.select_live(st, client, now);
  }
  bool ap_live(net::NodeId ap) const override { return self.ap_live(ap); }
  MobilityHint mobility() const override {
    auto it = self.mobility_.find(client);
    return it == self.mobility_.end() ? MobilityHint{} : it->second(now);
  }
  const std::vector<ApSite>& ap_sites() const override {
    return self.cfg_.ap_sites;
  }

  WgttController& self;
  ClientState& st;
  net::NodeId client;
  Time now;
};

// ---------------------------------------------------------------------------
// Backhaul ingress
// ---------------------------------------------------------------------------

void WgttController::on_backhaul_frame(const net::TunneledPacket& frame) {
  net::PacketPtr inner = net::decapsulate(frame);
  if (ctrl_down_) {
    // A crashed controller consumes nothing: uplink data dies (with a ledger
    // mirror), control vanishes — AP-side senders have no ack machinery for
    // these types, so the post-restart resync round repairs the state.
    obs_.drop(*inner, sched_.now(), net::Hop::kCtrlUplink, net::kControllerId,
              net::DropCause::kFaultInjected, {{"src", frame.outer_src}});
    return;
  }
  // Duplicate suppression: an adversarially duplicated control frame
  // carries the seq of its original and is dropped here, before dispatch.
  if (injector_ != nullptr && sequenced_control(inner->type) &&
      !ctrl_dedup_.accept(frame.outer_src, inner->ctrl_seq)) {
    ++stats_.dup_frames_suppressed;
    if (m_dup_suppressed_) m_dup_suppressed_->add();
    return;
  }
  switch (inner->type) {
    case net::PacketType::kCsiReport:
      if (const auto* msg = net::payload_as<CsiReportMsg>(*inner)) {
        handle_csi_report(*msg);
      }
      return;
    case net::PacketType::kSwitchAck:
      if (const auto* msg = net::payload_as<SwitchAckMsg>(*inner)) {
        handle_switch_ack(*msg);
      }
      return;
    case net::PacketType::kAssocSync:
      if (const auto* msg = net::payload_as<ClientJoinedMsg>(*inner)) {
        handle_client_joined(*msg);
      }
      return;
    case net::PacketType::kHeartbeat:
      if (const auto* msg = net::payload_as<HeartbeatMsg>(*inner)) {
        handle_heartbeat(*msg);
      }
      return;
    case net::PacketType::kResync:
      if (const auto* msg = net::payload_as<ResyncReportMsg>(*inner)) {
        handle_resync_report(*msg);
      }
      return;
    case net::PacketType::kData:
    case net::PacketType::kTcpAck:
      handle_uplink_data(std::move(inner), frame.outer_src);
      return;
    default:
      return;
  }
}

void WgttController::inject_csi(net::NodeId ap, net::NodeId client,
                                const phy::Csi& csi) {
  CsiReportMsg msg;
  msg.ap = ap;
  msg.client = client;
  msg.csi = csi;
  handle_csi_report(msg);
}

void WgttController::handle_csi_report(const CsiReportMsg& msg) {
  prof::ScopedSection timer(p_csi_);
  ++stats_.csi_reports;
  ClientState& st = client_state(msg.client);
  const auto [it, first] = st.last_report.try_emplace(msg.ap);
  LastReport& last = it->second;
  const auto& snr = msg.csi.subcarrier_snr_db;
  // The ESNR is a pure function of the SNRs' bits: a static channel's
  // reports reuse the last one's instead of rerunning the kernel.
  if (first || std::memcmp(snr.data(), last.snr_db.data(),
                           sizeof last.snr_db) != 0) {
    last.snr_db = snr;
    last.esnr = phy::selection_esnr_db(msg.csi);
  }
  // Frozen-CSI detector: an AP whose CSI tool wedged replays its last
  // report, measurement time included.
  last.repeats =
      !first && msg.csi.measured_at == last.measured_at ? last.repeats + 1 : 1;
  last.measured_at = msg.csi.measured_at;
  st.selector->add_reading(msg.ap, sched_.now(), last.esnr);
  st.selector->prune(sched_.now());
}

void WgttController::handle_client_joined(const ClientJoinedMsg& msg) {
  ClientState& st = client_state(msg.info.client);
  st.associated = true;
  if (st.active_ap != 0) return;  // already bootstrapped
  st.active_ap = msg.info.associating_ap;
  st.last_switch = sched_.now();
  broadcast_active(msg.info.client, st.active_ap, /*bootstrap=*/true);
}

void WgttController::handle_uplink_data(net::PacketPtr pkt,
                                        net::NodeId from_ap) {
  if (dedup_.is_duplicate(*pkt, sched_.now())) {
    ++stats_.uplink_duplicates;
    if (m_dedup_hits_) m_dedup_hits_->add();
    obs_.drop(*pkt, sched_.now(), net::Hop::kDedupSuppress, net::kControllerId,
              net::DropCause::kDuplicate,
              {{"ap", from_ap}, {"ip_id", pkt->ip_id}});
    return;
  }
  ++stats_.uplink_packets;
  // With no wired-side consumer the de-duplicated instance ends here.
  obs_.hop(*pkt, sched_.now(), net::Hop::kCtrlUplink, net::kControllerId,
           on_uplink ? obs::Ledger::kNone : obs::Ledger::kRetired,
           {{"ap", from_ap}}, {{"ap", from_ap}});
  if (on_uplink) on_uplink(std::move(pkt));
}

// ---------------------------------------------------------------------------
// Downlink fan-out (§3.1.2: every AP in communication range buffers a copy)
// ---------------------------------------------------------------------------

void WgttController::send_downlink(net::NodeId client, net::PacketPtr pkt) {
  if (ctrl_down_) {
    // Crashed: the wired side's packets die at our ingress.
    obs_.drop(*pkt, sched_.now(), net::Hop::kCtrlFanout, net::kControllerId,
              net::DropCause::kFaultInjected, {{"client", client}});
    return;
  }
  // Either way the inbound transport instance ends here: pre-association
  // traffic benignly (nothing downstream ever holds it), joined traffic by
  // fan-out, which replaces it with one ledger copy per AP below.
  obs_.ledger(*pkt, obs::Ledger::kRetired);
  auto it = clients_.find(client);
  if (it == clients_.end() || it->second.active_ap == 0) return;
  ClientState& st = it->second;
  ++stats_.downlink_packets;

  // Assign the 12-bit cyclic index.  The Packet is shared across APs, so
  // stamp a copy once here — keeping the original uid, so the flight
  // recorder sees one provenance chain from transport send to delivery.
  net::Packet stamped = *pkt;
  stamped.index = st.next_index & (net::kIndexSpace - 1);
  st.next_index = (st.next_index + 1) & (net::kIndexSpace - 1);
  net::PacketPtr shared =
      std::make_shared<const net::Packet>(std::move(stamped));

  // Range set: APs with a CSI reading inside the window; always include the
  // active AP.
  st.selector->prune(sched_.now());
  // One copy per AP.  The first copy also carries the packet's one causal
  // annotation (the copies all leave from this same event), so the DAG joins
  // this uid's delivery chain to the fan-out pass.
  bool annotated = false;
  auto fan_out = [&](net::NodeId ap, obs::Fields record) {
    if (annotated) {
      obs_.hop(*shared, sched_.now(), net::Hop::kCtrlFanout,
               net::kControllerId, obs::Ledger::kCopy, record);
    } else {
      obs_.hop(*shared, sched_.now(), net::Hop::kCtrlFanout,
               net::kControllerId, obs::Ledger::kCopy, record,
               {{"client", client}, {"index", shared->index}});
      annotated = true;
    }
    backhaul_.send(net::encapsulate(shared, net::kControllerId, ap));
    ++stats_.downlink_copies;
  };
  bool active_covered = false;
  bool prearm_covered = false;
  if (!cfg_.fanout_active_only) {
    for (net::NodeId ap : st.selector->aps_in_range(sched_.now())) {
      fan_out(ap, {{"ap", ap},
                   {"index", shared->index},
                   {"active", ap == st.active_ap ? 1 : 0}});
      if (ap == st.active_ap) active_covered = true;
      if (ap == st.prearm_ap) prearm_covered = true;
    }
    // Policy pre-arm (predictive): the next AP along the trajectory buffers
    // copies before its CSI puts it in the range set, so a future
    // start(c, k) finds the backlog already in place.
    if (st.prearm_ap != 0 && !prearm_covered &&
        st.prearm_ap != st.active_ap) {
      fan_out(st.prearm_ap, {{"ap", st.prearm_ap},
                             {"index", shared->index},
                             {"active", 0},
                             {"prearm", 1}});
      ++stats_.prearm_copies;
    }
  }
  if (!active_covered) {
    fan_out(st.active_ap,
            {{"ap", st.active_ap}, {"index", shared->index}, {"active", 1}});
  }
}

// ---------------------------------------------------------------------------
// AP selection + switching protocol
// ---------------------------------------------------------------------------

void WgttController::log_decision(net::NodeId client, const ClientState& st,
                                  Time now, DecisionOutcome outcome,
                                  DecisionReason reason, net::NodeId chosen,
                                  Time hysteresis_remaining) {
  DecisionRecord rec;
  rec.t = now;
  rec.client = client;
  rec.incumbent = st.active_ap;
  rec.chosen = chosen;
  rec.policy = st.policy ? st.policy->name() : "";
  rec.outcome = outcome;
  rec.reason = reason;
  rec.margin_db = cfg_.switch_margin_db;
  rec.hysteresis_remaining = hysteresis_remaining;
  if (st.selector) {
    // aps_in_range iterates the selector's NodeId-ordered window map, so the
    // candidate list is sorted and the serialization deterministic.
    for (net::NodeId ap : st.selector->aps_in_range(now)) {
      DecisionCandidate c;
      c.ap = ap;
      c.readings = st.selector->reading_count(ap, now);
      if (const auto m = st.selector->median(ap, now)) {
        c.median_db = *m;
        c.eligible = true;
      }
      rec.candidates.push_back(c);
    }
  }
  obs_.decisions->append(rec);
}

void WgttController::run_selection() {
  prof::ScopedSection timer(p_selection_);
  if (ctrl_down_) {
    // Crashed: no selection, but keep the pass scheduled so it resumes the
    // instant the fault clears.
    sched_.schedule(cfg_.selection_period, [this]() { run_selection(); });
    return;
  }
  const Time now = sched_.now();
  for (auto& [client, st] : clients_) {
    // Every early-out below is an auditable decision: when a DecisionLog is
    // installed, record why this client was not switched (observation only —
    // the control flow is identical with auditing off).
    if (st.active_ap == 0 || st.switch_in_flight || !st.selector) {
      if (obs_.decisions && st.selector) {
        log_decision(client, st, now, DecisionOutcome::kDefer,
                     st.active_ap == 0 ? DecisionReason::kNotJoined
                                       : DecisionReason::kSwitchInFlight,
                     /*chosen=*/0, Time::zero());
      }
      continue;
    }
    // A dead incumbent cannot complete the stop handshake: route stranded
    // clients through the failover path (bypasses hysteresis, starts the new
    // AP directly) instead of racing the liveness tick with ordinary
    // switches whose stop(c) would be sent into the void.
    if (injector_ != nullptr && !ap_live(st.active_ap)) {
      st.selector->prune(now);
      attempt_failover(client, st, now);
      continue;
    }
    // The keep/switch/defer question itself is delegated to the client's
    // HandoffPolicy (median_esnr by default — the paper's §3.1.1 rule,
    // reproduced decision for decision).  The policy prunes the windows and
    // reads medians; the controller keeps the FSM, protocol, and audit log.
    PolicyEnvImpl env(*this, st, client, now);
    const PolicyDecision d = st.policy->decide(
        PolicyInput{client, st.active_ap, now, st.last_switch,
                    *st.selector, env});
    st.prearm_ap =
        (d.prearm != 0 && d.prearm != st.active_ap) ? d.prearm : 0;
    if (obs_.decisions) {
      log_decision(client, st, now, d.outcome, d.reason, d.target,
                   d.hysteresis_remaining);
    }
    if (d.outcome == DecisionOutcome::kSwitch) {
      begin_switch(client, st, d.target, d.style, d.bicast_hold,
                   /*failover=*/false);
    }
  }
  sched_.schedule(cfg_.selection_period, [this]() { run_selection(); });
}

void WgttController::begin_switch(net::NodeId client, ClientState& st,
                                  net::NodeId target, SwitchStyle style,
                                  Time bicast_hold, bool failover) {
  const Time now = sched_.now();
  ++stats_.switches_initiated;
  st.switch_in_flight = true;
  st.failover_in_flight = failover;
  st.switch_id = next_switch_id_++;
  st.switch_target = target;
  st.switch_started = now;
  st.stop_retx = 0;
  st.switch_style = style;
  st.bicast_hold = bicast_hold;
  if (obs_.tracer) {
    obs_.tracer->instant("core", "switch_start", now,
                         static_cast<std::int64_t>(net::kControllerId),
                         {{"client", static_cast<double>(client)},
                          {"from", static_cast<double>(st.active_ap)},
                          {"to", static_cast<double>(target)}});
  }
  if (failover) {
    obs_.marker(now, net::Hop::kSwitchStart, net::kControllerId,
                {{"client", client},
                 {"from", st.active_ap},
                 {"to", target},
                 {"failover", 1}});
    obs_.annotate("ctrl.switch_start", {{"client", client},
                                        {"from", st.active_ap},
                                        {"to", target},
                                        {"switch", st.switch_id},
                                        {"failover", 1}});
  } else {
    obs_.marker(now, net::Hop::kSwitchStart, net::kControllerId,
                {{"client", client}, {"from", st.active_ap}, {"to", target}});
    obs_.annotate("ctrl.switch_start", {{"client", client},
                                        {"from", st.active_ap},
                                        {"to", target},
                                        {"switch", st.switch_id}});
  }
  // Flow events are keyed on causal ids, so traces without causal tracing
  // stay byte-identical.
  if (obs_.causal != nullptr && obs_.tracer != nullptr) {
    st.causal_start_ev = sched_.current_event();
    obs_.tracer->flow_start("core", "switch_flow", now, st.causal_start_ev,
                            static_cast<std::int64_t>(net::kControllerId));
  }
  if (style != SwitchStyle::kStopStart) ++stats_.direct_starts;
  send_switch(client, st);
}

void WgttController::send_switch(net::NodeId client, ClientState& st) {
  // Start-first styles and failovers send no stop(c), so no ioctl yields a
  // first-unsent index: the target resumes from its own cyclic head.
  // Quench deactivations rewind that head to the true first-unsent index, so
  // a target that held this client before restarts exactly where it stopped
  // — overlapping the incumbent's current range, the deliberate duplication
  // the client-side dedup layer absorbs.
  const bool stop =
      st.switch_style == SwitchStyle::kStopStart && !st.failover_in_flight;
  const net::NodeId dst = stop ? st.active_ap : st.switch_target;
  // On a retransmission the annotation attaches to the ack-timeout event,
  // labelling the timeout wait in the critical path.
  if (st.failover_in_flight) {
    obs_.annotate("ctrl.start_tx", {{"client", client},
                                    {"ap", dst},
                                    {"switch", st.switch_id},
                                    {"retx", st.stop_retx},
                                    {"failover", 1}});
  } else {
    obs_.annotate(stop ? "ctrl.stop_tx" : "ctrl.start_tx",
                  {{"client", client},
                   {"ap", dst},
                   {"switch", st.switch_id},
                   {"retx", st.stop_retx}});
  }
  send_to(dst, stop ? control_packet(StopMsg{.client = client,
                                             .next_ap = st.switch_target,
                                             .switch_id = st.switch_id,
                                             .epoch = fence_epoch()})
                    : control_packet(StartMsg{
                          .client = client,
                          .first_unsent_index = kResumeHeadIndex,
                          .switch_id = st.switch_id,
                          .epoch = fence_epoch()}));
  st.retx_event = sched_.schedule(retx_timeout(st.stop_retx),
                                  [this, client]() { on_ack_timeout(client); });
}

void WgttController::on_ack_timeout(net::NodeId client) {
  auto it = clients_.find(client);
  if (it == clients_.end() || !it->second.switch_in_flight) return;
  ClientState& st = it->second;
  // The one retry rule.  A fault-free stop-start switch retransmits its
  // stop until acked, as in the paper (§3.1.2).  Every other switch gives
  // up after max_control_retries: on a hardened run the stop target, the
  // start relay behind it or a failover target may be dead, and a
  // start-first switch never stopped its incumbent, so abandoning leaves
  // the client where it was.  The liveness monitor fails the client over
  // once a dead AP is marked suspect, and the next liveness tick re-selects
  // after an abandoned failover.
  const bool retry_until_acked =
      injector_ == nullptr && st.switch_style == SwitchStyle::kStopStart;
  if (!retry_until_acked && st.stop_retx >= cfg_.max_control_retries) {
    st.switch_in_flight = false;
    st.failover_in_flight = false;
    ++stats_.abandoned_switches;
    WGTT_LOG(kWarn, "controller",
             "abandoning switch for client " << client << " after "
                                             << st.stop_retx << " retries");
    return;
  }
  ++stats_.stop_retransmissions;
  ++st.stop_retx;
  if (m_retries_) m_retries_->add();
  send_switch(client, st);
}

void WgttController::send_quench(net::NodeId ap, net::NodeId client,
                                 net::NodeId new_ap,
                                 std::uint32_t switch_id) {
  ++stats_.quench_stops;
  obs_.annotate("ctrl.quench_tx",
                {{"client", client}, {"ap", ap}, {"switch", switch_id}});
  send_to(ap, control_packet(StopMsg{
                  .client = client,
                  .next_ap = new_ap,
                  .switch_id = switch_id,
                  .quench = true,  // the successor is already active
                  .epoch = fence_epoch()}));
}

void WgttController::handle_switch_ack(const SwitchAckMsg& msg) {
  auto it = clients_.find(msg.client);
  // Fencing: an ack must name the in-flight switch AND (on hardened runs)
  // the current epoch.  Anything else is stale — a duplicate of an already
  // consumed ack, the ack of an abandoned switch arriving after its
  // successor was initiated, or an ack from before a controller restart.
  // Before this fence, a reordered old ack whose switch_id happened to
  // match a recycled post-restart id could complete the wrong switch.
  const bool stale =
      it == clients_.end() || !it->second.switch_in_flight ||
      msg.switch_id != it->second.switch_id ||
      (injector_ != nullptr && msg.epoch != epoch_);
  if (stale) {
    if (injector_ != nullptr) {
      ++stats_.stale_acks;
      if (m_stale_acks_) m_stale_acks_->add();
      if (m_stale_rejected_) m_stale_rejected_->add();
    }
    return;
  }
  ClientState& st = it->second;

  sched_.cancel(st.retx_event);
  ++stats_.switches_completed;
  SwitchRecord rec;
  rec.initiated = st.switch_started;
  rec.completed = sched_.now();
  rec.client = msg.client;
  rec.from_ap = st.active_ap;
  rec.to_ap = msg.new_ap;
  rec.stop_retransmissions = st.stop_retx;
  rec.switch_id = msg.switch_id;
  rec.epoch = fence_epoch();
  stats_.switch_latency_ms.add((rec.completed - rec.initiated).to_ms());
  switch_log_.push_back(rec);
  if (m_switches_) {
    m_switches_->add();
    m_switch_latency_ms_->record((rec.completed - rec.initiated).to_ms());
  }
  if (obs_.tracer) {
    obs_.tracer->complete("core", "switch", rec.initiated,
                          rec.completed - rec.initiated,
                          static_cast<std::int64_t>(net::kControllerId),
                          {{"client", static_cast<double>(rec.client)},
                           {"from", static_cast<double>(rec.from_ap)},
                           {"to", static_cast<double>(rec.to_ap)},
                           {"stop_retx",
                            static_cast<double>(rec.stop_retransmissions)}});
  }
  obs_.marker(sched_.now(), net::Hop::kSwitchDone, net::kControllerId,
              {{"client", rec.client},
               {"from", rec.from_ap},
               {"to", rec.to_ap},
               {"stop_retx", rec.stop_retransmissions},
               {"gap_us", (rec.completed - rec.initiated).to_ns() / 1000}});
  obs_.annotate("ctrl.switch_done", {{"client", rec.client},
                                     {"from", rec.from_ap},
                                     {"to", rec.to_ap},
                                     {"switch", msg.switch_id},
                                     {"retx", rec.stop_retransmissions}});
  if (obs_.causal && obs_.tracer) {
    obs_.tracer->flow_finish("core", "switch_flow", sched_.now(),
                             st.causal_start_ev,
                             static_cast<std::int64_t>(net::kControllerId));
  }
  st.causal_start_ev = 0;

  const net::NodeId old_ap = st.active_ap;
  const SwitchStyle style = st.switch_style;
  st.active_ap = msg.new_ap;
  st.switch_in_flight = false;
  st.failover_in_flight = false;
  st.last_switch = sched_.now();
  st.switch_style = SwitchStyle::kStopStart;
  if (style != SwitchStyle::kStopStart && old_ap != 0 &&
      old_ap != msg.new_ap) {
    // Start-first styles never sent stop(c): quench the incumbent now —
    // immediately for make-before-break, after the overlap window for
    // bicast (during which both APs transmit and the client de-duplicates).
    if (style == SwitchStyle::kBicast && st.bicast_hold > Time::zero()) {
      ++stats_.bicast_windows;
      sched_.schedule(st.bicast_hold,
                      [this, old_ap, client = msg.client,
                       new_ap = msg.new_ap, id = msg.switch_id]() {
                        // The hold can outlive the next selection round.  If
                        // the incumbent has been (or is being) re-selected as
                        // the active AP, a late quench would silence the very
                        // AP the client now depends on — skip it; the switch
                        // that re-chose it quenches the other side.
                        auto cit = clients_.find(client);
                        if (cit != clients_.end() &&
                            (cit->second.active_ap == old_ap ||
                             (cit->second.switch_in_flight &&
                              cit->second.switch_target == old_ap))) {
                          ++stats_.quenches_skipped;
                          return;
                        }
                        send_quench(old_ap, client, new_ap, id);
                      });
    } else {
      send_quench(old_ap, msg.client, msg.new_ap, msg.switch_id);
    }
  }
  broadcast_active(msg.client, msg.new_ap, /*bootstrap=*/false,
                   /*overlap=*/style != SwitchStyle::kStopStart);
  if (on_switch) on_switch(rec);
}

// ---------------------------------------------------------------------------
// Liveness monitoring + failover (active only with a FaultInjector installed)
// ---------------------------------------------------------------------------

void WgttController::handle_heartbeat(const HeartbeatMsg& msg) {
  ++stats_.heartbeats_received;
  auto it = ap_health_.find(msg.ap);
  if (it == ap_health_.end()) return;
  ApHealth& h = it->second;
  if (h.state == ApHealth::State::kSuspect) {
    // The AP came back after being declared suspect: it flapped.  Quarantine
    // it with exponential backoff so an unstable AP cannot keep re-capturing
    // clients the moment it blips up.
    h.state = ApHealth::State::kQuarantine;
    const Time window = quarantine_for(h.flaps);
    h.quarantined_until = sched_.now() + window;
    ++stats_.liveness_quarantines;
    if (m_quarantines_) m_quarantines_->add();
    log_liveness(msg.ap, "quarantined", h.flaps, window);
  }
  h.last_heartbeat = sched_.now();
  h.heard = true;
}

bool WgttController::ap_live(net::NodeId ap) const {
  auto it = ap_health_.find(ap);
  return it == ap_health_.end() || it->second.state == ApHealth::State::kLive;
}

bool WgttController::csi_frozen(const ClientState& st, net::NodeId ap) const {
  auto it = st.last_report.find(ap);
  return it != st.last_report.end() &&
         it->second.repeats >= cfg_.stale_csi_repeats;
}

Time WgttController::quarantine_for(std::uint32_t flaps) const {
  // base * 2^(flaps-1), saturating at quarantine_cap (ns arithmetic; the
  // shift is bounded by the early exit, so no overflow before the cap).
  std::int64_t ns = cfg_.quarantine_base.to_ns();
  const std::int64_t cap = cfg_.quarantine_cap.to_ns();
  for (std::uint32_t i = 1; i < flaps && ns < cap; ++i) ns <<= 1;
  return Time::ns(std::min(ns, cap));
}

net::NodeId WgttController::select_live(const ClientState& st,
                                        net::NodeId client, Time now) {
  (void)client;
  net::NodeId best = 0;
  double best_median = -1e300;
  for (net::NodeId ap : st.selector->aps_in_range(now)) {
    const auto m = st.selector->median(ap, now);
    if (!m) continue;
    if (!ap_live(ap)) continue;
    if (csi_frozen(st, ap)) {
      ++stats_.stale_csi_exclusions;
      continue;
    }
    if (*m > best_median) {
      best_median = *m;
      best = ap;
    }
  }
  return best;
}

void WgttController::liveness_tick() {
  if (ctrl_down_) {
    // Crashed: the monitor is dark, but keep the tick alive so it resumes
    // with the warm restart.
    sched_.schedule(cfg_.heartbeat_period, [this]() { liveness_tick(); });
    return;
  }
  const Time now = sched_.now();
  const Time deadline = Time::ns(cfg_.heartbeat_period.to_ns() *
                                 static_cast<std::int64_t>(cfg_.liveness_misses));
  for (auto& [ap, h] : ap_health_) {
    switch (h.state) {
      case ApHealth::State::kLive:
        if (h.heard && now - h.last_heartbeat > deadline) {
          h.state = ApHealth::State::kSuspect;
          ++h.flaps;
          ++stats_.liveness_suspects;
          if (m_suspects_) m_suspects_->add();
          log_liveness(ap, "suspect", h.flaps, Time::zero());
          if (obs_.tracer) {
            obs_.tracer->instant("core", "ap_suspect", now,
                                 static_cast<std::int64_t>(net::kControllerId),
                                 {{"ap", static_cast<double>(ap)},
                                  {"flaps", static_cast<double>(h.flaps)}});
          }
        }
        break;
      case ApHealth::State::kSuspect:
        break;  // leaves via a heartbeat (-> quarantine)
      case ApHealth::State::kQuarantine:
        if (now >= h.quarantined_until) {
          h.state = ApHealth::State::kLive;
          // Grace: grant the full miss budget before re-suspecting.
          h.last_heartbeat = now;
          log_liveness(ap, "reinstated", h.flaps, Time::zero());
        }
        break;
    }
  }
  if (m_live_aps_) {
    std::size_t live = 0;
    for (const auto& [ap, h] : ap_health_) {
      if (h.state == ApHealth::State::kLive) ++live;
    }
    m_live_aps_->set(static_cast<double>(live));
  }
  // Stranded clients: the serving AP went suspect/quarantined mid-dwell.
  // Fail over immediately, bypassing hysteresis — and keep retrying every
  // tick while no live candidate exists.  Orphans (associated but with no
  // active AP — a warm restart whose resync round found no active claim,
  // because the crash hit mid-switch) are re-adopted through the same
  // direct-start path.
  for (auto& [client, st] : clients_) {
    if (obs_.health) {
      obs_.health->client_stranded(
          client, st.active_ap == 0 || !ap_live(st.active_ap), now);
    }
    if (st.switch_in_flight || !st.selector) continue;
    if (st.active_ap != 0 && !ap_live(st.active_ap)) {
      attempt_failover(client, st, now);
    } else if (st.active_ap == 0 && st.associated) {
      attempt_failover(client, st, now, DecisionReason::kResync);
    }
  }
  sched_.schedule(cfg_.heartbeat_period, [this]() { liveness_tick(); });
}

void WgttController::attempt_failover(net::NodeId client, ClientState& st,
                                      Time now, DecisionReason reason) {
  net::NodeId target = select_live(st, client, now);
  if (target == 0 || target == st.active_ap) {
    // No live AP has an eligible median: a dwell on a dead AP silences the
    // client's uplink, so every ESNR window goes stale within ~W of the
    // crash.  Last resort: the live AP with the best last-known reading for
    // this client — a stale guess beats certain starvation on a dead AP.
    target = 0;
    double best_esnr = -1e300;
    for (const auto& [ap, rep] : st.last_report) {
      if (ap == st.active_ap || !ap_live(ap) || csi_frozen(st, ap)) continue;
      if (rep.esnr > best_esnr) {
        best_esnr = rep.esnr;
        target = ap;
      }
    }
  }
  if (target == 0 || target == st.active_ap) {
    if (obs_.decisions) {
      log_decision(client, st, now, DecisionOutcome::kDefer,
                   DecisionReason::kAllSuspect, /*chosen=*/0, Time::zero());
    }
    return;
  }
  if (obs_.decisions) {
    log_decision(client, st, now, DecisionOutcome::kSwitch, reason, target,
                 Time::zero());
  }
  if (reason == DecisionReason::kResync) {
    // A warm-restart re-adoption: no suspect event drove it, so it counts
    // under the resync machinery, not as a liveness reaction (the health
    // engine's liveness_fsm watchdog holds failovers <= suspects).
    ++stats_.resync_readoptions;
  } else {
    ++stats_.liveness_failovers;
    if (m_failovers_) m_failovers_->add();
  }
  // The incumbent is dead: plain stop-start semantics (no quench on ack),
  // whatever style the policy last used.
  begin_switch(client, st, target, SwitchStyle::kStopStart, Time::zero(),
               /*failover=*/true);
}

Time WgttController::retx_timeout(unsigned retx) const {
  // Hardened runs back off exponentially (1x, 2x, 4x, 8x, then capped):
  // under adversarial loss a flat timer synchronizes retransmission storms
  // with the fault window.  Fault-free runs keep the paper's flat 30 ms.
  if (injector_ == nullptr || retx == 0) return cfg_.ack_timeout;
  const unsigned shift = std::min(retx, 3u);
  return Time::ns(cfg_.ack_timeout.to_ns() << shift);
}

void WgttController::log_liveness(net::NodeId ap, const char* event,
                                  std::uint32_t flaps, Time quarantine) {
  WGTT_LOG(kInfo, "liveness",
           "ap=" << ap << " " << event << " flaps=" << flaps);
  if (obs_.decisions) {
    LivenessRecord rec;
    rec.t = sched_.now();
    rec.ap = ap;
    rec.event = event;
    rec.flaps = flaps;
    rec.quarantine = quarantine;
    obs_.decisions->append_liveness(rec);
  }
}

void WgttController::broadcast_active(net::NodeId client, net::NodeId ap,
                                      bool bootstrap, bool overlap) {
  // One version draw per broadcast (hardened runs): every AP receives the
  // same (epoch, version), so a reordered older broadcast loses to a newer
  // one at every receiver identically.
  std::uint32_t version = 0;
  if (injector_ != nullptr) version = ++client_state(client).active_version;
  const ActiveApMsg msg{client,  ap,      bootstrap,
                        overlap, version, fence_epoch()};
  for (net::NodeId dest : ap_ids_) send_to(dest, control_packet(msg));
}

// ---------------------------------------------------------------------------
// Warm restart (ctrl_crash faults)
// ---------------------------------------------------------------------------

void WgttController::on_ctrl_fault(bool down) {
  if (down == ctrl_down_) return;
  ctrl_down_ = down;
  if (down) {
    ++stats_.ctrl_crashes;
    // Crash semantics: every piece of soft state dies — association and
    // active-AP beliefs, switch FSMs (cancel their timers first), the
    // liveness monitor, and both dedup filters.  The APs keep transmitting
    // from their replicated state; only *coordination* is lost.
    for (auto& [client, st] : clients_) {
      if (st.switch_in_flight) sched_.cancel(st.retx_event);
      if (obs_.health) obs_.health->client_stranded(client, true, sched_.now());
    }
    clients_.clear();
    ap_health_.clear();
    dedup_ = Deduplicator();
    ctrl_dedup_.reset();
    // The per-link send sequencer survives deliberately: it models the
    // NIC-level counter, and resetting it would make post-restart frames
    // look like ancient duplicates to the APs' dedup windows.
    log_liveness(net::kControllerId, "ctrl_down", 0, Time::zero());
    WGTT_LOG(kWarn, "controller", "controller crashed (control state lost)");
  } else {
    ++stats_.ctrl_restarts;
    ++epoch_;
    next_switch_id_ = 1;  // ids restart; (epoch, id) stays monotonic
    for (net::NodeId ap : ap_ids_) {
      ApHealth h;
      h.last_heartbeat = sched_.now();
      ap_health_.emplace(ap, h);
    }
    if (m_live_aps_) m_live_aps_->set(static_cast<double>(ap_ids_.size()));
    log_liveness(net::kControllerId, "ctrl_restart", epoch_, Time::zero());
    WGTT_LOG(kInfo, "controller",
             "controller restarted (epoch " << epoch_ << "), resyncing");
    broadcast_resync_request();
  }
}

void WgttController::broadcast_resync_request() {
  ++stats_.resync_rounds;
  if (m_resyncs_) m_resyncs_->add();
  for (net::NodeId ap : ap_ids_) {
    send_to(ap, control_packet(ResyncRequestMsg{epoch_}));
  }
}

void WgttController::handle_resync_report(const ResyncReportMsg& msg) {
  // epoch == 0 marks an unsolicited rejoin report (an AP recovering from its
  // own crash); anything else must match the current epoch, or the report
  // predates an even later restart and would poison the rebuild.
  if (msg.epoch != 0 && msg.epoch != epoch_) {
    ++stats_.stale_resyncs;
    if (m_stale_rejected_) m_stale_rejected_->add();
    return;
  }
  ++stats_.resync_reports;
  const Time now = sched_.now();
  for (const ResyncEntry& e : msg.entries) {
    ClientState& st = client_state(e.info.client);
    st.associated = true;
    if (!e.active) continue;
    if (st.active_ap == 0 && !st.switch_in_flight) {
      // First active claim for this client: adopt it.
      st.active_ap = msg.ap;
      st.last_switch = now;
      ++stats_.resync_adoptions;
      if (obs_.decisions) {
        log_decision(e.info.client, st, now, DecisionOutcome::kKeep,
                     DecisionReason::kResync, msg.ap, Time::zero());
      }
      broadcast_active(e.info.client, msg.ap, /*bootstrap=*/false);
    } else if (st.active_ap != msg.ap) {
      // A second AP also believes it transmits to this client (crash or
      // recovery raced a switch): keep the adopted claim, quench this one.
      ++stats_.resync_conflicts;
      send_quench(msg.ap, e.info.client, st.active_ap, 0);
    }
  }
}

}  // namespace wgtt::core
