#include "mac/wifi_device.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"
#include "util/units.h"

namespace wgtt::mac {

// ---------------------------------------------------------------------------
// MacContext
// ---------------------------------------------------------------------------

MacContext::MacContext(sim::Scheduler& sched, Medium& medium,
                       const channel::ChannelModel& channel,
                       const phy::ErrorModel& error_model, Rng rng)
    : sched_(sched),
      medium_(medium),
      channel_(channel),
      error_model_(error_model),
      rng_(rng) {}

void MacContext::register_device(WifiDevice* dev) {
  assert(dev);
  by_id_[dev->id()] = dev;
  devices_.push_back(dev);
}

WifiDevice* MacContext::device(net::NodeId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// WifiDevice
// ---------------------------------------------------------------------------

namespace {
constexpr Time kPeriodicTick = Time::ms(5);
constexpr std::size_t kBlockAckBytes = 32;
constexpr std::size_t kNullFrameBytes = 36;
constexpr unsigned kMgmtRetryLimit = 7;
}  // namespace

WifiDevice::WifiDevice(MacContext& ctx, net::NodeId self, WifiDeviceConfig cfg)
    : ctx_(ctx),
      self_(self),
      cfg_(std::move(cfg)),
      airtime_(cfg_.airtime),
      aggregator_(airtime_),
      rng_(ctx.fork_rng(0xD0D0ull * 1000003 + self)),
      cw_(cfg_.airtime.cw_min) {
  if (!cfg_.rate_control_factory) {
    cfg_.rate_control_factory = [] {
      return std::make_unique<phy::MinstrelRateControl>();
    };
  }
  if (auto* reg = obs_.metrics) {
    m_airtime_ns_ =
        &reg->counter("mac.airtime_ns.node" + std::to_string(self_));
    m_airtime_total_ns_ = &reg->counter("mac.airtime_ns_total");
    m_ampdu_mpdus_ = &reg->histogram(
        "mac.ampdu_mpdus", metrics::exponential_buckets(1.0, 2.0, 7));
    m_ba_rollups_ = &reg->counter("mac.block_ack_rollups");
    m_mcs_index_ = &reg->histogram("phy.mcs_index",
                                   metrics::linear_buckets(0.0, 1.0, 16));
    m_esnr_db_ = &reg->histogram("phy.esnr_db",
                                 metrics::linear_buckets(-10.0, 5.0, 13));
  }
  if (auto* p = obs_.profiler) p_exchange_ = &p->section("mac.exchange");
  ctx_.register_device(this);
  ctx_.medium().attach(self_,
                       cfg_.is_ap
                           ? ctx_.channel().radio().ap_tx_power_dbm
                           : ctx_.channel().radio().client_tx_power_dbm,
                       cfg_.channel);
  periodic_tick();
}

void WifiDevice::periodic_tick() {
  const Time now = ctx_.sched().now();
  for (auto& [stream, buf] : reorder_) buf->flush_expired(now);
  // Client keepalive: make sure APs keep hearing us (CSI freshness).
  if (!cfg_.is_ap && cfg_.keepalive_interval > Time::zero() &&
      keepalive_peer_ != 0 &&
      now - last_uplink_tx_ >= cfg_.keepalive_interval && !mgmt_in_flight_ &&
      mgmt_queue_.empty()) {
    net::Packet null;
    null.type = net::PacketType::kMgmt;
    null.src = self_;
    null.dst = keepalive_peer_;
    null.size_bytes = kNullFrameBytes;
    null.created = now;
    send_management(keepalive_peer_, net::make_packet(null));
  }
  ctx_.sched().schedule(kPeriodicTick, [this]() { periodic_tick(); });
}

WifiDevice::PeerState& WifiDevice::peer_state(net::NodeId peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    PeerState st;
    st.rate_control = cfg_.rate_control_factory();
    it = peers_.emplace(peer, std::move(st)).first;
  }
  return it->second;
}

bool WifiDevice::enqueue(net::NodeId peer, net::PacketPtr pkt,
                         std::optional<std::uint16_t> explicit_seq) {
  PeerState& st = peer_state(peer);
  if (st.queue.size() >= cfg_.hw_queue_limit) return false;
  st.quench_pending = false;  // fresh traffic un-quenches the peer
  Mpdu m;
  m.pkt = std::move(pkt);
  if (explicit_seq) {
    m.seq = static_cast<std::uint16_t>(*explicit_seq & (kSeqModulo - 1));
    st.next_seq = static_cast<std::uint16_t>((m.seq + 1) & (kSeqModulo - 1));
  } else {
    m.seq = st.next_seq;
    st.next_seq = static_cast<std::uint16_t>((st.next_seq + 1) & (kSeqModulo - 1));
  }
  st.queue.push_back(std::move(m));
  maybe_start_tx();
  return true;
}

std::size_t WifiDevice::queue_depth(net::NodeId peer) const {
  auto it = peers_.find(peer);
  std::size_t n = it == peers_.end() ? 0 : it->second.queue.size();
  if (in_flight_ && in_flight_->peer == peer) n += in_flight_->aggregate.size();
  return n;
}

bool WifiDevice::has_room(net::NodeId peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return true;
  return it->second.queue.size() < cfg_.hw_queue_limit;
}

std::size_t WifiDevice::flush_queue(net::NodeId peer, net::DropCause cause) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return 0;
  const std::size_t n = it->second.queue.size();
  for (const Mpdu& m : it->second.queue) {
    obs_.drop(*m.pkt, ctx_.sched().now(), net::Hop::kMacDrop, self_, cause,
              {{"peer", peer}, {"seq", m.seq}});
  }
  it->second.queue.clear();
  if (in_flight_ && in_flight_->peer == peer) {
    it->second.quench_pending = true;
  }
  return n;
}

void WifiDevice::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (!down) {
    // Recovery: restart transmission if anything queued while we were dark
    // (management frames survive the crash flush).
    maybe_start_tx();
    return;
  }
  // Crash: everything still queued is lost with the radio.  The in-flight
  // exchange (if any) is quenched via the flush, so its unacked MPDUs are
  // dropped rather than re-queued when it resolves.
  for (auto& [peer, st] : peers_) {
    if (!st.queue.empty() || (in_flight_ && in_flight_->peer == peer)) {
      flush_queue(peer, net::DropCause::kFaultInjected);
    }
  }
}

void WifiDevice::set_refill_handler(net::NodeId peer,
                                    std::function<void()> fn) {
  peer_state(peer).refill = std::move(fn);
}

void WifiDevice::set_channel(unsigned ch, Time retune_pause) {
  if (ch == cfg_.channel) return;
  cfg_.channel = ch;
  ctx_.medium().set_channel(self_, ch);
  retuning_until_ = ctx_.sched().now() + retune_pause;
}

void WifiDevice::update_peer_esnr(net::NodeId peer, double esnr_db,
                                  Time now) {
  auto* esnr_rc =
      dynamic_cast<phy::EsnrRateControl*>(peer_state(peer).rate_control.get());
  if (esnr_rc) esnr_rc->update_esnr(esnr_db, now);
}

void WifiDevice::set_shadow_stream(net::NodeId peer, bool on) {
  // find(), not peer_state(): clearing shadow for a peer this radio never
  // queued for must not materialize per-peer MAC state.
  auto it = peers_.find(peer);
  if (it != peers_.end()) {
    it->second.shadow_stream = on;
  } else if (on) {
    peer_state(peer).shadow_stream = true;
  }
}

bool WifiDevice::shadow_stream(net::NodeId peer) const {
  auto it = peers_.find(peer);
  return it != peers_.end() && it->second.shadow_stream;
}

void WifiDevice::maybe_start_tx() {
  if (down_ || in_flight_ || tx_armed_ || mgmt_in_flight_) return;
  if (!mgmt_queue_.empty()) {
    start_mgmt_tx();
    return;
  }
  // Round-robin across peers with queued traffic.
  if (peers_.empty()) return;
  auto it = peers_.upper_bound(last_served_peer_);
  for (std::size_t i = 0; i <= peers_.size(); ++i) {
    if (it == peers_.end()) it = peers_.begin();
    if (!it->second.queue.empty()) break;
    ++it;
  }
  if (it == peers_.end() || it->second.queue.empty()) return;
  last_served_peer_ = it->first;

  PeerState& st = it->second;
  const Time now = ctx_.sched().now();
  const phy::McsInfo& mcs = st.rate_control->select(now);
  // Sampling probes ride on short aggregates, as Minstrel's do.
  const std::size_t max_frames =
      st.rate_control->last_was_probe() ? 4 : SIZE_MAX;
  PendingExchange ex;
  ex.peer = it->first;
  ex.mcs = &mcs;
  ex.aggregate = aggregator_.build(st.queue, mcs, max_frames);
  assert(!ex.aggregate.empty());
  ex.merged_ba.client = cfg_.is_ap ? ex.peer : self_;
  ex.merged_ba.addressed_ap = cfg_.is_ap ? self_ : ex.peer;
  ex.merged_ba.start_seq = ex.aggregate.front().seq;
  in_flight_ = std::move(ex);
  tx_armed_ = true;

  // The aggregate left the queue: give upper stages a chance to refill.
  if (st.refill && st.queue.size() < cfg_.hw_queue_limit) {
    ctx_.sched().schedule(Time::zero(), st.refill);
  }

  const Time duration = airtime_.exchange_duration(
      mcs, in_flight_->aggregate.size(),
      AmpduAggregator::total_bytes(in_flight_->aggregate));
  const auto slots = static_cast<unsigned>(rng_.uniform_int(0, cw_));
  ctx_.medium().request(self_, duration, slots, [this]() { begin_exchange(); });
}

double WifiDevice::effective_esnr_db(net::NodeId tx_node, net::NodeId rx_node,
                                     phy::Modulation mod, Time t,
                                     phy::Csi* csi_out) {
  using Direction = channel::ChannelModel::Direction;
  const WifiDevice* tx_dev = ctx_.device(tx_node);
  assert(tx_dev);
  const double link_esnr =
      tx_dev->is_ap()
          ? ctx_.channel().esnr_db(Direction::kDownlink, tx_node, rx_node, t,
                                   mod, csi_out)
          : ctx_.channel().esnr_db(Direction::kUplink, rx_node, tx_node, t,
                                   mod, csi_out);
  // Interference raises the effective noise floor.
  const double interference_mw =
      ctx_.medium().interference_mw_at(rx_node, tx_node);
  double shift_db = 0.0;
  if (interference_mw > 0.0) {
    const double noise_mw = dbm_to_mw(ctx_.channel().noise_floor_dbm());
    shift_db = linear_to_db(1.0 + interference_mw / noise_mw);
  }
  const double esnr = link_esnr - shift_db;
  if (m_esnr_db_) m_esnr_db_->record(esnr);
  return esnr;
}

void WifiDevice::begin_exchange() {
  prof::ScopedSection timer(p_exchange_);
  assert(in_flight_);
  tx_armed_ = false;
  const Time now = ctx_.sched().now();
  PendingExchange& ex = *in_flight_;
  const Time duration = airtime_.exchange_duration(
      *ex.mcs, ex.aggregate.size(), AmpduAggregator::total_bytes(ex.aggregate));
  // Channel is sampled mid-frame for the data and at the end for the BA.
  const Time data_time = now + (duration - airtime_.block_ack_duration()) * 0.5;
  const Time ba_time = now + duration - airtime_.block_ack_duration() * 0.5;

  ++stats_.aggregates_sent;
  stats_.mpdus_sent += ex.aggregate.size();
  if (!cfg_.is_ap) {
    ++stats_.uplink_frames_sent;
    last_uplink_tx_ = now;
  }
  if (m_airtime_ns_) {
    const auto ns = static_cast<std::uint64_t>(duration.to_ns());
    m_airtime_ns_->add(ns);
    m_airtime_total_ns_->add(ns);
    m_ampdu_mpdus_->record(static_cast<double>(ex.aggregate.size()));
    m_mcs_index_->record(static_cast<double>(ex.mcs->index));
  }
  if (obs_.tracer) {
    obs_.tracer->complete("mac", cfg_.is_ap ? "ampdu_dl" : "ampdu_ul", now,
                          duration, static_cast<std::int64_t>(self_),
                          {{"peer", static_cast<double>(ex.peer)},
                           {"mpdus", static_cast<double>(ex.aggregate.size())},
                           {"mcs", static_cast<double>(ex.mcs->index)}});
  }
  // One record per MPDU per transmission attempt: the MCS it rode at, which
  // A-MPDU carried it, and the attempt count (retries live in the per-AP
  // Mpdu, never on the shared packet).
  for (const Mpdu& m : ex.aggregate) {
    obs_.hop(*m.pkt, now, net::Hop::kMacTx, self_, obs::Ledger::kNone,
             {{"peer", ex.peer},
              {"seq", m.seq},
              {"attempt", m.retries + 1},
              {"mcs", ex.mcs->index},
              {"ampdu", static_cast<std::int64_t>(stats_.aggregates_sent)}},
             {{"dev", self_}, {"peer", ex.peer}, {"attempt", m.retries + 1}});
  }

  evaluate_receptions(ex, data_time, ba_time);

  ex.completion_event =
      ctx_.sched().schedule(duration, [this]() { complete_exchange(); });
}

void WifiDevice::evaluate_receptions(PendingExchange& ex, Time data_time,
                                     Time ba_time) {
  const phy::ErrorModel& em = ctx_.error_model();
  const Time deliver_at = ba_time;  // receptions surface when the frame ends

  if (cfg_.is_ap) {
    // ---- Downlink: self (AP) -> client `ex.peer`. -------------------------
    WifiDevice* client = ctx_.device(ex.peer);
    BlockAckInfo ba;
    ba.client = ex.peer;
    ba.addressed_ap = self_;
    ba.start_seq = ex.aggregate.front().seq;
    bool client_got_any = false;
    if (client && client->channel() == cfg_.channel &&
        client->can_receive(data_time)) {
      phy::Csi csi;
      const double esnr = effective_esnr_db(self_, ex.peer,
                                            ex.mcs->modulation, data_time, &csi);
      auto meta = std::make_shared<const RxMeta>(
          RxMeta{self_, csi, true, ex.mcs->index});
      // Overlap windows deliver under our own id, not the shared BSSID, so
      // the client's reorder buffer treats us as an independent transmitter
      // and duplicate copies surface at the IP layer (set_shadow_stream()).
      const net::NodeId stream = shadow_stream(ex.peer) ? self_ : cfg_.bssid;
      // One delivery event per aggregate, not per MPDU: the per-MPDU events
      // all carried the same timestamp and consecutive sequence numbers, so
      // delivering them back-to-back from one callback preserves execution
      // order exactly while shedding the per-MPDU event and closure-copy
      // cost (the shared meta also spares one 472-byte Csi copy per MPDU).
      std::vector<std::pair<std::uint16_t, net::PacketPtr>> delivered;
      for (const Mpdu& m : ex.aggregate) {
        if (rng_.bernoulli(em.delivery_probability(*ex.mcs, esnr,
                                                   m.pkt->size_bytes))) {
          ba.bitmap.set(seq_distance(ba.start_seq, m.seq));
          client_got_any = true;
          delivered.emplace_back(m.seq, m.pkt);
        }
      }
      if (!delivered.empty()) {
        ctx_.sched().schedule_at(
            deliver_at, [client, stream, batch = std::move(delivered),
                         meta]() {
              for (const auto& [seq, pkt] : batch) {
                client->deliver_upward(stream, seq, pkt, *meta);
              }
            });
      }
    }
    if (client_got_any) {
      // The client responds with a Block ACK; evaluate who hears it.
      // 1. Ourselves (the transmitting AP):
      phy::Csi ba_csi;
      const double ba_esnr = effective_esnr_db(
          ex.peer, self_, phy::basic_mcs().modulation, ba_time, &ba_csi);
      const double ba_p =
          em.delivery_probability(phy::basic_mcs(), ba_esnr, kBlockAckBytes);
      if (rng_.bernoulli(ba_p)) {
        ex.own_ba = true;
        ex.any_ba = true;
        ex.merged_ba = ba;
        // A decoded BA is also an uplink frame: a CSI sample (§3.1.1).
        if (on_frame_heard) {
          RxMeta meta;
          meta.transmitter = ex.peer;
          meta.csi = ba_csi;
          meta.addressed = true;
          ctx_.sched().schedule_at(deliver_at, [this, meta]() {
            if (on_frame_heard) on_frame_heard(meta);
          });
        }
      }
      // 2. Monitor-mode APs overhear the BA (§3.2.1).
      for (WifiDevice* m : ctx_.devices()) {
        if (m == this || !m->is_ap() || !m->monitor_enabled()) continue;
        if (m->channel() != cfg_.channel) continue;
        phy::Csi mcsi;
        const double mesnr = effective_esnr_db(
            ex.peer, m->id(), phy::basic_mcs().modulation, ba_time, &mcsi);
        if (!rng_.bernoulli(em.delivery_probability(phy::basic_mcs(), mesnr,
                                                    kBlockAckBytes))) {
          continue;
        }
        RxMeta meta;
        meta.transmitter = ex.peer;
        meta.csi = mcsi;
        meta.addressed = false;
        ctx_.sched().schedule_at(deliver_at, [m, ba, meta]() {
          if (m->on_frame_heard) m->on_frame_heard(meta);
          if (m->on_overheard_block_ack) m->on_overheard_block_ack(ba, meta);
        });
      }
    }
    return;
  }

  // ---- Uplink: self (client) -> shared BSSID `ex.peer`. -------------------
  struct Decoder {
    WifiDevice* ap = nullptr;
    BlockAckInfo ba;
    bool addressed = false;   // AP-mode interface of our BSSID
    double power_dbm = -200.0;  // power of ITS response at the client
    double delay_us = 0.0;
    phy::Csi csi;
  };
  std::vector<Decoder> decoders;
  for (WifiDevice* d : ctx_.devices()) {
    if (d == this || !d->is_ap()) continue;
    if (d->channel() != cfg_.channel || !d->can_receive(data_time)) continue;
    const bool addressed = d->bssid() == ex.peer;
    if (!addressed && !d->monitor_enabled()) continue;
    phy::Csi csi;
    const double esnr =
        effective_esnr_db(self_, d->id(), ex.mcs->modulation, data_time, &csi);
    Decoder dec;
    dec.ap = d;
    dec.addressed = addressed;
    dec.csi = csi;
    dec.ba.client = self_;
    dec.ba.addressed_ap = d->id();
    dec.ba.start_seq = ex.aggregate.front().seq;
    bool got_any = false;
    // One delivery event per (aggregate, decoder) with one shared meta —
    // see the downlink path for the order-equivalence argument.
    std::vector<std::pair<std::uint16_t, net::PacketPtr>> delivered;
    for (const Mpdu& m : ex.aggregate) {
      if (rng_.bernoulli(
              em.delivery_probability(*ex.mcs, esnr, m.pkt->size_bytes))) {
        dec.ba.bitmap.set(seq_distance(dec.ba.start_seq, m.seq));
        got_any = true;
        delivered.emplace_back(m.seq, m.pkt);
      }
    }
    if (!got_any) continue;
    auto meta = std::make_shared<const RxMeta>(
        RxMeta{self_, csi, addressed, ex.mcs->index});
    {
      WifiDevice* ap = d;
      ctx_.sched().schedule_at(
          deliver_at,
          [ap, stream = self_, batch = std::move(delivered), meta]() {
            for (const auto& [seq, pkt] : batch) {
              ap->deliver_upward(stream, seq, pkt, *meta);
            }
          });
    }
    // CSI report opportunity for every AP that decoded the frame.
    {
      WifiDevice* ap = d;
      ctx_.sched().schedule_at(deliver_at, [ap, meta]() {
        if (ap->on_frame_heard) ap->on_frame_heard(*meta);
      });
    }
    if (addressed) {
      // This AP will respond with a BA (HT-immediate with jitter, §5.3.2).
      dec.delay_us = rng_.uniform(0.0, cfg_.ack_jitter_us);
      dec.power_dbm =
          ctx_.channel().downlink_rssi_dbm(d->id(), self_, ba_time);
      decoders.push_back(std::move(dec));
    }
  }

  // No BA when nobody heard us or the responding APs' BAs collided.
  const Decoder* winner = ack_winner(decoders);
  if (winner == nullptr) return;
  // Client decodes the winner's BA subject to its downlink channel.
  const double ba_esnr = effective_esnr_db(
      winner->ap->id(), self_, phy::basic_mcs().modulation, ba_time, nullptr);
  if (rng_.bernoulli(em.delivery_probability(phy::basic_mcs(), ba_esnr,
                                             kBlockAckBytes))) {
    ex.any_ba = true;
    ex.own_ba = true;
    ex.merged_ba = winner->ba;
  }
}

template <class Response>
const Response* WifiDevice::ack_winner(std::vector<Response>& responses) {
  if (responses.empty()) return nullptr;
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) {
              return a.delay_us < b.delay_us;
            });
  const Response& first = responses.front();
  for (std::size_t i = 1; i < responses.size(); ++i) {
    if (responses[i].delay_us - first.delay_us < cfg_.ack_overlap_us &&
        responses[i].power_dbm > first.power_dbm - cfg_.ack_capture_db) {
      ++stats_.ack_collisions;
      return nullptr;
    }
  }
  return &first;
}

void WifiDevice::deliver_upward(net::NodeId stream, std::uint16_t seq,
                                net::PacketPtr pkt, const RxMeta& meta) {
  // Every decode at a receiving radio is an independent ledger instance:
  // several APs can decode the same uplink frame (the controller de-dupes),
  // and the health engine accounts each such copy separately.
  obs_.hop(*pkt, ctx_.sched().now(), net::Hop::kMacRx, self_,
           obs::Ledger::kCopy, {{"stream", stream}, {"seq", seq}});
  const net::PacketType type = pkt->type;
  auto it = reorder_.find(stream);
  if (it == reorder_.end()) {
    auto deliver = [this, stream](net::PacketPtr p) {
      if (on_deliver) on_deliver(std::move(p), reorder_meta_[stream]);
    };
    it = reorder_
             .emplace(stream, std::make_unique<ReorderBuffer>(deliver))
             .first;
  }
  reorder_meta_[stream] = meta;
  ReorderBuffer& rb = *it->second;
  const std::uint64_t dups_before = rb.duplicates_dropped();
  rb.on_mpdu(seq, std::move(pkt), ctx_.sched().now());
  if (net::flight_recorded(type)) {
    // Duplicate/stale discard inside the BA reorder window: a benign
    // termination of this receiver instance (the first copy was delivered).
    obs_.count(obs::Ledger::kRetired, rb.duplicates_dropped() - dups_before);
  }
}

void WifiDevice::complete_exchange() {
  prof::ScopedSection timer(p_exchange_);
  assert(in_flight_);
  if (!in_flight_->any_ba && cfg_.ba_completion_grace > Time::zero()) {
    // Hold the exchange open: a forwarded BA may still arrive over the
    // backhaul (§3.2.1).  finish via apply_external_block_ack() or timeout.
    in_flight_->completion_event = ctx_.sched().schedule(
        cfg_.ba_completion_grace, [this]() {
          PendingExchange ex = std::move(*in_flight_);
          in_flight_.reset();
          finish_exchange_with_ba(std::move(ex));
        });
    awaiting_external_ba_ = true;
    return;
  }
  PendingExchange ex = std::move(*in_flight_);
  in_flight_.reset();
  finish_exchange_with_ba(std::move(ex));
}

bool WifiDevice::apply_external_block_ack(const BlockAckInfo& ba) {
  if (!in_flight_ || !awaiting_external_ba_) return false;
  PendingExchange& ex = *in_flight_;
  if (ba.client != ex.merged_ba.client) return false;
  if (seq_distance(ex.merged_ba.start_seq, ba.start_seq) != 0 &&
      !ba.acks(ex.merged_ba.start_seq)) {
    // Bitmap does not cover this aggregate's window.
    return false;
  }
  ++stats_.block_acks_recovered;
  if (m_ba_rollups_) m_ba_rollups_->add();
  if (obs_.tracer) {
    obs_.tracer->instant("mac", "ba_rollup", ctx_.sched().now(),
                         static_cast<std::int64_t>(self_),
                         {{"client", static_cast<double>(ba.client)}});
  }
  ex.any_ba = true;
  ex.merged_ba.bitmap |= ba.bitmap;
  if (seq_distance(ex.merged_ba.start_seq, ba.start_seq) != 0) {
    // Align: rebuild bitmap relative to our start sequence.
    BlockAckInfo aligned = ex.merged_ba;
    aligned.bitmap.reset();
    for (std::size_t i = 0; i < kBaWindow; ++i) {
      const auto seq = static_cast<std::uint16_t>(
          (ex.merged_ba.start_seq + i) & (kSeqModulo - 1));
      if (ba.acks(seq)) aligned.bitmap.set(i);
    }
    ex.merged_ba = aligned;
  }
  // Complete immediately rather than waiting out the grace period.
  ctx_.sched().cancel(ex.completion_event);
  awaiting_external_ba_ = false;
  PendingExchange done = std::move(*in_flight_);
  in_flight_.reset();
  finish_exchange_with_ba(std::move(done));
  return true;
}

void WifiDevice::finish_exchange_with_ba(PendingExchange ex) {
  awaiting_external_ba_ = false;
  PeerState& st = peer_state(ex.peer);
  const auto attempted = static_cast<unsigned>(ex.aggregate.size());
  unsigned delivered = 0;
  std::vector<Mpdu> failed;
  if (ex.any_ba) {
    for (Mpdu& m : ex.aggregate) {
      if (ex.merged_ba.acks(m.seq)) {
        ++delivered;
        // The acked MPDU ends this transmitter's custody of the instance;
        // the receiving radio's decode already opened its own (packet_copies
        // in deliver_upward), so the ledger retires the transmit-side unit.
        obs_.hop(*m.pkt, ctx_.sched().now(), net::Hop::kMacAck, self_,
                 obs::Ledger::kRetired, {{"peer", ex.peer}, {"seq", m.seq}},
                 {{"dev", self_}, {"peer", ex.peer}});
      } else {
        failed.push_back(std::move(m));
      }
    }
    cw_ = cfg_.airtime.cw_min;
  } else {
    ++stats_.block_acks_lost;
    failed = std::move(ex.aggregate);
    cw_ = std::min(cfg_.airtime.cw_max, cw_ * 2 + 1);
  }
  stats_.mpdus_delivered += delivered;

  // Failed MPDUs re-enter at the head of the queue, oldest first, unless
  // they exhausted the retry budget or the peer was quenched mid-flight.
  const bool quench = st.quench_pending;
  st.quench_pending = false;
  for (auto it = failed.rbegin(); it != failed.rend(); ++it) {
    Mpdu& m = *it;
    if (quench || ++m.retries > cfg_.retry_limit) {
      ++stats_.mpdus_dropped;
      obs_.drop(*m.pkt, ctx_.sched().now(), net::Hop::kMacDrop, self_,
                quench ? net::DropCause::kQuench : net::DropCause::kRetryLimit,
                {{"peer", ex.peer}, {"seq", m.seq}, {"retries", m.retries}});
      if (on_mpdu_dropped) on_mpdu_dropped(ex.peer, m.pkt);
      continue;
    }
    obs_.hop(*m.pkt, ctx_.sched().now(), net::Hop::kMacRequeue, self_,
             obs::Ledger::kNone,
             {{"peer", ex.peer}, {"seq", m.seq}, {"retries", m.retries}},
             {{"dev", self_}, {"retries", m.retries}});
    st.queue.push_front(std::move(m));
  }

  st.rate_control->report(*ex.mcs, attempted, delivered, ctx_.sched().now());
  if (on_data_exchange) {
    on_data_exchange(ex.peer, *ex.mcs, attempted, delivered,
                     ctx_.sched().now());
  }
  if (st.refill && st.queue.size() < cfg_.hw_queue_limit) {
    ctx_.sched().schedule(Time::zero(), st.refill);
  }
  maybe_start_tx();
}

// ---------------------------------------------------------------------------
// Management path (beacons, association, null keepalives)
// ---------------------------------------------------------------------------

void WifiDevice::send_management(net::NodeId peer, net::PacketPtr pkt,
                                 std::function<void(bool)> done) {
  mgmt_queue_.push_back(MgmtTx{peer, std::move(pkt), std::move(done), 0});
  maybe_start_tx();
}

void WifiDevice::start_mgmt_tx() {
  assert(!mgmt_queue_.empty());
  mgmt_in_flight_ = true;
  const MgmtTx& tx = mgmt_queue_.front();
  const Time duration = airtime_.single_frame_duration(phy::basic_mcs(),
                                                       tx.pkt->size_bytes);
  const auto slots =
      static_cast<unsigned>(rng_.uniform_int(0, cfg_.airtime.cw_min));
  ctx_.medium().request(self_, duration, slots,
                        [this]() { run_mgmt_exchange(); });
}

void WifiDevice::run_mgmt_exchange() {
  prof::ScopedSection timer(p_exchange_);
  assert(!mgmt_queue_.empty());
  MgmtTx tx = mgmt_queue_.front();
  const Time now = ctx_.sched().now();
  const Time duration = airtime_.single_frame_duration(phy::basic_mcs(),
                                                       tx.pkt->size_bytes);
  const Time data_time = now + duration * 0.5;
  const phy::ErrorModel& em = ctx_.error_model();
  if (!cfg_.is_ap) last_uplink_tx_ = now;
  if (m_airtime_ns_) {
    const auto ns = static_cast<std::uint64_t>(duration.to_ns());
    m_airtime_ns_->add(ns);
    m_airtime_total_ns_->add(ns);
  }

  if (tx.peer == net::kBroadcast) {
    // Beacon-style: every device that can decode it receives it; no ACK.
    for (WifiDevice* d : ctx_.devices()) {
      if (d == this) continue;
      if (d->is_ap() == cfg_.is_ap) continue;  // AP beacons target clients
      if (d->channel() != cfg_.channel || !d->can_receive(data_time)) continue;
      phy::Csi csi;
      const double esnr = effective_esnr_db(
          self_, d->id(), phy::basic_mcs().modulation, data_time, &csi);
      if (!rng_.bernoulli(em.delivery_probability(
              phy::basic_mcs(), esnr, tx.pkt->size_bytes))) {
        continue;
      }
      RxMeta meta;
      meta.transmitter = self_;
      meta.csi = csi;
      meta.addressed = false;
      ctx_.sched().schedule_at(now + duration, [d, pkt = tx.pkt, meta]() {
        if (d->on_management) d->on_management(pkt, meta);
      });
    }
    ctx_.sched().schedule(duration, [this]() {
      mgmt_queue_.pop_front();
      mgmt_in_flight_ = false;
      maybe_start_tx();
    });
    return;
  }

  // Unicast management: decoded by the addressed device(s) — for a client
  // talking to a shared BSSID, that is every AP-mode radio of the BSSID —
  // and overheard by monitors.  ACKed by decoders (with the same multi-AP
  // response contention as data BAs).
  struct Responder {
    WifiDevice* dev;
    double delay_us;
    double power_dbm;
  };
  std::vector<Responder> responders;
  for (WifiDevice* d : ctx_.devices()) {
    if (d == this) continue;
    if (d->channel() != cfg_.channel || !d->can_receive(data_time)) continue;
    // A client can address a management frame either to a BSSID (all
    // AP-mode radios of that BSSID hear it) or to one physical AP (the
    // association handshake engages a single AP even in a shared-BSSID
    // network).
    const bool addressed =
        cfg_.is_ap ? d->id() == tx.peer
                   : (d->is_ap() &&
                      (d->bssid() == tx.peer || d->id() == tx.peer));
    const bool monitor = !cfg_.is_ap && d->is_ap() && d->monitor_enabled();
    if (!addressed && !monitor) continue;
    phy::Csi csi;
    const double esnr = effective_esnr_db(
        self_, d->id(), phy::basic_mcs().modulation, data_time, &csi);
    if (!rng_.bernoulli(em.delivery_probability(phy::basic_mcs(), esnr,
                                                tx.pkt->size_bytes))) {
      continue;
    }
    RxMeta meta;
    meta.transmitter = self_;
    meta.csi = csi;
    meta.addressed = addressed;
    ctx_.sched().schedule_at(now + duration, [d, pkt = tx.pkt, meta,
                                              from_client = !cfg_.is_ap]() {
      if (meta.addressed && d->on_management) d->on_management(pkt, meta);
      if (from_client && d->on_frame_heard) d->on_frame_heard(meta);
    });
    if (addressed) {
      Responder r;
      r.dev = d;
      r.delay_us = rng_.uniform(0.0, cfg_.ack_jitter_us);
      r.power_dbm = d->is_ap()
                        ? ctx_.channel().downlink_rssi_dbm(d->id(), self_, now)
                        : ctx_.channel().uplink_rssi_dbm(self_, d->id(), now);
      responders.push_back(r);
    }
  }

  bool acked = false;
  if (const Responder* winner = ack_winner(responders)) {
    const double ack_esnr =
        effective_esnr_db(winner->dev->id(), self_, phy::basic_mcs().modulation,
                          now + duration, nullptr);
    acked = rng_.bernoulli(
        em.delivery_probability(phy::basic_mcs(), ack_esnr, 14));
  }

  ctx_.sched().schedule(duration, [this, acked]() {
    MgmtTx& front = mgmt_queue_.front();
    if (acked || front.peer == net::kBroadcast) {
      auto done = std::move(front.done);
      mgmt_queue_.pop_front();
      mgmt_in_flight_ = false;
      if (done) done(true);
    } else if (++front.attempts >= kMgmtRetryLimit) {
      auto done = std::move(front.done);
      mgmt_queue_.pop_front();
      mgmt_in_flight_ = false;
      if (done) done(false);
    } else {
      mgmt_in_flight_ = false;  // retry via the normal path
    }
    maybe_start_tx();
  });
}

}  // namespace wgtt::mac
