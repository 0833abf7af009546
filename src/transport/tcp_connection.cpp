#include "transport/tcp_connection.h"

#include <algorithm>

namespace wgtt::transport {

TcpConnection::TcpConnection(sim::Scheduler& sched, IpIdAllocator& ip_ids,
                             TcpConfig cfg, std::uint32_t flow_id,
                             net::NodeId sender, net::NodeId receiver)
    : sched_(sched),
      ip_ids_(ip_ids),
      cfg_(cfg),
      flow_id_(flow_id),
      sender_(sender),
      receiver_(receiver),
      cwnd_(cfg.mss * cfg.initial_cwnd_segments),
      ssthresh_(cfg.receive_window_bytes),
      rto_(cfg.initial_rto),
      goodput_(cfg.throughput_bin) {
  if (auto* reg = obs_.metrics) {
    m_retransmissions_ = &reg->counter("transport.tcp_retransmissions");
    m_timeouts_ = &reg->counter("transport.tcp_timeouts");
  }
}

void TcpConnection::app_send(std::size_t bytes) {
  app_limit_ += bytes;
  try_send();
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

void TcpConnection::try_send() {
  const std::uint64_t window =
      std::min<std::uint64_t>(cwnd_, cfg_.receive_window_bytes);
  while (snd_nxt_ < app_limit_ && snd_nxt_ - snd_una_ < window) {
    send_segment(snd_nxt_, /*is_retransmission=*/false);
    snd_nxt_ += std::min<std::uint64_t>(cfg_.mss, app_limit_ - snd_nxt_);
  }
  if (flight_size() > 0 && !rto_armed_) arm_rto();
}

void TcpConnection::send_segment(std::uint64_t seq_start,
                                 bool is_retransmission) {
  const std::size_t payload = static_cast<std::size_t>(
      std::min<std::uint64_t>(cfg_.mss, app_limit_ - seq_start));
  if (payload == 0) return;
  net::Packet p;
  p.type = net::PacketType::kData;
  p.src = sender_;
  p.dst = receiver_;
  p.flow_id = flow_id_;
  p.seq = seq_start;
  p.ip_id = ip_ids_.next(sender_);
  p.size_bytes = payload + 52;  // IP + TCP headers
  p.created = sched_.now();
  ++stats_.segments_sent;
  if (is_retransmission) {
    ++stats_.retransmissions;
    if (m_retransmissions_) m_retransmissions_->add();
  }

  const std::uint64_t seq_end = seq_start + payload;
  auto [it, inserted] =
      rtt_probes_.try_emplace(seq_end, sched_.now(), is_retransmission);
  if (!inserted) {
    it->second.second = true;  // Karn: never sample a retransmitted range
  }
  net::PacketPtr out = net::make_packet(std::move(p));
  const std::int64_t retx = is_retransmission ? 1 : 0;
  obs_.hop(*out, sched_.now(), net::Hop::kTransportSend, sender_,
           transmit_data ? obs::Ledger::kSent : obs::Ledger::kNone,
           {{"flow", flow_id_},
            {"seq", static_cast<std::int64_t>(seq_start)},
            {"retx", retx}},
           {{"flow", flow_id_}, {"retx", retx}});
  if (transmit_data) transmit_data(std::move(out));
}

void TcpConnection::arm_rto() {
  rto_armed_ = true;
  rto_event_ = sched_.schedule(rto_, [this]() { on_rto(); });
}

void TcpConnection::on_rto() {
  rto_armed_ = false;
  if (flight_size() == 0) return;
  ++stats_.timeouts;
  if (m_timeouts_) m_timeouts_->add();
  // RFC 5681 loss recovery by timeout: collapse to one segment, go-back-N.
  ssthresh_ = std::max<std::size_t>(static_cast<std::size_t>(flight_size()) / 2,
                                    2 * cfg_.mss);
  cwnd_ = cfg_.mss;
  in_recovery_ = false;
  dup_acks_ = 0;
  snd_nxt_ = snd_una_;
  rto_ = std::min(rto_ * 2.0, cfg_.max_rto);  // Karn backoff
  rtt_probes_.clear();
  try_send();
}

void TcpConnection::update_rtt(Time sample) {
  // RFC 6298.
  if (!have_rtt_) {
    srtt_ = sample;
    rttvar_ = sample * 0.5;
    have_rtt_ = true;
  } else {
    const Time delta = srtt_ > sample ? srtt_ - sample : sample - srtt_;
    rttvar_ = rttvar_ * 0.75 + delta * 0.25;
    srtt_ = srtt_ * 0.875 + sample * 0.125;
  }
  Time candidate = srtt_ + std::max(Time::ms(10), rttvar_ * 4.0);
  rto_ = std::clamp(candidate, cfg_.min_rto, cfg_.max_rto);
}

void TcpConnection::enter_fast_recovery() {
  ++stats_.fast_retransmits;
  ssthresh_ = std::max<std::size_t>(static_cast<std::size_t>(flight_size()) / 2,
                                    2 * cfg_.mss);
  cwnd_ = ssthresh_ + 3 * cfg_.mss;
  in_recovery_ = true;
  recover_point_ = snd_nxt_;
  send_segment(snd_una_, /*is_retransmission=*/true);
}

void TcpConnection::on_network_ack(const net::PacketPtr& pkt) {
  // Every ack instance reaching the sender terminates here (dup-acks too) —
  // the health ledger counts it delivered regardless of how it advances cwnd.
  ++stats_.acks_received;
  const std::uint64_t ack = pkt->seq;
  obs_.hop(*pkt, sched_.now(), net::Hop::kTransportRx, sender_,
           obs::Ledger::kDelivered,
           {{"flow", flow_id_}, {"ack", static_cast<std::int64_t>(ack)}},
           {{"flow", flow_id_}});

  if (ack <= snd_una_) {
    if (ack == snd_una_ && flight_size() > 0) {
      ++stats_.dup_acks;
      ++dup_acks_;
      if (in_recovery_) {
        cwnd_ += cfg_.mss;  // inflate during recovery
        try_send();
      } else if (dup_acks_ == 3) {
        enter_fast_recovery();
      }
    }
    return;
  }

  // New data acknowledged.
  const std::uint64_t newly_acked = ack - snd_una_;
  snd_una_ = ack;
  // A late ACK can arrive for data sent before an RTO rolled snd_nxt_ back
  // (go-back-N); the send point can never sit behind the ack point.
  if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
  dup_acks_ = 0;

  // RTT sample from the newest fully-acked, never-retransmitted probe.
  for (auto it = rtt_probes_.begin();
       it != rtt_probes_.end() && it->first <= ack;) {
    if (!it->second.second) update_rtt(sched_.now() - it->second.first);
    it = rtt_probes_.erase(it);
  }

  if (in_recovery_) {
    if (ack >= recover_point_) {
      // Full recovery.
      in_recovery_ = false;
      cwnd_ = ssthresh_;
    } else {
      // NewReno partial ack: retransmit the next hole, deflate.
      send_segment(snd_una_, /*is_retransmission=*/true);
      cwnd_ = cwnd_ > newly_acked ? cwnd_ - static_cast<std::size_t>(newly_acked)
                                  : cfg_.mss;
      cwnd_ += cfg_.mss;
    }
  } else if (cwnd_ < ssthresh_) {
    cwnd_ += static_cast<std::size_t>(newly_acked);  // slow start
  } else {
    // Congestion avoidance: +1 MSS per cwnd of acked data.
    ca_accumulator_ += static_cast<double>(newly_acked) *
                       static_cast<double>(cfg_.mss) /
                       static_cast<double>(cwnd_);
    if (ca_accumulator_ >= cfg_.mss) {
      cwnd_ += cfg_.mss;
      ca_accumulator_ -= cfg_.mss;
    }
  }

  // Re-arm the retransmission timer (RFC 6298 5.3).
  if (rto_armed_) {
    sched_.cancel(rto_event_);
    rto_armed_ = false;
  }
  if (flight_size() > 0) arm_rto();
  try_send();
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

void TcpConnection::on_network_data(const net::PacketPtr& pkt) {
  const std::uint64_t start = pkt->seq;
  const std::uint64_t payload = pkt->size_bytes - 52;
  const std::uint64_t end = start + payload;
  // Stale duplicates terminate here just like fresh data: every instance
  // reaching the receiver leaves the in-flight ledger.
  obs_.hop(*pkt, sched_.now(), net::Hop::kTransportRx, receiver_,
           obs::Ledger::kDelivered,
           {{"flow", flow_id_},
            {"seq", static_cast<std::int64_t>(start)},
            {"dup", end <= rcv_nxt_ ? 1 : 0}},
           {{"flow", flow_id_}});
  if (end <= rcv_nxt_) {
    send_ack();  // stale duplicate: re-ack
    return;
  }
  // Record the interval, then pull forward everything now in order.
  auto [it, inserted] = ooo_.try_emplace(start, end);
  if (!inserted && it->second < end) it->second = end;
  deliver_in_order();
  send_ack();
}

void TcpConnection::deliver_in_order() {
  const std::uint64_t before = rcv_nxt_;
  for (auto it = ooo_.begin(); it != ooo_.end();) {
    if (it->first > rcv_nxt_) break;
    if (it->second > rcv_nxt_) rcv_nxt_ = it->second;
    it = ooo_.erase(it);
  }
  if (rcv_nxt_ > before) {
    const std::uint64_t bytes = rcv_nxt_ - before;
    goodput_.add(sched_.now(), static_cast<std::size_t>(bytes));
    if (on_app_receive) {
      on_app_receive(static_cast<std::size_t>(bytes), sched_.now());
    }
  }
}

void TcpConnection::send_ack() {
  ++stats_.acks_sent;
  net::Packet p;
  p.type = net::PacketType::kTcpAck;
  p.src = receiver_;
  p.dst = sender_;
  p.flow_id = flow_id_;
  p.seq = rcv_nxt_;  // cumulative acknowledgement
  p.ip_id = ip_ids_.next(receiver_);
  p.size_bytes = cfg_.ack_bytes;
  p.created = sched_.now();
  net::PacketPtr out = net::make_packet(std::move(p));
  obs_.hop(*out, sched_.now(), net::Hop::kTransportSend, receiver_,
           transmit_ack ? obs::Ledger::kSent : obs::Ledger::kNone,
           {{"flow", flow_id_}, {"ack", static_cast<std::int64_t>(rcv_nxt_)}},
           {{"flow", flow_id_}, {"ack", 1}});
  if (transmit_ack) transmit_ack(std::move(out));
}

}  // namespace wgtt::transport
