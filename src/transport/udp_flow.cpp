#include "transport/udp_flow.h"

namespace wgtt::transport {

UdpSender::UdpSender(sim::Scheduler& sched, IpIdAllocator& ip_ids,
                     UdpFlowConfig cfg)
    : sched_(sched), ip_ids_(ip_ids), cfg_(cfg) {
  const double pps =
      cfg_.offered_load_bps / (static_cast<double>(cfg_.datagram_bytes) * 8.0);
  interval_ = Time::sec(1.0 / pps);
}

void UdpSender::start() {
  if (running_) return;
  running_ = true;
  emit();
}

void UdpSender::emit() {
  if (!running_) return;
  net::Packet p;
  p.type = net::PacketType::kData;
  p.src = cfg_.src;
  p.dst = cfg_.dst;
  p.flow_id = cfg_.flow_id;
  p.seq = next_seq_++;
  p.ip_id = ip_ids_.next(cfg_.src);
  p.size_bytes = cfg_.datagram_bytes + 28;  // IP + UDP headers
  p.created = sched_.now();
  net::PacketPtr out = net::make_packet(std::move(p));
  obs_.hop(*out, sched_.now(), net::Hop::kTransportSend, cfg_.src,
           transmit ? obs::Ledger::kSent : obs::Ledger::kNone,
           {{"flow", cfg_.flow_id},
            {"seq", static_cast<std::int64_t>(out->seq)}},
           {{"flow", cfg_.flow_id}});
  if (transmit) transmit(std::move(out));
  sched_.schedule(interval_, [this]() { emit(); });
}

UdpReceiver::UdpReceiver(sim::Scheduler& sched, Time throughput_bin)
    : sched_(sched), series_(throughput_bin) {}

void UdpReceiver::on_packet(const net::PacketPtr& pkt) {
  const std::uint64_t seq = pkt->seq;
  if (seq >= seen_.size()) seen_.resize(seq + 1024, false);
  if (seen_[seq]) {
    ++duplicates_;
    obs_.drop(*pkt, sched_.now(), net::Hop::kTransportRx, pkt->dst,
              net::DropCause::kDuplicate,
              {{"flow", pkt->flow_id},
               {"seq", static_cast<std::int64_t>(seq)},
               {"dup", 1}});
    return;
  }
  obs_.hop(*pkt, sched_.now(), net::Hop::kTransportRx, pkt->dst,
           obs::Ledger::kDelivered,
           {{"flow", pkt->flow_id},
            {"seq", static_cast<std::int64_t>(seq)},
            {"dup", 0}},
           {{"flow", pkt->flow_id}});
  seen_[seq] = true;
  ++received_;
  highest_seq_ = std::max(highest_seq_, seq + 1);
  series_.add(sched_.now(), pkt->size_bytes);
  if (trace_enabled_) trace_.emplace_back(sched_.now(), seq);
}

double UdpReceiver::loss_rate() const {
  if (highest_seq_ == 0) return 0.0;
  return 1.0 - static_cast<double>(received_) /
                   static_cast<double>(highest_seq_);
}

}  // namespace wgtt::transport
