// TCP Reno (with NewReno-style partial-ack handling), simplified but
// phenomenologically faithful: slow start, congestion avoidance, triple-
// duplicate-ACK fast retransmit / fast recovery, and an RFC 6298-style
// retransmission timeout with exponential backoff and a 200 ms floor —
// the Linux minimum that produces the multi-second stalls the paper's
// Fig. 14 shows when Enhanced 802.11r strands a queue at a dead AP.
//
// The connection object holds both endpoints' state; the *network* between
// them is external: the owner wires `transmit_data` / `transmit_ack` into
// the simulated downlink/uplink paths and feeds arrivals back through
// on_network_data() / on_network_ack().
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "net/packet.h"
#include "obs/context.h"
#include "sim/scheduler.h"
#include "transport/udp_flow.h"  // IpIdAllocator
#include "util/metrics.h"
#include "util/stats.h"

namespace wgtt::transport {

struct TcpConfig {
  std::size_t mss = 1448;
  std::size_t initial_cwnd_segments = 10;
  std::size_t receive_window_bytes = 256 * 1024;
  Time min_rto = Time::ms(200);
  Time max_rto = Time::sec(60);
  Time initial_rto = Time::sec(1);
  std::size_t ack_bytes = 52;  // 40 header + options
  Time throughput_bin = Time::ms(500);
};

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t dup_acks = 0;
};

class TcpConnection {
 public:
  TcpConnection(sim::Scheduler& sched, IpIdAllocator& ip_ids, TcpConfig cfg,
                std::uint32_t flow_id, net::NodeId sender,
                net::NodeId receiver);

  /// Outbound hooks (into the simulated network).
  std::function<void(net::PacketPtr)> transmit_data;  // sender side egress
  std::function<void(net::PacketPtr)> transmit_ack;   // receiver side egress
  /// In-order bytes handed to the receiving application.
  std::function<void(std::size_t bytes, Time when)> on_app_receive;

  /// Append bytes to the sender's stream (bulk sources call once with a
  /// huge count; request/response apps call per message).
  void app_send(std::size_t bytes);

  /// Network ingress.
  void on_network_data(const net::PacketPtr& pkt);  // at receiver
  void on_network_ack(const net::PacketPtr& pkt);   // at sender

  // -- introspection ---------------------------------------------------
  std::uint64_t delivered_bytes() const { return rcv_nxt_; }
  std::uint64_t acked_bytes() const { return snd_una_; }
  double cwnd_segments() const {
    return static_cast<double>(cwnd_) / static_cast<double>(cfg_.mss);
  }
  Time srtt() const { return srtt_; }
  const TcpStats& stats() const { return stats_; }
  const ThroughputSeries& goodput() const { return goodput_; }
  std::uint32_t flow_id() const { return flow_id_; }
  net::NodeId sender() const { return sender_; }
  net::NodeId receiver() const { return receiver_; }

 private:
  // -- sender side -------------------------------------------------------
  void try_send();
  void send_segment(std::uint64_t seq_start, bool is_retransmission);
  void arm_rto();
  void on_rto();
  void enter_fast_recovery();
  void update_rtt(Time sample);
  std::uint64_t flight_size() const {
    return snd_nxt_ >= snd_una_ ? snd_nxt_ - snd_una_ : 0;
  }

  // -- receiver side -----------------------------------------------------
  void deliver_in_order();
  void send_ack();

  sim::Scheduler& sched_;
  IpIdAllocator& ip_ids_;
  TcpConfig cfg_;
  std::uint32_t flow_id_;
  net::NodeId sender_;
  net::NodeId receiver_;

  // Sender state.
  std::uint64_t app_limit_ = 0;  // bytes the app has made available
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::size_t cwnd_;
  std::size_t ssthresh_;
  unsigned dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_point_ = 0;
  Time rto_;
  Time srtt_ = Time::zero();
  Time rttvar_ = Time::zero();
  bool have_rtt_ = false;
  sim::EventId rto_event_;
  bool rto_armed_ = false;
  /// seq_end -> (send time, was retransmitted) for RTT sampling (Karn).
  std::map<std::uint64_t, std::pair<Time, bool>> rtt_probes_;
  double ca_accumulator_ = 0.0;  // fractional cwnd growth in CA

  // Receiver state.
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> ooo_;  // start -> end intervals

  TcpStats stats_;
  ThroughputSeries goodput_;
  // Instrumentation (null when the sim has no metrics sink).
  obs::Context obs_ = obs::Context::current();
  metrics::Counter* m_retransmissions_ = nullptr;
  metrics::Counter* m_timeouts_ = nullptr;
};

}  // namespace wgtt::transport
