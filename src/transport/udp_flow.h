// Constant-bit-rate UDP flow (the iperf3 -u of the paper's experiments).
//
// The sender emits fixed-size datagrams at a configured offered load; the
// receiver tracks sequence numbers, loss, reordering, and a binned
// throughput timeseries (paper Figs. 4, 15, 23).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/packet.h"
#include "obs/context.h"
#include "sim/scheduler.h"
#include "util/stats.h"

namespace wgtt::transport {

/// Allocates the per-source IP identification counter — the field the WGTT
/// controller keys its uplink de-duplication on (§3.2.2).
class IpIdAllocator {
 public:
  std::uint16_t next(net::NodeId src) { return counters_[src]++; }

 private:
  std::map<net::NodeId, std::uint16_t> counters_;
};

struct UdpFlowConfig {
  std::uint32_t flow_id = 0;
  net::NodeId src = 0;
  net::NodeId dst = 0;
  double offered_load_bps = 15e6;
  std::size_t datagram_bytes = 1472;  // + 28 header = 1500 on the wire
  Time throughput_bin = Time::ms(500);
};

class UdpSender {
 public:
  UdpSender(sim::Scheduler& sched, IpIdAllocator& ip_ids, UdpFlowConfig cfg);

  /// Where datagrams go (the downlink or uplink injection point).
  std::function<void(net::PacketPtr)> transmit;

  void start();
  void stop() { running_ = false; }
  std::uint64_t sent() const { return next_seq_; }
  const UdpFlowConfig& config() const { return cfg_; }

 private:
  void emit();

  sim::Scheduler& sched_;
  IpIdAllocator& ip_ids_;
  UdpFlowConfig cfg_;
  Time interval_;
  bool running_ = false;
  std::uint64_t next_seq_ = 0;
  obs::Context obs_ = obs::Context::current();
};

class UdpReceiver {
 public:
  explicit UdpReceiver(sim::Scheduler& sched,
                       Time throughput_bin = Time::ms(500));

  void on_packet(const net::PacketPtr& pkt);

  std::uint64_t received() const { return received_; }
  std::uint64_t duplicates() const { return duplicates_; }
  /// Highest sequence seen + 1 (= sender count if nothing in flight).
  std::uint64_t highest_seq() const { return highest_seq_; }
  /// Loss rate relative to the highest sequence seen.
  double loss_rate() const;
  /// Loss rate within a recent window of sequence space (for timeseries).
  const ThroughputSeries& throughput() const { return series_; }
  /// (time, seq) points for received-sequence plots (paper Fig. 4).
  const std::vector<std::pair<Time, std::uint64_t>>& trace() const {
    return trace_;
  }
  void enable_trace(bool on) { trace_enabled_ = on; }

 private:
  sim::Scheduler& sched_;
  ThroughputSeries series_;
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t highest_seq_ = 0;
  std::vector<bool> seen_;
  bool trace_enabled_ = false;
  std::vector<std::pair<Time, std::uint64_t>> trace_;
  obs::Context obs_ = obs::Context::current();
};

}  // namespace wgtt::transport
