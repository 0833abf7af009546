// Switched-Ethernet backhaul model.
//
// The WGTT testbed interconnects all APs and the controller through a wired
// Ethernet switch (paper §4).  We model it as a full mesh where each frame
// experiences store-and-forward serialization at the link rate plus a fixed
// propagation/switching latency and optional jitter.  Frames between a given
// (src, dst) pair are delivered in FIFO order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "net/fault_injector.h"
#include "net/packet.h"
#include "obs/context.h"
#include "sim/scheduler.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/time.h"

namespace wgtt::net {

struct BackhaulConfig {
  double link_rate_bps = 1e9;        // gigabit Ethernet
  Time base_latency = Time::us(100); // switch + cable + kernel path
  Time jitter = Time::us(20);        // uniform in [0, jitter]
  double loss_rate = 0.0;            // wired loss (normally 0; fault injection)
};

class Backhaul {
 public:
  using DeliverFn = std::function<void(const TunneledPacket&)>;

  Backhaul(sim::Scheduler& sched, BackhaulConfig cfg, Rng rng);

  /// Register the receive handler for a node.  A node must be attached
  /// before traffic can be delivered to it.
  void attach(NodeId node, DeliverFn on_receive);

  /// Send a tunneled frame; delivery is scheduled per the latency model.
  /// Frames to unattached nodes are counted as dropped.
  void send(TunneledPacket frame);

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  Time delivery_delay(std::size_t bytes);

  sim::Scheduler& sched_;
  BackhaulConfig cfg_;
  Rng rng_;
  std::map<NodeId, DeliverFn> nodes_;
  // Last scheduled delivery per (src, dst), to preserve FIFO order even when
  // jitter would reorder frames.
  std::map<std::pair<NodeId, NodeId>, Time> last_delivery_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
  // Instrumentation (null when the sim has no metrics sink).
  obs::Context obs_ = obs::Context::current();
  metrics::Histogram* m_latency_us_ = nullptr;
  metrics::Counter* m_bytes_ = nullptr;
  // Fault injection (null outside chaos runs): per-frame link impairment
  // queries; drop coins come from the injector's stream, not rng_.
  FaultInjector* injector_ = nullptr;
};

}  // namespace wgtt::net
