// The WGTT AP's per-client transmit buffering stack (paper Fig. 7).
//
// Four stages, mirroring the real packet path:
//
//   cyclic queue (Click, user level, 4096 slots)
//     -> kernel queue (mac80211 + driver transmit ring)
//       -> NIC internal queue (the WifiDevice per-peer hardware queue)
//         -> air
//
// When the AP is `active` for the client, the stack keeps the lower stages
// fed (pull model: the WifiDevice's refill callback drains upward demand).
// The index of the next packet to cross the kernel->NIC boundary is tracked
// exactly as the paper's modified ieee80211_ops_tx() does: it is the `k`
// returned by the stop-time ioctl and shipped in start(c, k).
//
// On stop(c): the stack pauses (no more NIC refills), flushes the kernel
// queue (those packets will be sent by the next AP, which already has them
// in its own cyclic queue), and leaves the NIC queue to drain over the air
// (~6 ms) — the paper's deliberate choice (§3.1.2).
#pragma once

#include <cstdint>
#include <deque>
#include <utility>

#include <optional>

#include "core/cyclic_queue.h"
#include "mac/wifi_device.h"
#include "net/packet.h"
#include "obs/context.h"
#include "sim/scheduler.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace wgtt::core {

struct QueueStackConfig {
  std::size_t kernel_queue_limit = 256;  // mac80211 + driver ring combined
  /// Packets that sat in the cyclic ring longer than this are dropped at
  /// dequeue time: with a 12-bit index space the ring wraps every few
  /// seconds at line rate, so anything this old is from a previous lap and
  /// long since delivered (or abandoned) by another AP.
  Time max_packet_age = Time::ms(500);
};

class ApQueueStack {
 public:
  /// `device` outlives the stack; `client` is the peer the NIC queue feeds.
  ApQueueStack(sim::Scheduler& sched, mac::WifiDevice& device,
               net::NodeId client, QueueStackConfig cfg = {});

  /// Downlink packet from the controller (already carries its 12-bit index).
  void on_downlink(std::uint32_t index, net::PacketPtr pkt);

  /// Become the transmitting AP starting at cyclic index `k`.
  void activate(std::uint32_t start_index);

  /// stop(c): pause refills and flush the kernel stage.  Returns the index
  /// of the first unsent packet (the ioctl result, to ship in start(c, k)).
  /// With `requeue_kernel` (the start-first quench path) the kernel stage
  /// is rewound into the cyclic ring instead of flushed, so a later
  /// resume-from-head restarts at the true first-unsent index.
  std::uint32_t deactivate(bool requeue_kernel = false);

  /// Fault path (AP crash / controller-link partition): drop *everything*
  /// still buffered — kernel and cyclic stages — recording each packet with
  /// `cause`, and deactivate.  Unlike deactivate(), no other AP is assumed
  /// to hold copies; the drops are real.  Returns the number purged.
  std::size_t purge(net::DropCause cause);

  /// Keep lower stages fed; invoked by the device refill callback and after
  /// every insertion while active.
  void pump();

  bool active() const { return active_; }
  std::uint32_t next_nic_index() const;
  std::size_t cyclic_pending() const { return cyclic_.pending(); }
  std::size_t kernel_pending() const { return kernel_.size(); }
  std::size_t nic_pending() const { return device_.queue_depth(client_); }
  /// Total backlog across all stages (the paper's 1,600-2,000 figure).
  std::size_t total_backlog() const {
    return cyclic_pending() + kernel_pending() + nic_pending();
  }

  const CyclicQueue& cyclic() const { return cyclic_; }
  std::uint64_t kernel_flushed() const { return kernel_flushed_; }
  std::uint64_t stale_dropped() const { return stale_dropped_; }
  std::uint64_t purged() const { return purged_; }

 private:
  /// Pull one packet off the cyclic ring, skipping previous-lap leftovers.
  std::optional<std::pair<std::uint32_t, net::PacketPtr>> pop_fresh();
  /// Retire ring-internal evictions (insert overruns, set_head discards)
  /// with the health ledger; called after every cyclic_ mutation.
  void note_ring_evictions();

  sim::Scheduler& sched_;
  mac::WifiDevice& device_;
  net::NodeId client_;
  QueueStackConfig cfg_;
  CyclicQueue cyclic_;
  std::deque<std::pair<std::uint32_t, net::PacketPtr>> kernel_;
  bool active_ = false;
  std::uint64_t kernel_flushed_ = 0;
  std::uint64_t stale_dropped_ = 0;
  std::uint64_t purged_ = 0;
  std::uint64_t ring_evictions_seen_ = 0;  // overruns+discards already retired
  // Instrumentation (null when the sim has no metrics/trace sink).
  obs::Context obs_ = obs::Context::current();
  metrics::Histogram* m_backlog_ = nullptr;
  metrics::Counter* m_activations_ = nullptr;
};

}  // namespace wgtt::core
