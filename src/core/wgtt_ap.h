// The WGTT access point (paper §3, §4.2).
//
// Wraps one WifiDevice (the radio, with its AP-mode and monitor-mode
// behaviour) and implements the AP half of every WGTT mechanism:
//
//  * per-client cyclic queue + kernel queue stack, fed from controller
//    downlink tunnels (§3.1.2);
//  * the stop(c) / start(c, k) switching protocol, with control packets
//    processed on a priority path that bypasses the data queues;
//  * CSI reports to the controller for every overheard client frame
//    (§3.1.1);
//  * uplink packet tunneling to the controller (§3.2.2);
//  * Block ACK forwarding from the monitor interface to the client's
//    active AP, with duplicate suppression at the receiving side (§3.2.1);
//  * association handling and sta_info replication to peer APs (§4.3).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/ap_queue_stack.h"
#include "core/association.h"
#include "core/control_link.h"
#include "core/control_messages.h"
#include "mac/wifi_device.h"
#include "net/backhaul.h"
#include "net/fault_injector.h"
#include "net/packet.h"
#include "obs/context.h"
#include "phy/csi.h"
#include "sim/scheduler.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace wgtt::core {

struct WgttApConfig {
  net::NodeId id = 0;
  net::NodeId controller = net::kControllerId;
  std::vector<net::NodeId> peer_aps;
  /// User-level (Click) processing latency for a prioritized control packet.
  /// The paper measures the whole stop->ack protocol at 17-21 ms (Table 1)
  /// and attributes it to user/kernel crossings; this is the per-hop share.
  Time control_processing = Time::ms(5.5);
  /// Scheduling jitter on top (uniform in [0, jitter]): OS wakeup latency
  /// of the user-level Click process — the source of Table 1's 3-5 ms
  /// standard deviation.
  Time control_jitter = Time::ms(6);
  /// ioctl round trip to read the first-unsent index from the kernel.
  Time ioctl_delay = Time::ms(2.5);
  /// After a stop(c), the NIC hardware queue keeps draining over the air
  /// for about this long (the paper measures ~6 ms); whatever remains is
  /// then flushed so an abandoned AP cannot jam the new cell with retries.
  Time nic_drain_window = Time::ms(8);
  QueueStackConfig stack;
  /// How long a (client, start_seq) BA stays in the duplicate filter.
  Time ba_dedup_window = Time::ms(50);
  /// Ablation: disable forwarding of overheard Block ACKs (§3.2.1).
  bool enable_ba_forwarding = true;
  /// Feed the controller-grade ESNR of every heard client frame into this
  /// AP's rate controller (only meaningful with EsnrRateControl radios).
  bool feed_esnr_to_rate_control = false;
  /// Liveness heartbeat cadence (mirrors ControllerConfig::heartbeat_period;
  /// the network wiring keeps the two in sync).  Heartbeats are only sent
  /// when a net::FaultInjector is installed.
  Time heartbeat_period = Time::ms(10);
};

struct WgttApStats {
  std::uint64_t downlink_packets_buffered = 0;
  std::uint64_t csi_reports_sent = 0;
  std::uint64_t uplink_packets_tunneled = 0;
  std::uint64_t block_acks_forwarded = 0;
  std::uint64_t forwarded_bas_applied = 0;
  std::uint64_t forwarded_bas_duplicate = 0;
  std::uint64_t stops_handled = 0;
  std::uint64_t quench_stops_handled = 0;  // start-first styles: no relay
  std::uint64_t starts_handled = 0;
  std::uint64_t kernel_packets_flushed = 0;
  // Fault tolerance (all zero without an installed FaultInjector):
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t fault_crashes = 0;        // crash onsets seen
  std::uint64_t crash_purged_packets = 0; // queued packets lost to crashes
  // Control-plane hardening (all zero without an installed FaultInjector):
  std::uint64_t ctrl_dups_suppressed = 0;   // adversarial duplicates dropped
  std::uint64_t stale_epoch_rejected = 0;   // frames from an older epoch
  std::uint64_t stale_stops_rejected = 0;   // fenced-off stop(c) messages
  std::uint64_t stale_starts_rejected = 0;  // fenced-off start(c, k) messages
  std::uint64_t stale_actives_rejected = 0; // fenced-off active-AP broadcasts
  std::uint64_t resync_reports_sent = 0;    // warm-restart state reports
};

class WgttAp {
 public:
  WgttAp(sim::Scheduler& sched, net::Backhaul& backhaul,
         mac::WifiDevice& device, WgttApConfig cfg);

  net::NodeId id() const { return cfg_.id; }
  mac::WifiDevice& device() { return device_; }
  const AssociationTable& associations() const { return assoc_; }
  const WgttApStats& stats() const { return stats_; }

  /// True if this AP currently transmits to `client`.
  bool active_for(net::NodeId client) const;
  /// True while an injected ap_crash fault holds this AP down.
  bool down() const { return down_; }
  /// Queue-stack introspection (microbenchmarks / tests).
  const ApQueueStack* stack_for(net::NodeId client) const;
  /// True if this AP's queue stack is actively transmitting to `client`
  /// under the shared BSSID (shadow-stream overlap windows excluded).  The
  /// scenario layer's dual-active probe counts these per client.
  bool transmitting(net::NodeId client) const;

 private:
  void on_backhaul_frame(const net::TunneledPacket& frame);
  void handle_downlink_data(net::PacketPtr pkt);
  void handle_stop(const StopMsg& msg);
  void handle_start(const StartMsg& msg);
  void handle_active_ap(const ActiveApMsg& msg);
  void handle_assoc_sync(const AssocSyncMsg& msg);
  void handle_ba_forward(const BaForwardMsg& msg);
  /// Warm-restart support: report this AP's replicated client state to the
  /// controller.  `epoch` echoes a ResyncRequestMsg; 0 marks the unsolicited
  /// rejoin report sent when this AP recovers from its own crash.
  void send_resync_report(std::uint32_t epoch);
  /// (epoch, switch_id) fence shared by stop and start handling: false for
  /// strictly older pairs (stale — reject and count), true otherwise (equal
  /// pairs re-process idempotently, e.g. a retransmitted stop).
  bool fence_accept(net::NodeId client, std::uint32_t epoch,
                    std::uint32_t switch_id);

  void on_frame_heard(const mac::RxMeta& meta);
  void on_fault(bool down);
  void heartbeat_tick();
  void on_uplink_deliver(net::PacketPtr pkt, const mac::RxMeta& meta);
  void on_overheard_block_ack(const mac::BlockAckInfo& ba,
                              const mac::RxMeta& meta);
  void on_management(net::PacketPtr pkt, const mac::RxMeta& meta);

  ApQueueStack& stack(net::NodeId client);
  void send_to(net::NodeId dst, net::Packet fields);

  /// Control-packet processing delay including jitter.
  Time control_delay();

  sim::Scheduler& sched_;
  net::Backhaul& backhaul_;
  mac::WifiDevice& device_;
  WgttApConfig cfg_;
  Rng rng_;
  AssociationTable assoc_;
  std::map<net::NodeId, std::unique_ptr<ApQueueStack>> stacks_;
  /// Controller-maintained map: which AP currently serves each client.
  std::map<net::NodeId, net::NodeId> active_ap_;
  /// Duplicate filter for forwarded BAs: (client -> last BA + when).
  struct SeenBa {
    std::uint16_t start_seq = 0;
    std::uint64_t bitmap = 0;
    Time when;
  };
  std::map<net::NodeId, SeenBa> seen_ba_;
  std::uint16_t next_aid_ = 1;
  WgttApStats stats_;
  obs::Context obs_ = obs::Context::current();
  // Fault wiring (null/false/empty unless a FaultInjector is installed).
  net::FaultInjector* injector_ = nullptr;
  bool down_ = false;
  /// Last genuine CSI per client, replayed while a csi_freeze fault holds.
  std::map<net::NodeId, phy::Csi> last_csi_;
  // Hardened control plane (inert without an installed FaultInjector).
  ControlSequencer ctrl_seq_;
  ControlDedup ctrl_dedup_;
  /// Highest controller epoch seen on any accepted control frame.
  std::uint32_t epoch_seen_ = 0;
  /// Per-client (epoch, switch_id) high-water across stop/start messages.
  std::map<net::NodeId, std::pair<std::uint32_t, std::uint32_t>> switch_fence_;
  /// Per-client (epoch, version) high-water across active-AP broadcasts.
  std::map<net::NodeId, std::pair<std::uint32_t, std::uint32_t>> active_fence_;
  /// Shared control-plane counters (see WgttController: get-or-create names
  /// total each phenomenon across controller + APs).
  metrics::Counter* m_dup_suppressed_ = nullptr;
  metrics::Counter* m_stale_rejected_ = nullptr;
};

}  // namespace wgtt::core
