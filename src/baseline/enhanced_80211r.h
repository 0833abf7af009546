// The "Enhanced 802.11r" comparison scheme (paper §5.1) plus the stock
// 802.11r client used in the §2 motivation experiment.
//
// Per the paper, the baseline enhances standard 802.11r/802.11k in exactly
// the way a centralized-controller WLAN product would:
//   (1) each AP beacons every 100 ms; the client estimates per-AP RSSI;
//   (2) the client switches to the highest-RSSI AP once the current AP's
//       RSSI falls below a threshold, with a time hysteresis of one second;
//   (3) association/authentication state is shared among APs, so
//       reassociation is a single fast exchange (make-before-break).
//
// The stock variant reproduces §2's Linksys behaviour: the client does not
// even consider switching until it has collected a 5-second RSSI history
// from its current AP — longer than a 20 mph drive-through of a picocell.
//
// The baseline data plane has no cyclic queues and no controller fan-out:
// the wired distribution system bridges each client's traffic to its
// associated AP only, and packets buffered at an abandoned AP are lost.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "core/control_messages.h"
#include "mac/wifi_device.h"
#include "net/backhaul.h"
#include "net/packet.h"
#include "obs/context.h"
#include "sim/scheduler.h"

namespace wgtt::baseline {

// ---------------------------------------------------------------------------
// Wired side
// ---------------------------------------------------------------------------

/// The distribution system (Ethernet switch + WLAN controller): bridges
/// downlink traffic to the AP each client is associated with and collects
/// uplink traffic from APs.
class Distribution {
 public:
  Distribution(sim::Scheduler& sched, net::Backhaul& backhaul,
               Time relearn_delay = Time::ms(15));

  std::function<void(net::PacketPtr)> on_uplink;

  void send_downlink(net::NodeId client, net::PacketPtr pkt);
  /// Called (via backhaul control traffic) when a client (re)associates.
  /// The bridge tables update after `relearn_delay`; the old AP is told to
  /// flush its stale queue for the client.
  void set_association(net::NodeId client, net::NodeId ap);
  net::NodeId associated_ap(net::NodeId client) const;

  std::uint64_t downlink_packets() const { return downlink_packets_; }
  std::uint64_t packets_dropped_no_assoc() const { return dropped_; }

 private:
  void on_backhaul_frame(const net::TunneledPacket& frame);

  sim::Scheduler& sched_;
  net::Backhaul& backhaul_;
  obs::Context obs_ = obs::Context::current();
  Time relearn_delay_;
  std::map<net::NodeId, net::NodeId> assoc_;          // effective (post-delay)
  std::map<net::NodeId, net::NodeId> pending_assoc_;  // announced, not live yet
  std::uint64_t downlink_packets_ = 0;
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// AP side
// ---------------------------------------------------------------------------

struct BaselineApConfig {
  net::NodeId id = 0;
  net::NodeId distribution = net::kControllerId;
  Time beacon_interval = Time::ms(100);
  std::size_t kernel_queue_limit = 256;
};

/// Beacon body so clients can identify the sender.
struct BeaconMsg {
  net::NodeId ap = 0;
};
/// Distribution -> old AP: client moved away, flush its queue.
struct FlushClientMsg {
  net::NodeId client = 0;
  static constexpr net::PacketType kType = net::PacketType::kAssocSync;
  static constexpr std::size_t kWireBytes = 16;
};

class BaselineAp {
 public:
  BaselineAp(sim::Scheduler& sched, net::Backhaul& backhaul,
             mac::WifiDevice& device, BaselineApConfig cfg);

  net::NodeId id() const { return cfg_.id; }
  mac::WifiDevice& device() { return device_; }

 private:
  void beacon();
  void on_backhaul_frame(const net::TunneledPacket& frame);
  void enqueue_downlink(net::NodeId client, net::PacketPtr pkt);
  void pump(net::NodeId client);
  void on_management(net::PacketPtr pkt, const mac::RxMeta& meta);

  sim::Scheduler& sched_;
  net::Backhaul& backhaul_;
  mac::WifiDevice& device_;
  obs::Context obs_ = obs::Context::current();
  BaselineApConfig cfg_;
  std::map<net::NodeId, std::deque<net::PacketPtr>> kernel_queues_;
  std::uint16_t next_aid_ = 1;
};

// ---------------------------------------------------------------------------
// Client roaming agent
// ---------------------------------------------------------------------------

struct RoamingConfig {
  double rssi_threshold_dbm = -82.0;  // switch trigger (link already degrading)
  /// Time hysteresis (paper §5.1 point (2)): the below-threshold condition
  /// must *persist* for this long before the client roams.  A single fading
  /// upswing above the threshold resets the timer — which is why the
  /// paper's baseline switches only ~3 times in a 10 s transit (Fig. 15).
  Time hysteresis = Time::sec(1);
  double rssi_ewma_weight = 0.2;      // newest-beacon weight (sluggish tracking)
  /// Beacons older than this are forgotten (an AP we drove away from).
  Time rssi_expiry = Time::ms(1200);
  /// Stock 802.11r (§2): the decision additionally requires this much RSSI
  /// history — the Linksys "5-second history" rule.  Zero = enhanced mode.
  Time stock_history_requirement = Time::zero();
};

struct HandoverRecord {
  Time when;
  net::NodeId from_ap = 0;
  net::NodeId to_ap = 0;
  bool success = false;
  Time outage;  // time from decision to traffic flowing again
};

class RoamingClient {
 public:
  RoamingClient(sim::Scheduler& sched, mac::WifiDevice& device,
                RoamingConfig cfg);

  /// Begin: associate with the AP whose beacon we hear strongest (waits for
  /// the first beacon).
  void start();

  net::NodeId associated_ap() const { return associated_ap_; }
  const std::vector<HandoverRecord>& handovers() const { return handovers_; }
  /// Latest smoothed RSSI per AP (tests/diagnostics).
  double rssi_of(net::NodeId ap) const;

 private:
  void on_management(net::PacketPtr pkt, const mac::RxMeta& meta);
  void consider_roaming();
  void reassociate(net::NodeId target);

  struct RssiEntry {
    double rssi_dbm = -100.0;
    Time last_heard;
    Time first_heard;
  };

  sim::Scheduler& sched_;
  mac::WifiDevice& device_;
  RoamingConfig cfg_;
  std::map<net::NodeId, RssiEntry> rssi_;
  net::NodeId associated_ap_ = 0;
  Time associated_since_;
  Time last_handover_ = Time::zero();
  bool below_threshold_ = false;   // condition-persistence tracking
  Time below_threshold_since_;
  bool handover_in_progress_ = false;
  std::vector<HandoverRecord> handovers_;
};

}  // namespace wgtt::baseline
