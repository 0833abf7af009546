// Control-plane message bodies exchanged between the WGTT controller and
// APs over the Ethernet backhaul.  Each rides in a net::Packet's payload;
// the PacketType identifies which struct to expect.  Each struct states its
// PacketType (kType) and its wire size, and control_packet() builds every
// backhaul control packet from them.
//
// Wire sizes below are what the real UDP encodings would occupy; they feed
// the backhaul serialization model.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/association.h"
#include "mac/block_ack.h"
#include "net/packet.h"
#include "phy/csi.h"

namespace wgtt::core {

/// Controller -> AP1: cease sending to `client`; hand over to `next_ap`
/// (§3.1.2 step 1).  The stop packet carries the L2 addresses of both.
struct StopMsg {
  net::NodeId client = 0;
  net::NodeId next_ap = 0;
  std::uint32_t switch_id = 0;
  /// Start-first handoff styles (make-before-break / bicast): `next_ap` is
  /// already transmitting, so deactivate and flush but relay no start(c, k).
  bool quench = false;
  /// Controller fencing epoch (0 = unfenced, the fault-free wire format).
  /// Stamped only by the hardened control plane; receivers reject strictly
  /// older (epoch, switch_id) pairs.  Packs into the spare wire bytes —
  /// kWireBytes feeds the backhaul timing model and must not change.
  std::uint32_t epoch = 0;
  static constexpr net::PacketType kType = net::PacketType::kStop;
  static constexpr std::size_t kWireBytes = 24;
};

/// Sentinel `first_unsent_index`: the predecessor AP is dead, so no ioctl
/// k exists — the new AP resumes from its own cyclic-queue head.  Used by
/// the controller's liveness failover (which sends start directly, skipping
/// stop).  Outside the 12-bit index space, so it can never collide.
constexpr std::uint32_t kResumeHeadIndex = 0xFFFFFFFFu;

/// AP1 -> AP2: begin transmitting to `client` from cyclic index `k`
/// (§3.1.2 step 2).  On failover the controller originates this message
/// itself with `first_unsent_index = kResumeHeadIndex` and `from_ap = 0`.
struct StartMsg {
  net::NodeId client = 0;
  std::uint32_t first_unsent_index = 0;  // k
  std::uint32_t switch_id = 0;
  net::NodeId from_ap = 0;
  /// Controller fencing epoch, relayed from the stop(c) that caused this
  /// start (0 = unfenced; packs into spare wire bytes).
  std::uint32_t epoch = 0;
  static constexpr net::PacketType kType = net::PacketType::kStart;
  static constexpr std::size_t kWireBytes = 24;
};

/// AP2 -> controller: switch complete (§3.1.2 step 3).
struct SwitchAckMsg {
  net::NodeId client = 0;
  net::NodeId new_ap = 0;
  std::uint32_t switch_id = 0;
  /// Echo of the start's fencing epoch (0 = unfenced; spare wire bytes).  A
  /// restarted controller uses it to reject acks from before its crash.
  std::uint32_t epoch = 0;
  static constexpr net::PacketType kType = net::PacketType::kSwitchAck;
  static constexpr std::size_t kWireBytes = 20;
};

/// AP -> controller: CSI of an overheard client uplink frame (§3.1.1).
/// 56 subcarriers x (2 bytes each) + addressing.
struct CsiReportMsg {
  net::NodeId ap = 0;
  net::NodeId client = 0;
  phy::Csi csi;
  static constexpr net::PacketType kType = net::PacketType::kCsiReport;
  static constexpr std::size_t kWireBytes = 20 + 2 * phy::kNumSubcarriers;
};

/// Monitor AP -> active AP: an overheard Block ACK (§3.2.1) — client
/// address, starting sequence number, and the 64-bit bitmap.
struct BaForwardMsg {
  mac::BlockAckInfo ba;
  net::NodeId from_ap = 0;
  static constexpr net::PacketType kType = net::PacketType::kBlockAckFwd;
  static constexpr std::size_t kWireBytes = 28;
};

/// Associating AP -> peers: replicated sta_info (§4.3).
struct AssocSyncMsg {
  StaInfo info;
  static constexpr net::PacketType kType = net::PacketType::kAssocSync;
  static constexpr std::size_t kWireBytes = 64;
};

/// Associating AP -> controller: a client finished associating with us.
struct ClientJoinedMsg {
  StaInfo info;
  static constexpr net::PacketType kType = net::PacketType::kAssocSync;
  static constexpr std::size_t kWireBytes = 64;
};

/// Controller -> all APs: who currently transmits to `client` (keeps the
/// Block-ACK forwarding target and monitor filtering current).
struct ActiveApMsg {
  net::NodeId client = 0;
  net::NodeId active_ap = 0;
  /// First activation after association: the named AP must activate its
  /// queue stack in place (no start(c, k) will arrive).
  bool bootstrap = false;
  /// This switch used a start-first style (make-before-break / bicast): the
  /// outgoing AP is deliberately still transmitting until its quench lands.
  /// It should shadow its remaining downlink frames (deliver them under its
  /// own id, not the shared BSSID) so the client sees a second independent
  /// transmitter and its IP-layer dedup absorbs the duplicates.  Failover
  /// broadcasts leave this false: a falsely-suspected incumbent keeps the
  /// shared-BSSID behaviour.
  bool overlap = false;
  /// Per-client monotonic broadcast version (hardened runs only; 0 =
  /// unfenced).  A reordered older broadcast must not overwrite a newer
  /// active-AP belief at the receiving AP.  Packs into the 6 spare wire
  /// bytes — kWireBytes is part of the timing model and must not change.
  std::uint32_t version = 0;
  /// Controller fencing epoch the version counts within: versions restart
  /// at 1 after a warm restart, so receivers order by (epoch, version).
  std::uint32_t epoch = 0;
  static constexpr net::PacketType kType = net::PacketType::kActiveAp;
  static constexpr std::size_t kWireBytes = 16;
};

/// AP -> controller: periodic liveness beacon.  Sent at the controller's
/// heartbeat period (<= the CSI-report cadence) whenever the AP is up; the
/// controller's liveness monitor marks an AP suspect after missing K.
struct HeartbeatMsg {
  net::NodeId ap = 0;
  static constexpr net::PacketType kType = net::PacketType::kHeartbeat;
  static constexpr std::size_t kWireBytes = 12;
};

/// Controller -> all APs after a warm restart (ctrl_crash clear): report
/// your replicated client state.  `epoch` is the restarted controller's new
/// fencing epoch; the reply must echo it so a delayed report from before an
/// even later restart cannot poison the rebuild.
struct ResyncRequestMsg {
  std::uint32_t epoch = 0;
  static constexpr net::PacketType kType = net::PacketType::kResync;
  static constexpr std::size_t kWireBytes = 12;
};

/// One client's replicated state at an AP: the §4.3 sta_info plus whether
/// this AP's queue stack is actively transmitting to the client.
struct ResyncEntry {
  StaInfo info;
  bool active = false;
};

/// AP -> controller: full replicated-state report.  Sent in response to a
/// ResyncRequestMsg (epoch echoed), and unsolicited with epoch = 0 when the
/// AP itself recovers from a crash (rejoin — lets the controller re-start
/// clients stranded on a recovered AP whose stacks were purged).
struct ResyncReportMsg {
  net::NodeId ap = 0;
  std::uint32_t epoch = 0;
  std::vector<ResyncEntry> entries;
  static constexpr net::PacketType kType = net::PacketType::kResync;
  /// Base wire size; each entry adds one replicated sta_info record.
  static constexpr std::size_t kWireBytes = 16;
  static constexpr std::size_t kEntryWireBytes = 72;
  std::size_t wire_bytes() const {
    return kWireBytes + entries.size() * kEntryWireBytes;
  }
};

/// The backhaul packet carrying `msg`: its PacketType, its wire size and the
/// message as payload.  The sender addresses it and draws its uid
/// (net::make_packet).
template <typename Msg>
net::Packet control_packet(Msg msg) {
  net::Packet p;
  p.type = Msg::kType;
  if constexpr (requires { msg.wire_bytes(); }) {
    p.size_bytes = msg.wire_bytes();
  } else {
    p.size_bytes = Msg::kWireBytes;
  }
  p.payload = std::move(msg);
  return p;
}

/// Over-the-air management bodies (client association handshake).
struct AssocRequestMsg {
  net::NodeId client = 0;
};
struct AssocResponseMsg {
  net::NodeId ap = 0;
  std::uint16_t aid = 0;
  bool success = false;
};

}  // namespace wgtt::core
