// Block acknowledgement machinery (802.11e/n).
//
// Transmit side: BlockAckInfo is the compressed-BA bitmap the receiver
// returns; WGTT's Block ACK forwarding (§3.2.1) ships exactly this struct
// across the Ethernet backhaul when a monitor-mode AP overhears it.
//
// Receive side: ReorderBuffer implements the 64-frame BA reordering window
// that turns out-of-order MPDU receptions back into an in-order MSDU stream
// (with a gap timeout, since a transmitter that drops an MPDU at its retry
// limit would otherwise stall the window forever).
#pragma once

#include <bitset>
#include <cstdint>
#include <functional>
#include <map>

#include "net/packet.h"
#include "util/time.h"

namespace wgtt::mac {

constexpr std::size_t kBaWindow = 64;
constexpr std::uint16_t kSeqModulo = 4096;  // 12-bit 802.11 sequence space

/// Distance from a to b in 12-bit sequence space.
inline std::uint16_t seq_distance(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>((b - a) & (kSeqModulo - 1));
}

struct BlockAckInfo {
  net::NodeId client = 0;       // layer-2 source of the BA (the client)
  net::NodeId addressed_ap = 0; // AP the BA was sent to
  std::uint16_t start_seq = 0;  // first sequence covered by the bitmap
  std::bitset<kBaWindow> bitmap;

  bool acks(std::uint16_t seq) const {
    const std::uint16_t d = seq_distance(start_seq, seq);
    return d < kBaWindow && bitmap.test(d);
  }
};

/// Receiver-side reordering for one (transmitter, TID) agreement.
class ReorderBuffer {
 public:
  using DeliverFn = std::function<void(net::PacketPtr)>;

  explicit ReorderBuffer(DeliverFn deliver, Time gap_timeout = Time::ms(10));

  /// Accept an MPDU with its 12-bit sequence number at time `now`.
  /// Duplicates and stale sequences are dropped.  In-order frames (and any
  /// buffered successors they release) are delivered immediately.
  void on_mpdu(std::uint16_t seq, net::PacketPtr pkt, Time now);

  /// Flush frames whose gap has outlived the timeout; call periodically or
  /// before reading statistics.  Returns the number of frames released.
  std::size_t flush_expired(Time now);

  /// Force-release everything buffered (e.g. teardown).
  void flush_all();

  std::size_t buffered() const { return buffered_.size(); }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t duplicates_dropped() const { return duplicates_; }

 private:
  void release_in_order();

  DeliverFn deliver_;
  Time gap_timeout_;
  std::uint16_t window_start_ = 0;
  bool started_ = false;
  Time oldest_hole_since_ = Time::zero();
  std::map<std::uint16_t, net::PacketPtr> buffered_;  // keyed by distance-adjusted seq
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace wgtt::mac
