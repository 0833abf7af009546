// Per-radio 802.11n MAC state machine.
//
// Each AP and each client owns one WifiDevice.  Devices share a Medium
// (CSMA/CA, interference) and a ChannelModel (per-link CSI).  A device:
//
//  * queues MPDUs per peer and transmits them as A-MPDU + Block ACK
//    exchanges with Minstrel-style rate adaptation and bounded retries;
//  * delivers received MPDUs in order through a per-stream BA reorder
//    buffer;
//  * in monitor mode (the WGTT AP's second virtual interface, §3.2.1)
//    overhears client frames it is not addressed by, surfacing CSI for the
//    controller's AP selection and Block ACKs for BA forwarding;
//  * models the multi-AP uplink of a shared-BSSID network: every AP that
//    decodes a client frame delivers it upward (the controller de-dupes),
//    and simultaneous BA responses from several APs can collide at the
//    client (paper §5.3.2 / Table 3).
//
// WGTT-specific integration points: enqueue() accepts an explicit 802.11
// sequence number so WGTT APs can reuse the controller's 12-bit cyclic
// packet index as the MPDU sequence — this is what makes block-ACK state
// meaningful across an AP switch — and apply_external_block_ack() merges a
// BA forwarded over the backhaul into an exchange still waiting for its
// completion (the ath_tx_complete_aggr() path of §3.2.1).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "channel/channel_model.h"
#include "mac/airtime.h"
#include "mac/ampdu.h"
#include "mac/block_ack.h"
#include "mac/medium.h"
#include "net/packet.h"
#include "obs/context.h"
#include "phy/error_model.h"
#include "phy/rate_control.h"
#include "sim/scheduler.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/trace.h"

namespace wgtt::mac {

class WifiDevice;

/// Shared wiring for all radios of one scenario.
class MacContext {
 public:
  MacContext(sim::Scheduler& sched, Medium& medium,
             const channel::ChannelModel& channel,
             const phy::ErrorModel& error_model, Rng rng);

  void register_device(WifiDevice* dev);
  WifiDevice* device(net::NodeId id) const;
  const std::vector<WifiDevice*>& devices() const { return devices_; }

  sim::Scheduler& sched() { return sched_; }
  Medium& medium() { return medium_; }
  const channel::ChannelModel& channel() const { return channel_; }
  const phy::ErrorModel& error_model() const { return error_model_; }
  Rng fork_rng(std::uint64_t tag) { return rng_.fork(tag); }

 private:
  sim::Scheduler& sched_;
  Medium& medium_;
  const channel::ChannelModel& channel_;
  const phy::ErrorModel& error_model_;
  Rng rng_;
  std::map<net::NodeId, WifiDevice*> by_id_;
  std::vector<WifiDevice*> devices_;
};

struct WifiDeviceConfig {
  bool is_ap = false;
  /// Wi-Fi channel this radio operates on.  The WGTT prototype is
  /// single-channel (paper §4); the multi-channel extension of §7 assigns
  /// alternating channels per AP and retunes clients on switch.
  unsigned channel = 11;
  /// BSSID this radio belongs to.  All WGTT APs share one BSSID so they
  /// appear as a single AP to clients (§4.3); baseline APs use their own id.
  net::NodeId bssid = 0;
  bool monitor_mode = false;
  unsigned retry_limit = 10;
  std::size_t hw_queue_limit = 32;  // NIC internal queue (paper Fig. 7)
  /// After a lost BA, wait this long for a backhaul-forwarded copy before
  /// declaring the aggregate unacknowledged (0 = process immediately).
  Time ba_completion_grace = Time::zero();
  /// Client-side: transmit a (CSI-bearing) null frame after this much uplink
  /// silence so APs keep hearing the client (0 = off).
  Time keepalive_interval = Time::zero();
  AirtimeConfig airtime;
  /// Multi-AP ACK-response contention model (paper §5.3.2 / Table 3): the
  /// TP-Link NIC issues HT-immediate BAs after a microsecond-scale backoff,
  /// and the client's receiver locks onto the earliest response; a later
  /// one only corrupts it if it starts inside the capture window with
  /// comparable power — which the parabolic side lobes make rare.
  double ack_jitter_us = 20.0;  // response start-time spread
  double ack_overlap_us = 0.3;  // starts closer than this can collide
  double ack_capture_db = 1.5;  // power margin below which capture fails
  /// Factory for the per-peer rate controller (default: Minstrel).
  std::function<std::unique_ptr<phy::RateControl>()> rate_control_factory;
};

struct RxMeta {
  net::NodeId transmitter = 0;
  phy::Csi csi;
  bool addressed = false;  // frame was addressed to this device
  unsigned mcs_index = 0;
};

struct DeviceStats {
  std::uint64_t mpdus_sent = 0;       // unique transmissions incl. retries
  std::uint64_t mpdus_delivered = 0;  // acknowledged
  std::uint64_t mpdus_dropped = 0;    // retry limit exceeded
  std::uint64_t aggregates_sent = 0;
  std::uint64_t block_acks_lost = 0;
  std::uint64_t block_acks_recovered = 0;  // via backhaul forwarding
  std::uint64_t ack_collisions = 0;        // multi-AP response collisions seen
  std::uint64_t uplink_frames_sent = 0;    // client-side: data frames + BAs + nulls
};

class WifiDevice {
 public:
  WifiDevice(MacContext& ctx, net::NodeId self, WifiDeviceConfig cfg);
  WifiDevice(const WifiDevice&) = delete;
  WifiDevice& operator=(const WifiDevice&) = delete;

  net::NodeId id() const { return self_; }
  bool is_ap() const { return cfg_.is_ap; }
  net::NodeId bssid() const { return cfg_.bssid; }
  void set_bssid(net::NodeId b) { cfg_.bssid = b; }
  unsigned channel() const { return cfg_.channel; }
  /// Retune to another channel; the radio is deaf for `retune_pause`.
  void set_channel(unsigned ch, Time retune_pause = Time::ms(3));
  /// True if the radio can decode a frame whose payload lands at `t`
  /// (same-channel gating is the caller's job; this covers retuning and a
  /// fault-injected crash).
  bool can_receive(Time t) const { return !down_ && t >= retuning_until_; }
  /// Fault injection: a crashed radio neither transmits nor receives.  Going
  /// down flushes every per-peer queue with the fault cause.
  void set_down(bool down);
  bool down() const { return down_; }
  bool monitor_enabled() const { return cfg_.monitor_mode; }

  // -- upper-layer callbacks ------------------------------------------------
  /// In-order MSDUs addressed to this device.
  std::function<void(net::PacketPtr, const RxMeta&)> on_deliver;
  /// Any client-originated frame this radio decoded (addressed or monitor):
  /// the CSI source for the WGTT controller.
  std::function<void(const RxMeta&)> on_frame_heard;
  /// A Block ACK overheard in monitor mode (input to BA forwarding).
  std::function<void(const BlockAckInfo&, const RxMeta&)> on_overheard_block_ack;
  /// Broadcast/management frame received (beacons, assoc frames).
  std::function<void(net::PacketPtr, const RxMeta&)> on_management;
  /// MPDU abandoned at the retry limit.
  std::function<void(net::NodeId peer, net::PacketPtr)> on_mpdu_dropped;
  /// Telemetry: fired after every data exchange this device initiated.
  std::function<void(net::NodeId peer, const phy::McsInfo&, unsigned attempted,
                     unsigned delivered, Time when)>
      on_data_exchange;

  // -- data path ------------------------------------------------------------
  /// Queue an MSDU for `peer`.  If `explicit_seq` is set it becomes the
  /// 802.11 sequence number (WGTT packet-index integration); otherwise the
  /// per-peer counter assigns one.  Returns false if the hardware queue for
  /// this peer is full.
  bool enqueue(net::NodeId peer, net::PacketPtr pkt,
               std::optional<std::uint16_t> explicit_seq = std::nullopt);
  std::size_t queue_depth(net::NodeId peer) const;
  bool has_room(net::NodeId peer) const;
  /// Drop all *queued* (not in-flight) MPDUs for `peer`; returns the count.
  /// `cause` labels the flight-recorder drop records (handover flush by
  /// default; fault_injected when a crash empties the radio).
  std::size_t flush_queue(net::NodeId peer,
                          net::DropCause cause = net::DropCause::kHandoverFlush);
  /// Callback invoked whenever the hardware queue for `peer` has room —
  /// upper queue stages use it to keep the NIC fed (pull model).
  void set_refill_handler(net::NodeId peer, std::function<void()> fn);

  /// Send an unaggregated management frame at the basic rate.  Unicast
  /// frames are acknowledged and retried (up to 7 attempts); `done(bool)`
  /// reports final success.  Broadcast (peer == kBroadcast) frames are
  /// fire-and-forget.
  void send_management(net::NodeId peer, net::PacketPtr pkt,
                       std::function<void(bool)> done = nullptr);

  // -- WGTT hooks -------------------------------------------------------
  /// Merge a backhaul-forwarded Block ACK into a pending exchange
  /// (§3.2.1: the ath_tx_status update path).  Returns true if it matched
  /// an exchange still awaiting completion.
  bool apply_external_block_ack(const BlockAckInfo& ba);

  /// Client-side: where keepalive null frames are addressed (the BSSID).
  void set_keepalive_peer(net::NodeId peer) { keepalive_peer_ = peer; }

  /// Channel-aware rate control hook: feed a fresh ESNR estimate for `peer`
  /// into its rate controller, if that controller is ESNR-driven (no-op for
  /// Minstrel radios).
  void update_peer_esnr(net::NodeId peer, double esnr_db, Time now);

  /// AP-side, WGTT overlap windows (start-first / bicast): while another AP
  /// is the active member of the shared BSSID, this radio's downlink frames
  /// to `peer` are delivered under this device's own id as the reorder
  /// stream instead of the BSSID.  The client then sees a second independent
  /// transmitter — as in a classic make-before-break double association —
  /// so the duplicate copies reach the IP layer (where dedup absorbs them)
  /// rather than being silently swallowed by the shared-BSSID BA reorder
  /// buffer, which holds the same index-derived sequence numbers.
  void set_shadow_stream(net::NodeId peer, bool on);
  bool shadow_stream(net::NodeId peer) const;

  const DeviceStats& stats() const { return stats_; }

 private:
  struct PeerState {
    std::deque<Mpdu> queue;
    std::uint16_t next_seq = 0;
    std::unique_ptr<phy::RateControl> rate_control;
    std::function<void()> refill;
    /// Set by flush_queue(): failures of the exchange already in flight are
    /// dropped rather than re-queued (the peer has been handed over).
    bool quench_pending = false;
    /// Overlap-window delivery under our own id instead of the shared BSSID
    /// (see set_shadow_stream()).
    bool shadow_stream = false;
  };
  struct PendingExchange {
    net::NodeId peer = 0;
    const phy::McsInfo* mcs = nullptr;
    std::vector<Mpdu> aggregate;
    BlockAckInfo merged_ba;   // union of own + forwarded BA info
    bool any_ba = false;      // some BA (own or forwarded) arrived
    bool own_ba = false;      // our radio decoded the BA itself
    sim::EventId completion_event;
  };
  struct MgmtTx {
    net::NodeId peer = 0;
    net::PacketPtr pkt;
    std::function<void(bool)> done;
    unsigned attempts = 0;
  };

  PeerState& peer_state(net::NodeId peer);
  void maybe_start_tx();
  void begin_exchange();
  void evaluate_receptions(PendingExchange& ex, Time data_time, Time ba_time);
  /// Multi-AP response contention (paper §5.3.2 / Table 3) among the radios
  /// acknowledging one frame this radio sent, each with a jittered start
  /// `delay_us` and a receive power `power_dbm` here.  Sorts them by start.
  /// The earliest wins unless another starts within ack_overlap_us with
  /// power within ack_capture_db of it; then the responses collide, one
  /// ack_collisions is counted and nobody wins.  Returns the winner, or
  /// null when there is none.
  template <class Response>
  const Response* ack_winner(std::vector<Response>& responses);
  void complete_exchange();
  void finish_exchange_with_ba(PendingExchange ex);
  /// ESNR at `rx` for a frame from `tx` under current interference.
  double effective_esnr_db(net::NodeId tx_node, net::NodeId rx_node,
                           phy::Modulation mod, Time t, phy::Csi* csi_out);
  void start_mgmt_tx();
  void run_mgmt_exchange();
  /// Self-rescheduling housekeeping: reorder-gap flush + client keepalive.
  void periodic_tick();
  void deliver_upward(net::NodeId stream, std::uint16_t seq, net::PacketPtr pkt,
                      const RxMeta& meta);

  MacContext& ctx_;
  net::NodeId self_;
  WifiDeviceConfig cfg_;
  AirtimeCalculator airtime_;
  AmpduAggregator aggregator_;
  Rng rng_;
  std::map<net::NodeId, PeerState> peers_;
  std::map<net::NodeId, std::unique_ptr<ReorderBuffer>> reorder_;  // by stream
  std::map<net::NodeId, RxMeta> reorder_meta_;
  std::optional<PendingExchange> in_flight_;
  bool tx_armed_ = false;           // medium request outstanding
  bool awaiting_external_ba_ = false;
  unsigned cw_;
  net::NodeId last_served_peer_ = 0;  // round-robin cursor
  Time retuning_until_ = Time::zero();
  bool down_ = false;  // fault-injected crash: radio silent both ways
  net::NodeId keepalive_peer_ = 0;
  std::deque<MgmtTx> mgmt_queue_;
  bool mgmt_in_flight_ = false;
  Time last_uplink_tx_ = Time::zero();
  DeviceStats stats_;
  // Instrumentation, cached from the obs::Context at construction; null
  // when off.
  obs::Context obs_ = obs::Context::current();
  metrics::Counter* m_airtime_ns_ = nullptr;        // this radio
  metrics::Counter* m_airtime_total_ns_ = nullptr;  // all radios of the sim
  metrics::Histogram* m_ampdu_mpdus_ = nullptr;
  metrics::Counter* m_ba_rollups_ = nullptr;
  metrics::Histogram* m_mcs_index_ = nullptr;
  metrics::Histogram* m_esnr_db_ = nullptr;
  prof::Section* p_exchange_ = nullptr;
};

}  // namespace wgtt::mac
