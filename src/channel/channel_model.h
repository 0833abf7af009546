// The composite radio channel for the roadside testbed.
//
// One ChannelModel instance owns every AP-client link's propagation state:
// deterministic geometry (distance + antenna pattern), spatially-correlated
// shadowing, and frequency-selective small-scale fading.  Links are
// reciprocal — uplink and downlink share one fading realisation — which is
// the physical property WGTT relies on when it predicts downlink delivery
// from CSI measured on client *uplink* frames (§3.1.1).
#pragma once

#include <array>
#include <complex>
#include <map>
#include <memory>
#include <vector>

#include "channel/antenna.h"
#include "channel/fading.h"
#include "channel/geometry.h"
#include "channel/mobility.h"
#include "channel/pathloss.h"
#include "channel/shadowing.h"
#include "net/packet.h"
#include "phy/csi.h"
#include "phy/mcs.h"
#include "util/profiler.h"
#include "util/rng.h"
#include "util/time.h"

namespace wgtt::channel {

struct RadioConfig {
  double ap_tx_power_dbm = 20.0;
  double client_tx_power_dbm = 15.0;
  /// Fixed loss in the AP's RF path (splitter-combiner, cabling, window
  /// glass, street clutter).  Applied to both link directions — it sits
  /// between the AP's radio and the air, so the channel stays reciprocal.
  double ap_system_loss_db = 0.0;
  double bandwidth_hz = 20e6;
  double noise_figure_db = 6.0;
  double carrier_hz = 2.462e9;  // channel 11
};

struct ApSite {
  net::NodeId id = 0;
  Vec3 position;
  Vec3 boresight;  // direction the directional antenna points
  std::shared_ptr<const AntennaPattern> antenna;
};

class ChannelModel {
 public:
  ChannelModel(RadioConfig radio, PathLossConfig pathloss,
               ShadowingConfig shadowing, FadingConfig fading, Rng rng);

  void add_ap(ApSite site);
  void add_client(net::NodeId id,
                  std::shared_ptr<const MobilityModel> mobility,
                  double antenna_gain_dbi = 2.0);

  const std::vector<net::NodeId>& ap_ids() const { return ap_order_; }
  const ApSite& ap(net::NodeId id) const;
  const MobilityModel& client_mobility(net::NodeId id) const;
  double noise_floor_dbm() const;
  const RadioConfig& radio() const { return radio_; }

  /// Per-subcarrier CSI at the client for a frame transmitted by `ap`.
  phy::Csi downlink_csi(net::NodeId ap, net::NodeId client, Time t) const;

  /// Per-subcarrier CSI at `ap` for a frame transmitted by the client —
  /// what the Atheros CSI tool measures and WGTT reports to the controller.
  phy::Csi uplink_csi(net::NodeId ap, net::NodeId client, Time t) const;

  /// Wideband received power (dBm) including fading — the RSSI a beacon
  /// from `ap` produces at the client (baseline 802.11r's metric).
  double downlink_rssi_dbm(net::NodeId ap, net::NodeId client, Time t) const;
  double uplink_rssi_dbm(net::NodeId ap, net::NodeId client, Time t) const;

  /// Large-scale path gain (dB, excludes fast fading) between two clients —
  /// carrier-sense coupling between cars sharing the road.
  double client_to_client_gain_db(net::NodeId a, net::NodeId b, Time t) const;

  /// Generic large-scale gain between any two attached nodes (AP or client);
  /// used by the MAC medium for carrier sense and interference sums.
  double path_gain_db(net::NodeId a, net::NodeId b, Time t) const;

  /// Ground truth for the switching-accuracy metric (paper Table 2): the AP
  /// with the maximum instantaneous downlink selection-ESNR to the client.
  net::NodeId best_ap(net::NodeId client, Time t) const;

  /// Downlink selection ESNR without materializing a full Csi — skips the
  /// per-subcarrier RSSI power sum that ESNR-only consumers (best_ap, the
  /// drive-metrics sampler, the 802.11k scan) never read.  Bitwise equal to
  /// phy::selection_esnr_db(downlink_csi(ap, client, t)).
  double downlink_selection_esnr_db(net::NodeId ap, net::NodeId client,
                                    Time t) const;

  /// Which end of the link transmits.
  enum class Direction { kDownlink, kUplink };

  /// ESNR at `mod` of a frame sent in `dir` at `t`, computed once per link
  /// sample and modulation; bitwise equal to phy::effective_snr_db(csi, mod)
  /// on that direction's Csi.  Copies the Csi into `csi_out` when non-null.
  /// A miss runs the ESNR kernel in the caller's profiler section.
  double esnr_db(Direction dir, net::NodeId ap, net::NodeId client, Time t,
                 phy::Modulation mod, phy::Csi* csi_out = nullptr) const;

  /// APs an exhaustive scan (best_ap, metrics sampling, background scans)
  /// evaluates for `client` at `t`: every AP, in deployment order.
  void candidate_aps(net::NodeId client, Time t,
                     std::vector<net::NodeId>& out) const;

 private:
  struct ClientInfo {
    std::shared_ptr<const MobilityModel> mobility;
    double antenna_gain_dbi = 2.0;
  };
  /// One direction's channel at one (travelled distance, tx power +
  /// large-scale gain) key.  Every double the synthesis reads is a function
  /// of that pair, so equal keys at different instants (a parked client, or
  /// the data/BA sampling pattern) yield identical values; the RSSI and the
  /// per-modulation ESNRs are filled in on first use.
  struct Sample {
    bool valid = false;
    double key_travelled = 0.0;
    double key_base_dbm = 0.0;
    std::array<double, kNumSubcarriers> snr_db{};
    bool rssi_valid = false;
    double rssi_dbm = 0.0;
    unsigned esnr_valid = 0;          // bit per phy::Modulation
    std::array<double, 4> esnr_db{};  // by phy::Modulation
  };
  struct Link {
    std::unique_ptr<FadingProcess> fading;
    std::unique_ptr<ShadowingProcess> shadowing;
    // Hot-path memos, all bitwise-transparent (pure functions of their
    // keys).  The fading response and its per-subcarrier dB fades depend
    // only on travelled distance, so uplink/downlink CSI at one instant —
    // and every sample of a parked client — share one computation.
    double h_distance = -1.0;  // distances are >= 0; -1 = empty memo
    bool h_valid = false;
    std::array<std::complex<double>, kNumSubcarriers> h;
    std::array<double, kNumSubcarriers> fade_db;
    std::array<Sample, 2> samples;  // by Direction
  };

  /// Large-scale gain: antenna gains - path loss - shadowing (dB).
  double large_scale_gain_db(const ApSite& ap, const ClientInfo& client,
                             Time t) const;
  Link& link(net::NodeId ap, net::NodeId client) const;
  /// The link sample for `dir` at `t`: synthesises its SNRs on a miss, and
  /// its RSSI too when `with_rssi` and not yet summed.  Untimed; every
  /// public entry point opens the channel.csi section once.
  Sample& sample(Direction dir, net::NodeId ap, net::NodeId client, Time t,
                 bool with_rssi) const;
  /// The sample as a Csi measured at `t` (its RSSI must be summed).
  static phy::Csi as_csi(const Sample& s, Time t);
  /// The sample's ESNR at `mod`, running the kernel on first use.
  static double esnr_of(Sample& s, phy::Modulation mod);
  /// Refresh l.h / l.fade_db for the client's travelled distance at `t`.
  void refresh_fading(Link& l, double travelled) const;

  RadioConfig radio_;
  LogDistancePathLoss pathloss_;
  ShadowingConfig shadowing_cfg_;
  FadingConfig fading_cfg_;
  mutable Rng rng_;
  std::map<net::NodeId, ApSite> aps_;
  std::vector<net::NodeId> ap_order_;
  std::map<net::NodeId, ClientInfo> clients_;
  mutable std::map<std::pair<net::NodeId, net::NodeId>, Link> links_;
  // Host-time profiling of the per-subcarrier CSI synthesis (the channel's
  // hot path); null when the sim has no profiler.
  prof::Section* p_csi_ = nullptr;
};

}  // namespace wgtt::channel
