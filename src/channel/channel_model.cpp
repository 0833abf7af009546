#include "channel/channel_model.h"

#include <array>
#include <cassert>
#include <cmath>
#include <complex>
#include <limits>
#include <span>

#include "obs/context.h"
#include "phy/esnr.h"
#include "util/units.h"
#include "util/vec_math.h"

namespace wgtt::channel {

ChannelModel::ChannelModel(RadioConfig radio, PathLossConfig pathloss,
                           ShadowingConfig shadowing, FadingConfig fading,
                           Rng rng)
    : radio_(radio),
      pathloss_(pathloss),
      shadowing_cfg_(shadowing),
      fading_cfg_(fading),
      rng_(rng) {
  if (auto* p = obs::Context::current().profiler) {
    p_csi_ = &p->section("channel.csi");
  }
  fading_cfg_.carrier_hz = radio_.carrier_hz;
}

void ChannelModel::add_ap(ApSite site) {
  assert(site.antenna && "AP needs an antenna pattern");
  ap_order_.push_back(site.id);
  aps_.emplace(site.id, std::move(site));
}

void ChannelModel::add_client(net::NodeId id,
                              std::shared_ptr<const MobilityModel> mobility,
                              double antenna_gain_dbi) {
  assert(mobility);
  clients_[id] = ClientInfo{std::move(mobility), antenna_gain_dbi};
}

const ApSite& ChannelModel::ap(net::NodeId id) const {
  auto it = aps_.find(id);
  assert(it != aps_.end());
  return it->second;
}

const MobilityModel& ChannelModel::client_mobility(net::NodeId id) const {
  auto it = clients_.find(id);
  assert(it != clients_.end());
  return *it->second.mobility;
}

double ChannelModel::noise_floor_dbm() const {
  return wgtt::noise_floor_dbm(radio_.bandwidth_hz, radio_.noise_figure_db);
}

double ChannelModel::large_scale_gain_db(const ApSite& ap,
                                         const ClientInfo& client,
                                         Time t) const {
  const Vec3 pos = client.mobility->position(t);
  const double d = distance(ap.position, pos);
  const double off_boresight = angle_between(ap.boresight, pos - ap.position);
  return ap.antenna->gain_dbi(off_boresight) + client.antenna_gain_dbi -
         pathloss_.loss_db(d) - radio_.ap_system_loss_db;
}

ChannelModel::Link& ChannelModel::link(net::NodeId ap_id,
                                       net::NodeId client_id) const {
  auto key = std::make_pair(ap_id, client_id);
  auto it = links_.find(key);
  if (it == links_.end()) {
    Link l;
    const std::uint64_t tag =
        (static_cast<std::uint64_t>(ap_id) << 32) | client_id;
    l.fading = std::make_unique<FadingProcess>(fading_cfg_,
                                               rng_.fork(tag * 2 + 1));
    l.shadowing = std::make_unique<ShadowingProcess>(shadowing_cfg_,
                                                     rng_.fork(tag * 2));
    it = links_.emplace(key, std::move(l)).first;
  }
  return it->second;
}

void ChannelModel::refresh_fading(Link& l, double travelled) const {
  if (l.h_valid && l.h_distance == travelled) return;
  static_assert(phy::kNumSubcarriers == kNumSubcarriers);
  l.fading->response(travelled, ht20_subcarrier_offsets_hz(),
                     std::span<std::complex<double>>(l.h.data(), l.h.size()));
  // Batched 10*log10 over the squared magnitudes; the floor test reads the
  // exact h2, so the -120 dB clamp binds on the same subcarriers whichever
  // kernel vecm runs (lanes under the floor may produce -inf and are
  // discarded).
  std::array<double, kNumSubcarriers> h2;
  for (std::size_t k = 0; k < kNumSubcarriers; ++k) {
    h2[k] = std::norm(l.h[k]);
  }
  vecm::linear_to_db(h2.data(), l.fade_db.data(), kNumSubcarriers);
  for (std::size_t k = 0; k < kNumSubcarriers; ++k) {
    if (!(h2[k] > 1e-12)) l.fade_db[k] = -120.0;
  }
  l.h_distance = travelled;
  l.h_valid = true;
}

ChannelModel::Sample& ChannelModel::sample(Direction dir, net::NodeId ap_id,
                                           net::NodeId client_id, Time t,
                                           bool with_rssi) const {
  const ApSite& site = ap(ap_id);
  auto cit = clients_.find(client_id);
  assert(cit != clients_.end());
  const ClientInfo& client = cit->second;

  Link& l = link(ap_id, client_id);
  const double travelled = client.mobility->distance_travelled(t);
  const double large_scale = large_scale_gain_db(site, client, t) -
                             l.shadowing->at(travelled);
  const double tx_power_dbm = dir == Direction::kDownlink
                                  ? radio_.ap_tx_power_dbm
                                  : radio_.client_tx_power_dbm;
  const double base_dbm = tx_power_dbm + large_scale;
  Sample& s = l.samples[static_cast<std::size_t>(dir)];
  if (!s.valid || s.key_travelled != travelled ||
      s.key_base_dbm != base_dbm) {
    refresh_fading(l, travelled);
    const double noise = noise_floor_dbm();
    for (std::size_t k = 0; k < kNumSubcarriers; ++k) {
      s.snr_db[k] = base_dbm + l.fade_db[k] - noise;
    }
    s.valid = true;
    s.key_travelled = travelled;
    s.key_base_dbm = base_dbm;
    s.rssi_valid = false;
    s.esnr_valid = 0;
  }
  if (with_rssi && !s.rssi_valid) {
    // The other direction may have moved the fading memo since the miss.
    refresh_fading(l, travelled);
    // Batch the 56 pow(10, x/10) calls of the RSSI power sum; the sum
    // itself stays sequential in subcarrier order (reference association).
    std::array<double, kNumSubcarriers> rx_dbm;
    std::array<double, kNumSubcarriers> rx_mw;
    for (std::size_t k = 0; k < kNumSubcarriers; ++k) {
      rx_dbm[k] = base_dbm + l.fade_db[k];
    }
    vecm::db_to_linear(rx_dbm.data(), rx_mw.data(), kNumSubcarriers);
    double wideband_mw = 0.0;
    for (std::size_t k = 0; k < kNumSubcarriers; ++k) {
      wideband_mw += rx_mw[k];
    }
    s.rssi_dbm =
        mw_to_dbm(wideband_mw / static_cast<double>(kNumSubcarriers));
    s.rssi_valid = true;
  }
  return s;
}

phy::Csi ChannelModel::as_csi(const Sample& s, Time t) {
  assert(s.rssi_valid);
  phy::Csi csi;
  csi.subcarrier_snr_db = s.snr_db;
  csi.rssi_dbm = s.rssi_dbm;
  csi.measured_at = t;
  return csi;
}

double ChannelModel::esnr_of(Sample& s, phy::Modulation mod) {
  const unsigned bit = 1u << static_cast<unsigned>(mod);
  double& esnr = s.esnr_db[static_cast<std::size_t>(mod)];
  if ((s.esnr_valid & bit) == 0) {
    esnr = phy::effective_snr_db(
        std::span<const double>(s.snr_db.data(), s.snr_db.size()), mod);
    s.esnr_valid |= bit;
  }
  return esnr;
}

phy::Csi ChannelModel::downlink_csi(net::NodeId ap, net::NodeId client,
                                    Time t) const {
  prof::ScopedSection timer(p_csi_);
  return as_csi(sample(Direction::kDownlink, ap, client, t, true), t);
}

phy::Csi ChannelModel::uplink_csi(net::NodeId ap, net::NodeId client,
                                  Time t) const {
  prof::ScopedSection timer(p_csi_);
  return as_csi(sample(Direction::kUplink, ap, client, t, true), t);
}

double ChannelModel::downlink_rssi_dbm(net::NodeId ap, net::NodeId client,
                                       Time t) const {
  prof::ScopedSection timer(p_csi_);
  return sample(Direction::kDownlink, ap, client, t, true).rssi_dbm;
}

double ChannelModel::uplink_rssi_dbm(net::NodeId ap, net::NodeId client,
                                     Time t) const {
  prof::ScopedSection timer(p_csi_);
  return sample(Direction::kUplink, ap, client, t, true).rssi_dbm;
}

double ChannelModel::esnr_db(Direction dir, net::NodeId ap,
                             net::NodeId client, Time t, phy::Modulation mod,
                             phy::Csi* csi_out) const {
  Sample* s = nullptr;
  {
    prof::ScopedSection timer(p_csi_);
    s = &sample(dir, ap, client, t, csi_out != nullptr);
    if (csi_out) *csi_out = as_csi(*s, t);
  }
  return esnr_of(*s, mod);
}

double ChannelModel::client_to_client_gain_db(net::NodeId a, net::NodeId b,
                                              Time t) const {
  auto ia = clients_.find(a);
  auto ib = clients_.find(b);
  assert(ia != clients_.end() && ib != clients_.end());
  const double d = distance(ia->second.mobility->position(t),
                            ib->second.mobility->position(t));
  return ia->second.antenna_gain_dbi + ib->second.antenna_gain_dbi -
         pathloss_.loss_db(d);
}

double ChannelModel::path_gain_db(net::NodeId a, net::NodeId b, Time t) const {
  const bool a_ap = aps_.count(a) != 0;
  const bool b_ap = aps_.count(b) != 0;
  if (a_ap && b_ap) {
    const ApSite& sa = ap(a);
    const ApSite& sb = ap(b);
    const double d = distance(sa.position, sb.position);
    const double ga =
        sa.antenna->gain_dbi(angle_between(sa.boresight, sb.position - sa.position));
    const double gb =
        sb.antenna->gain_dbi(angle_between(sb.boresight, sa.position - sb.position));
    return ga + gb - pathloss_.loss_db(d) - 2.0 * radio_.ap_system_loss_db;
  }
  if (!a_ap && !b_ap) return client_to_client_gain_db(a, b, t);
  const net::NodeId ap_id = a_ap ? a : b;
  const net::NodeId client_id = a_ap ? b : a;
  auto cit = clients_.find(client_id);
  assert(cit != clients_.end());
  // Large-scale only (no shadowing/fading) — this feeds carrier-sense and
  // interference sums where second-order accuracy is enough.
  return large_scale_gain_db(ap(ap_id), cit->second, t);
}

double ChannelModel::downlink_selection_esnr_db(net::NodeId ap_id,
                                                net::NodeId client_id,
                                                Time t) const {
  prof::ScopedSection timer(p_csi_);
  return esnr_of(sample(Direction::kDownlink, ap_id, client_id, t, false),
                 phy::kSelectionModulation);
}

void ChannelModel::candidate_aps(net::NodeId /*client*/, Time /*t*/,
                                 std::vector<net::NodeId>& out) const {
  out.assign(ap_order_.begin(), ap_order_.end());
}

net::NodeId ChannelModel::best_ap(net::NodeId client, Time t) const {
  net::NodeId best = 0;
  double best_esnr = -std::numeric_limits<double>::infinity();
  std::vector<net::NodeId> candidates;
  candidate_aps(client, t, candidates);
  for (net::NodeId id : candidates) {
    const double esnr = downlink_selection_esnr_db(id, client, t);
    if (esnr > best_esnr) {
      best_esnr = esnr;
      best = id;
    }
  }
  return best;
}

}  // namespace wgtt::channel
