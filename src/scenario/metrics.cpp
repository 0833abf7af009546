#include "scenario/metrics.h"

#include "phy/esnr.h"

namespace wgtt::scenario {

DriveMetrics::DriveMetrics(Testbed& bed,
                           std::function<net::NodeId(net::NodeId)> lookup,
                           Time sample_period,
                           double coverage_esnr_threshold_db)
    : bed_(bed),
      active_lookup_(std::move(lookup)),
      period_(sample_period),
      coverage_threshold_db_(coverage_esnr_threshold_db) {}

void DriveMetrics::track_client(net::NodeId client) { clients_[client]; }

void DriveMetrics::attach_bitrate_probe(mac::WifiDevice& ap_device) {
  ap_device.on_data_exchange = [this](net::NodeId peer,
                                      const phy::McsInfo& mcs,
                                      unsigned attempted, unsigned delivered,
                                      Time when) {
    (void)attempted;
    (void)delivered;
    auto it = clients_.find(peer);
    if (it == clients_.end()) return;
    it->second.bitrates.add(mcs.rate_mbps_lgi);
    it->second.bitrate_series.emplace_back(when, mcs.rate_mbps_lgi);
  };
}

void DriveMetrics::start() {
  if (started_) return;
  started_ = true;
  sample();
}

void DriveMetrics::sample() {
  const Time now = bed_.sched().now();
  for (auto& [client, pc] : clients_) {
    TimelinePoint pt;
    pt.t = now;
    pt.active = active_lookup_ ? active_lookup_(client) : 0;
    // Ground truth: best instantaneous downlink ESNR across all APs.  The
    // ESNR-only fast path skips the RSSI synthesis this sampler never reads.
    double best = -1e9;
    bed_.channel().candidate_aps(client, now, candidate_scratch_);
    for (net::NodeId ap : candidate_scratch_) {
      const double esnr =
          bed_.channel().downlink_selection_esnr_db(ap, client, now);
      if (esnr > best) {
        best = esnr;
        pt.optimal = ap;
      }
    }
    pt.optimal_esnr_db = best;
    pt.in_coverage = best >= coverage_threshold_db_;
    pc.timeline.push_back(pt);
  }
  bed_.sched().schedule(period_, [this]() { sample(); });
}

// Accessors for untracked clients return empty results rather than asserting:
// in a release build the assert would vanish and dereferencing end() is UB,
// which a mislabeled client id in an experiment should not turn into memory
// corruption.  The statics are never written after construction, so the
// shared references are safe even with concurrent sims on other threads.

const std::vector<DriveMetrics::TimelinePoint>& DriveMetrics::timeline(
    net::NodeId client) const {
  static const std::vector<TimelinePoint> kEmpty;
  auto it = clients_.find(client);
  if (it == clients_.end()) return kEmpty;
  return it->second.timeline;
}

double DriveMetrics::switching_accuracy(net::NodeId client) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return 0.0;
  std::size_t considered = 0;
  std::size_t correct = 0;
  for (const TimelinePoint& pt : it->second.timeline) {
    if (!pt.in_coverage || pt.active == 0) continue;
    ++considered;
    if (pt.active == pt.optimal) ++correct;
  }
  if (considered == 0) return 0.0;
  return static_cast<double>(correct) / static_cast<double>(considered);
}

const SampleSet& DriveMetrics::bitrate_samples(net::NodeId client) const {
  static const SampleSet kEmpty;
  auto it = clients_.find(client);
  if (it == clients_.end()) return kEmpty;
  return it->second.bitrates;
}

const std::vector<std::pair<Time, double>>& DriveMetrics::bitrate_series(
    net::NodeId client) const {
  static const std::vector<std::pair<Time, double>> kEmpty;
  auto it = clients_.find(client);
  if (it == clients_.end()) return kEmpty;
  return it->second.bitrate_series;
}

}  // namespace wgtt::scenario
