#include "phy/rate_control.h"

#include <algorithm>

#include "obs/context.h"

namespace wgtt::phy {

MinstrelRateControl::MinstrelRateControl(MinstrelConfig cfg) : cfg_(cfg) {
  if (auto* p = obs::Context::current().profiler) {
    p_select_ = &p->section("phy.rate_select");
  }
}

unsigned MinstrelRateControl::best_rate_index() const {
  unsigned best = 0;
  double best_tput = -1.0;
  for (unsigned i = 0; i < kNumMcs; ++i) {
    const double p = stats_[i].ewma_prob;
    // Rates with hopeless delivery are excluded outright (Minstrel's
    // "prob < 10%" rule) unless nothing else qualifies.
    const double tput = mcs(i).rate_mbps_lgi * (p < 0.1 ? 0.0 : p);
    if (tput > best_tput) {
      best_tput = tput;
      best = i;
    }
  }
  return best;
}

const McsInfo& MinstrelRateControl::select(Time) {
  prof::ScopedSection timer(p_select_);
  ++selections_;
  const unsigned best = best_rate_index();
  if (cfg_.probe_period > 0 && selections_ % cfg_.probe_period == 0) {
    // Lookaround sampling, biased to the neighbourhood of the current best
    // rate so the controller climbs quickly when the channel improves (the
    // dominant pattern in the picocell regime: every approach to a cell
    // centre is an upswing).  The MAC keeps probe aggregates short.
    static constexpr int kPattern[] = {+1, +2, -1, +1, +3, -2};
    constexpr unsigned kPatternLen = sizeof(kPattern) / sizeof(kPattern[0]);
    const int offset = kPattern[probe_cursor_ % kPatternLen];
    ++probe_cursor_;
    const int candidate = static_cast<int>(best) + offset;
    if (candidate >= 0 && candidate < static_cast<int>(kNumMcs) &&
        candidate != static_cast<int>(best)) {
      last_was_probe_ = true;
      return mcs(static_cast<unsigned>(candidate));
    }
  }
  last_was_probe_ = false;
  return mcs(best);
}

void MinstrelRateControl::report(const McsInfo& used, unsigned attempted,
                                 unsigned delivered, Time) {
  if (attempted == 0) return;
  RateStats& st = stats_[used.index];
  const double sample =
      static_cast<double>(delivered) / static_cast<double>(attempted);
  if (!st.ever_reported) {
    st.ewma_prob = sample;
    st.ever_reported = true;
  } else {
    st.ewma_prob =
        (1.0 - cfg_.ewma_weight) * st.ewma_prob + cfg_.ewma_weight * sample;
  }
}

double MinstrelRateControl::success_estimate(unsigned mcs_index) const {
  return stats_[std::min<unsigned>(mcs_index, kNumMcs - 1)].ewma_prob;
}

EsnrRateControl::EsnrRateControl(const ErrorModel& error_model, Time max_age,
                                 std::size_t mpdu_bytes)
    : error_model_(error_model), max_age_(max_age), mpdu_bytes_(mpdu_bytes) {}

const McsInfo& EsnrRateControl::select(Time now) {
  if (!have_esnr_ || now - esnr_at_ > max_age_) return basic_mcs();
  return error_model_.best_mcs_for(esnr_db_, mpdu_bytes_);
}

void EsnrRateControl::update_esnr(double esnr_db, Time now) {
  esnr_db_ = esnr_db;
  esnr_at_ = now;
  have_esnr_ = true;
}

}  // namespace wgtt::phy
