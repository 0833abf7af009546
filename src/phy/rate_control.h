// Transmit bit-rate adaptation.
//
// The testbed keeps the stock Atheros rate control (Minstrel) — paper §4 —
// so the default here is a Minstrel-style sampler: per-rate delivery
// probability EWMAs learned from A-MPDU completion feedback, occasional
// probing of non-best rates, and expected-throughput rate selection.
//
// An ESNR-driven controller is also provided (the channel-aware alternative
// WGTT's CSI plumbing makes possible); experiments use Minstrel unless noted.
#pragma once

#include <array>
#include <cstddef>
#include <memory>

#include "phy/error_model.h"
#include "phy/mcs.h"
#include "util/profiler.h"
#include "util/time.h"

namespace wgtt::phy {

class RateControl {
 public:
  virtual ~RateControl() = default;
  /// Rate to use for the next aggregate to this client.
  virtual const McsInfo& select(Time now) = 0;
  /// True if the rate just returned by select() was a sampling probe; the
  /// MAC keeps probe aggregates short so a failed probe costs little
  /// airtime (as Minstrel's sampling does).
  virtual bool last_was_probe() const { return false; }
  /// Feedback from Block-ACK processing: `delivered` of `attempted` MPDUs
  /// of the aggregate sent at `used` got through.
  virtual void report(const McsInfo& used, unsigned attempted,
                      unsigned delivered, Time now) = 0;
};

struct MinstrelConfig {
  double ewma_weight = 0.25;  // weight of the newest observation
  unsigned probe_period = 4;  // probe a non-best rate every N selections
};

class MinstrelRateControl final : public RateControl {
 public:
  explicit MinstrelRateControl(MinstrelConfig cfg = {});
  const McsInfo& select(Time now) override;
  bool last_was_probe() const override { return last_was_probe_; }
  void report(const McsInfo& used, unsigned attempted, unsigned delivered,
              Time now) override;

  /// Current success-probability estimate for an MCS (for tests/telemetry).
  double success_estimate(unsigned mcs_index) const;

 private:
  unsigned best_rate_index() const;

  MinstrelConfig cfg_;
  prof::Section* p_select_ = nullptr;
  struct RateStats {
    double ewma_prob = 1.0;  // optimistic start => rates get sampled
    bool ever_reported = false;
  };
  std::array<RateStats, kNumMcs> stats_{};
  unsigned selections_ = 0;
  unsigned probe_cursor_ = 0;  // cycles the lookaround pattern
  bool last_was_probe_ = false;
};

/// Channel-aware selection from the most recent ESNR estimate, falling back
/// to a robust rate when the estimate is stale (older than `max_age`).
class EsnrRateControl final : public RateControl {
 public:
  EsnrRateControl(const ErrorModel& error_model, Time max_age = Time::ms(50),
                  std::size_t mpdu_bytes = 1460);
  const McsInfo& select(Time now) override;
  void report(const McsInfo&, unsigned, unsigned, Time) override {}

  void update_esnr(double esnr_db, Time now);

 private:
  const ErrorModel& error_model_;
  Time max_age_;
  std::size_t mpdu_bytes_;
  double esnr_db_ = 0.0;
  Time esnr_at_ = Time::zero();
  bool have_esnr_ = false;
};

}  // namespace wgtt::phy
