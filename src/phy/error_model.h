// Packet-error model: delivery probability as a function of ESNR and MCS.
//
// Halperin et al. show that the delivery-vs-ESNR curve of a coded 802.11
// rate is a sharp sigmoid: below a per-MCS threshold nothing gets through,
// within ~2 dB of it delivery transitions, above it delivery is clean.  We
// model exactly that: a logistic in ESNR anchored at the MCS's 50 %-PER
// point for a reference MPDU size, with the usual per-bit length scaling.
#pragma once

#include <cstddef>

#include "phy/mcs.h"
#include "util/profiler.h"

namespace wgtt::phy {

struct ErrorModelConfig {
  double logistic_slope_db = 0.8;       // transition width parameter
  std::size_t reference_bytes = 1460;   // MPDU size the anchors are quoted at
};

class ErrorModel {
 public:
  explicit ErrorModel(ErrorModelConfig cfg = {});

  /// Probability that a single MPDU of `bytes` at `m` is lost, given the
  /// effective SNR (dB) for that modulation at the receiver.
  double per(const McsInfo& m, double esnr_db, std::size_t bytes) const;

  /// Convenience: 1 - per().
  double delivery_probability(const McsInfo& m, double esnr_db,
                              std::size_t bytes) const {
    return 1.0 - per(m, esnr_db, bytes);
  }

  /// Highest MCS whose predicted PER at this ESNR is below `target_per`
  /// (returns MCS 0 if none qualifies) — used by the ESNR-driven rate
  /// selection path.
  const McsInfo& best_mcs_for(double esnr_db, std::size_t bytes,
                              double target_per = 0.1) const;

 private:
  ErrorModelConfig cfg_;
  // Host-time profiling of the PER-driven MCS scan; null without a profiler
  // (per() itself is too cheap to time without skewing the result).
  prof::Section* p_mcs_ = nullptr;
};

}  // namespace wgtt::phy
