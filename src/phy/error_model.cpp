#include "phy/error_model.h"

#include <algorithm>
#include <cmath>

#include "obs/context.h"

namespace wgtt::phy {

ErrorModel::ErrorModel(ErrorModelConfig cfg) : cfg_(cfg) {
  if (auto* p = obs::Context::current().profiler) {
    p_mcs_ = &p->section("phy.mcs_select");
  }
}

double ErrorModel::per(const McsInfo& m, double esnr_db,
                       std::size_t bytes) const {
  // Logistic PER at the reference length...
  const double x = (esnr_db - m.per50_esnr_db) / cfg_.logistic_slope_db;
  // Guard against overflow in exp().
  double per_ref;
  if (x > 40.0) {
    per_ref = 0.0;
  } else if (x < -40.0) {
    per_ref = 1.0;
  } else {
    per_ref = 1.0 / (1.0 + std::exp(x));
  }
  if (bytes == cfg_.reference_bytes || per_ref <= 0.0 || per_ref >= 1.0) {
    return std::clamp(per_ref, 0.0, 1.0);
  }
  // ...then scale to the actual length: success is per-bit-independent, so
  // P_success(len) = P_success(ref)^(len/ref).
  const double ratio =
      static_cast<double>(std::max<std::size_t>(bytes, 1)) /
      static_cast<double>(cfg_.reference_bytes);
  return std::clamp(1.0 - std::pow(1.0 - per_ref, ratio), 0.0, 1.0);
}

const McsInfo& ErrorModel::best_mcs_for(double esnr_db, std::size_t bytes,
                                        double target_per) const {
  prof::ScopedSection timer(p_mcs_);
  const McsInfo* best = &mcs(0);
  for (const McsInfo& m : mcs_table()) {
    if (per(m, esnr_db, bytes) <= target_per) best = &m;
  }
  return *best;
}

}  // namespace wgtt::phy
