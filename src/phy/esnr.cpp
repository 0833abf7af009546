#include "phy/esnr.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/units.h"
#include "util/vec_math.h"

namespace wgtt::phy {
namespace {

inline double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

}  // namespace

double ber(Modulation mod, double snr_linear) {
  snr_linear = std::max(snr_linear, 0.0);
  switch (mod) {
    case Modulation::kBpsk:
      return q_function(std::sqrt(2.0 * snr_linear));
    case Modulation::kQpsk:
      return q_function(std::sqrt(snr_linear));
    // Gray-coded square M-QAM nearest-neighbour approximation.  The two
    // orders are split so m, log2(m), and sqrt(m) fold to compile-time
    // constants (they are exact doubles, so this is bitwise-identical to
    // computing them per call).
    case Modulation::kQam16: {
      constexpr double m = 16.0;
      const double k = std::log2(m);
      return 4.0 / k * (1.0 - 1.0 / std::sqrt(m)) *
             q_function(std::sqrt(3.0 * snr_linear / (m - 1.0)));
    }
    case Modulation::kQam64: {
      constexpr double m = 64.0;
      const double k = std::log2(m);
      return 4.0 / k * (1.0 - 1.0 / std::sqrt(m)) *
             q_function(std::sqrt(3.0 * snr_linear / (m - 1.0)));
    }
  }
  return 0.5;
}

namespace {

// ber() is monotone decreasing in SNR, so its inverse can be tabulated once
// per modulation: SNR from -30 dB to +50 dB in 0.05 dB steps.  The inverse
// lookup is a binary search over the (descending) BER table plus linear
// interpolation — this sits on the hot path of every ESNR computation.
struct BerTable {
  static constexpr int kSteps = 1601;
  static constexpr double kLoDb = -30.0;
  static constexpr double kStepDb = 0.05;
  std::array<double, kSteps> ber_at{};  // descending in index

  explicit BerTable(Modulation mod) {
    for (int i = 0; i < kSteps; ++i) {
      ber_at[static_cast<std::size_t>(i)] =
          ber(mod, db_to_linear(kLoDb + kStepDb * i));
    }
  }

  double snr_db_for(double target) const {
    if (target >= ber_at.front()) return kLoDb;
    if (target <= ber_at.back()) return kLoDb + kStepDb * (kSteps - 1);
    // Find the first index with ber < target (table is descending).
    int lo = 0;
    int hi = kSteps - 1;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      if (ber_at[static_cast<std::size_t>(mid)] > target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const double b_lo = ber_at[static_cast<std::size_t>(lo)];
    const double b_hi = ber_at[static_cast<std::size_t>(hi)];
    const double frac = b_lo > b_hi ? (b_lo - target) / (b_lo - b_hi) : 0.0;
    return kLoDb + kStepDb * (lo + frac);
  }
};

const BerTable& ber_table(Modulation mod) {
  static const BerTable bpsk{Modulation::kBpsk};
  static const BerTable qpsk{Modulation::kQpsk};
  static const BerTable qam16{Modulation::kQam16};
  static const BerTable qam64{Modulation::kQam64};
  switch (mod) {
    case Modulation::kBpsk: return bpsk;
    case Modulation::kQpsk: return qpsk;
    case Modulation::kQam16: return qam16;
    case Modulation::kQam64: return qam64;
  }
  return bpsk;
}

// Vectorized mean-BER: batch the per-subcarrier pow into one vecm
// db_to_linear sweep and the erfc tail into one vecm erfc sweep, with every
// surrounding arithmetic step (scale, divide, sqrt, final sum) kept in the
// reference expression order.  The only divergence from
// reference_effective_snr_db() is the per-element ulps of vecm's AVX2
// exp10-vs-pow and vector-vs-scalar erfc; its scalar loops are bitwise the
// reference's.
constexpr std::size_t kMaxVecSubcarriers = 64;

double vectorized_mean_ber(std::span<const double> subcarrier_snr_db,
                           Modulation mod) {
  const std::size_t n = subcarrier_snr_db.size();
  double lin[kMaxVecSubcarriers];
  vecm::db_to_linear(subcarrier_snr_db.data(), lin, n);

  // Per-modulation constants, written with the same expressions ber() uses
  // so they fold to the same doubles (all intermediate values are exact).
  double scale = 1.0;   // multiplies snr before the divide
  double denom = 1.0;   // divides scale * snr
  double c1 = 1.0;      // multiplies the Q-function
  switch (mod) {
    case Modulation::kBpsk:
      scale = 2.0;
      break;
    case Modulation::kQpsk:
      break;
    case Modulation::kQam16: {
      constexpr double m = 16.0;
      c1 = 4.0 / std::log2(m) * (1.0 - 1.0 / std::sqrt(m));
      scale = 3.0;
      denom = m - 1.0;
      break;
    }
    case Modulation::kQam64: {
      constexpr double m = 64.0;
      c1 = 4.0 / std::log2(m) * (1.0 - 1.0 / std::sqrt(m));
      scale = 3.0;
      denom = m - 1.0;
      break;
    }
  }

  double arg[kMaxVecSubcarriers];
  const double sqrt2 = std::sqrt(2.0);
  for (std::size_t i = 0; i < n; ++i) {
    // max / * / / / sqrt / / are all exactly-rounded IEEE ops, matching the
    // scalar path bit for bit (multiplying or dividing by 1.0 is exact).
    const double snr = std::max(lin[i], 0.0);
    arg[i] = std::sqrt(scale * snr / denom) / sqrt2;
  }
  double erfc_out[kMaxVecSubcarriers];
  vecm::erfc(arg, erfc_out, n);

  double mean_ber = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_ber += c1 * (0.5 * erfc_out[i]);
  }
  return mean_ber / static_cast<double>(n);
}

}  // namespace

double ber_inverse(Modulation mod, double target_ber) {
  target_ber = std::clamp(target_ber, 1e-12, 0.5);
  return db_to_linear(ber_table(mod).snr_db_for(target_ber));
}

double reference_effective_snr_db(std::span<const double> subcarrier_snr_db,
                                  Modulation mod) {
  double mean_ber = 0.0;
  for (double snr_db : subcarrier_snr_db) {
    mean_ber += ber(mod, db_to_linear(snr_db));
  }
  mean_ber /= static_cast<double>(subcarrier_snr_db.size());
  return linear_to_db(ber_inverse(mod, mean_ber));
}

double effective_snr_db(std::span<const double> subcarrier_snr_db,
                        Modulation mod) {
  const std::size_t n = subcarrier_snr_db.size();
  if (n == 0 || n > kMaxVecSubcarriers) {
    return reference_effective_snr_db(subcarrier_snr_db, mod);
  }
  const double mean_ber = vectorized_mean_ber(subcarrier_snr_db, mod);
  return linear_to_db(ber_inverse(mod, mean_ber));
}

double effective_snr_db(const Csi& csi, Modulation mod) {
  return effective_snr_db(
      std::span<const double>(csi.subcarrier_snr_db.data(), kNumSubcarriers),
      mod);
}

double selection_esnr_db(const Csi& csi) {
  return effective_snr_db(csi, kSelectionModulation);
}

}  // namespace wgtt::phy
