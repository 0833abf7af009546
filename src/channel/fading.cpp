#include "channel/fading.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/units.h"
#include "util/vec_math.h"

namespace wgtt::channel {

FadingProcess::FadingProcess(FadingConfig cfg, Rng rng) {
  // Normalise tap powers to sum to 1.
  double total = 0.0;
  for (const auto& spec : cfg.taps) total += db_to_linear(spec.relative_power_db);

  const double wavenumber = 2.0 * kPi / wavelength_m(cfg.carrier_hz);
  const int n = cfg.sinusoids_per_tap;

  // RNG draw order is load-bearing: it must match ReferenceFading
  // (tests/reference_fading.h) exactly (per tap: LOS angle, LOS phase, then
  // per sinusoid theta, phase) or the two classes realise different
  // channels from the same seed.
  taps_.reserve(cfg.taps.size());
  sin_spatial_freq_.reserve(cfg.taps.size() * static_cast<std::size_t>(n));
  sin_phase_.reserve(cfg.taps.size() * static_cast<std::size_t>(n));
  for (const auto& spec : cfg.taps) {
    Tap tap;
    tap.amplitude = std::sqrt(db_to_linear(spec.relative_power_db) / total);
    tap.delay_s = spec.delay_ns * 1e-9;
    const double k_factor = spec.rician_k;
    tap.los_fraction = std::sqrt(k_factor / (k_factor + 1.0));
    tap.nlos_fraction = std::sqrt(1.0 / (k_factor + 1.0)) /
                        std::sqrt(static_cast<double>(n));
    tap.los_spatial_freq = wavenumber * std::cos(rng.uniform(0.0, kPi));
    tap.los_phase = rng.uniform(0.0, 2.0 * kPi);
    tap.sin_begin = sin_spatial_freq_.size();
    tap.sin_count = static_cast<std::size_t>(n);
    for (int i = 0; i < n; ++i) {
      // Angles of arrival uniform around the circle (Clarke's model).
      const double theta = rng.uniform(0.0, 2.0 * kPi);
      sin_spatial_freq_.push_back(wavenumber * std::cos(theta));
      sin_phase_.push_back(rng.uniform(0.0, 2.0 * kPi));
    }
    taps_.push_back(tap);
  }
}

void FadingProcess::batch_tap_gains(double distance_m,
                                    std::complex<double>* gains) const {
  const std::size_t total = sin_spatial_freq_.size();
  scratch_arg_.resize(total);
  scratch_cos_.resize(total);
  scratch_sin_.resize(total);
  // The affine argument is built with the exact reference expression
  // (freq * d + phase, one multiply and one add); only the cos/sin sweep
  // itself goes through vecm, ULP-bounded on its AVX2 path.
  for (std::size_t i = 0; i < total; ++i) {
    scratch_arg_[i] = sin_spatial_freq_[i] * distance_m + sin_phase_[i];
  }
  vecm::sin_cos(scratch_arg_.data(), scratch_cos_.data(), scratch_sin_.data(),
                total);
  for (std::size_t t = 0; t < taps_.size(); ++t) {
    const Tap& tap = taps_[t];
    // Per-tap reduction in reference order (sequential over the tap's
    // slice), so no reassociation widens the seam.
    double re = 0.0;
    double im = 0.0;
    for (std::size_t i = tap.sin_begin; i < tap.sin_begin + tap.sin_count;
         ++i) {
      re += scratch_cos_[i];
      im += scratch_sin_[i];
    }
    std::complex<double> g{re * tap.nlos_fraction, im * tap.nlos_fraction};
    if (tap.los_fraction > 0.0) {
      // One scalar sincos per tap: stays on libm, bitwise-equal to the
      // reference LOS term.
      const double arg = tap.los_spatial_freq * distance_m + tap.los_phase;
      g += std::complex<double>{tap.los_fraction * std::cos(arg),
                                tap.los_fraction * std::sin(arg)};
    }
    gains[t] = g * tap.amplitude;
  }
}

const std::complex<double>* FadingProcess::twiddles_for(
    std::span<const double> subcarrier_offsets_hz) const {
  TwiddleCache& c = twiddles_;
  if (c.offsets_hz.size() == subcarrier_offsets_hz.size() &&
      std::equal(c.offsets_hz.begin(), c.offsets_hz.end(),
                 subcarrier_offsets_hz.begin())) {
    return c.rows.data();
  }
  c.offsets_hz.assign(subcarrier_offsets_hz.begin(),
                      subcarrier_offsets_hz.end());
  c.rows.clear();
  c.rows.reserve(taps_.size() * subcarrier_offsets_hz.size());
  for (const auto& tap : taps_) {
    for (std::size_t k = 0; k < subcarrier_offsets_hz.size(); ++k) {
      // Verbatim the reference twiddle expression: bitwise identity with
      // ReferenceFading depends on computing the exact same arg and the
      // exact same cos/sin here, merely at a different time.
      const double arg = -2.0 * kPi * subcarrier_offsets_hz[k] * tap.delay_s;
      c.rows.emplace_back(std::cos(arg), std::sin(arg));
    }
  }
  return c.rows.data();
}

void FadingProcess::response(double distance_m,
                             std::span<const double> subcarrier_offsets_hz,
                             std::span<std::complex<double>> out) const {
  for (auto& h : out) h = {0.0, 0.0};
  scratch_gain_.resize(taps_.size());
  batch_tap_gains(distance_m, scratch_gain_.data());
  const std::complex<double>* row = twiddles_for(subcarrier_offsets_hz);
  for (std::size_t t = 0; t < taps_.size(); ++t) {
    const std::complex<double> g = scratch_gain_[t];
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] += g * row[k];
    }
    row += subcarrier_offsets_hz.size();
  }
}

double FadingProcess::wideband_gain(
    double distance_m, std::span<const double> subcarrier_offsets_hz) const {
  std::array<std::complex<double>, kNumSubcarriers> h;
  const std::size_t n = std::min(subcarrier_offsets_hz.size(), h.size());
  response(distance_m, subcarrier_offsets_hz.first(n),
           std::span<std::complex<double>>(h.data(), n));
  double p = 0.0;
  for (std::size_t k = 0; k < n; ++k) p += std::norm(h[k]);
  return p / static_cast<double>(n);
}

std::span<const double> ht20_subcarrier_offsets_hz() {
  static const std::array<double, kNumSubcarriers> offsets = [] {
    std::array<double, kNumSubcarriers> o{};
    std::size_t idx = 0;
    for (int k = -28; k <= 28; ++k) {
      if (k == 0) continue;
      o[idx++] = static_cast<double>(k) * 312.5e3;
    }
    return o;
  }();
  return {offsets.data(), offsets.size()};
}

}  // namespace wgtt::channel
