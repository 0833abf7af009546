#include "reference_fading.h"

#include <array>
#include <cmath>

#include "util/units.h"

namespace wgtt::channel {

ReferenceFading::ReferenceFading(FadingConfig cfg, Rng rng) {
  // Normalise tap powers to sum to 1.
  double total = 0.0;
  for (const auto& spec : cfg.taps) total += db_to_linear(spec.relative_power_db);

  const double wavenumber = 2.0 * kPi / wavelength_m(cfg.carrier_hz);
  const int n = cfg.sinusoids_per_tap;

  taps_.reserve(cfg.taps.size());
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
    tap.spatial_freq.reserve(static_cast<std::size_t>(n));
    tap.phase.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      // Angles of arrival uniform around the circle (Clarke's model).
      const double theta = rng.uniform(0.0, 2.0 * kPi);
      tap.spatial_freq.push_back(wavenumber * std::cos(theta));
      tap.phase.push_back(rng.uniform(0.0, 2.0 * kPi));
    }
    taps_.push_back(std::move(tap));
  }
}

std::complex<double> ReferenceFading::tap_gain(const Tap& tap,
                                               double distance_m) const {
  double re = 0.0;
  double im = 0.0;
  for (std::size_t i = 0; i < tap.spatial_freq.size(); ++i) {
    const double arg = tap.spatial_freq[i] * distance_m + tap.phase[i];
    re += std::cos(arg);
    im += std::sin(arg);
  }
  std::complex<double> g{re * tap.nlos_fraction, im * tap.nlos_fraction};
  if (tap.los_fraction > 0.0) {
    const double arg = tap.los_spatial_freq * distance_m + tap.los_phase;
    g += std::complex<double>{tap.los_fraction * std::cos(arg),
                              tap.los_fraction * std::sin(arg)};
  }
  return g * tap.amplitude;
}

void ReferenceFading::response(double distance_m,
                               std::span<const double> subcarrier_offsets_hz,
                               std::span<std::complex<double>> out) const {
  for (auto& h : out) h = {0.0, 0.0};
  for (const auto& tap : taps_) {
    const std::complex<double> g = tap_gain(tap, distance_m);
    for (std::size_t k = 0; k < out.size(); ++k) {
      const double arg = -2.0 * kPi * subcarrier_offsets_hz[k] * tap.delay_s;
      out[k] += g * std::complex<double>{std::cos(arg), std::sin(arg)};
    }
  }
}

double ReferenceFading::wideband_gain(
    double distance_m, std::span<const double> subcarrier_offsets_hz) const {
  std::array<std::complex<double>, kNumSubcarriers> h;
  const std::size_t n = std::min(subcarrier_offsets_hz.size(), h.size());
  response(distance_m, subcarrier_offsets_hz.first(n),
           std::span<std::complex<double>>(h.data(), n));
  double p = 0.0;
  for (std::size_t k = 0; k < n; ++k) p += std::norm(h[k]);
  return p / static_cast<double>(n);
}

}  // namespace wgtt::channel
