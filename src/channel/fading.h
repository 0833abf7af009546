// Small-scale frequency-selective fading.
//
// Tapped-delay-line model: a handful of multipath taps with an exponential
// power-delay profile; each tap's complex gain is a sum-of-sinusoids process
// parameterised by *travelled distance* rather than time (wavenumber-domain
// Jakes model).  This makes channel coherence a spatial property — roughly a
// wavelength (12 cm at 2.4 GHz) — so coherence *time* scales as lambda / v
// and lands at the paper's 2-3 ms for driving speeds automatically.
//
// The per-subcarrier response H_k = sum_t h_t * exp(-j 2 pi f_k tau_t) is the
// quantity the Atheros CSI tool reports per frame; it is what drives both
// the ESNR computation and the frequency-selective fades of paper Fig. 2.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "util/rng.h"

namespace wgtt::channel {

struct TapSpec {
  double delay_ns = 0.0;
  double relative_power_db = 0.0;  // before normalisation
  double rician_k = 0.0;           // linear K factor; 0 => Rayleigh
};

struct FadingConfig {
  double carrier_hz = 2.462e9;  // Wi-Fi channel 11
  int sinusoids_per_tap = 16;
  /// Street-canyon power-delay profile; small delay spread, as the paper
  /// notes the picocells keep delay spread indoor-like (§4).
  std::vector<TapSpec> taps = {
      {0.0, 0.0, 4.0},    // quasi-LOS tap, Rician K = 6 dB
      {50.0, -3.0, 0.0},  {120.0, -7.0, 0.0},
      {250.0, -12.0, 0.0}, {400.0, -18.0, 0.0},
  };
};

/// One fading realisation for one AP-client link (reciprocal: the same
/// process serves uplink and downlink, which is what lets WGTT predict
/// downlink delivery from uplink CSI).
///
/// Hot-path layout (see tests/reference_fading.h for the retained original
/// and DESIGN.md "Reference-vs-optimized seams" for the equivalence
/// contract): the per-subcarrier twiddle exp(-j 2 pi f_k tau_t) depends
/// only on the subcarrier grid and the tap delay — not on distance — so it
/// is computed once per grid and cached, turning the inner response loop
/// into a complex multiply-add over precomputed rows.  Sinusoid state is
/// one flat SoA pair (spatial_freq / phase) shared by all taps so the
/// per-sample cos/sin sweep runs over contiguous memory in one
/// vecm::sin_cos call.  On its AVX2 path that sweep bounds the divergence
/// from the reference at a few ulp per sinusoid; on its scalar path the
/// response is bitwise the reference's.  Every other expression is kept
/// verbatim from the reference — the sums over sinusoids, the LOS term,
/// and the twiddle accumulation keep the reference association exactly —
/// so tests/fading_diff_test.cpp can pin a tight ULP bound.
class FadingProcess {
 public:
  FadingProcess(FadingConfig cfg, Rng rng);

  /// Complex per-subcarrier response at the given travelled distance, for
  /// subcarrier offsets (Hz, relative to carrier).  Normalised so that the
  /// ensemble-average power per subcarrier is 1 (0 dB).
  void response(double distance_m, std::span<const double> subcarrier_offsets_hz,
                std::span<std::complex<double>> out) const;

  /// Wideband power gain (linear, average over subcarriers) at a distance —
  /// a cheaper query used for RSSI-style measurements.
  double wideband_gain(double distance_m,
                       std::span<const double> subcarrier_offsets_hz) const;

  std::size_t tap_count() const { return taps_.size(); }

 private:
  struct Tap {
    double amplitude = 0.0;       // sqrt of normalised tap power
    double delay_s = 0.0;
    double los_fraction = 0.0;    // sqrt(K/(K+1))
    double nlos_fraction = 0.0;   // sqrt(1/(K+1)) / sqrt(N)
    double los_spatial_freq = 0.0;
    double los_phase = 0.0;
    std::size_t sin_begin = 0;    // first sinusoid in the flat SoA arrays
    std::size_t sin_count = 0;
  };
  /// Distance-independent twiddle rows, taps x subcarriers, of one grid.
  /// Keyed by the grid *contents* (spans may point at reused stack storage)
  /// and rebuilt when a different grid arrives; the simulation only ever
  /// presents the HT20 grid, so each process builds it once.
  struct TwiddleCache {
    std::vector<double> offsets_hz;
    std::vector<std::complex<double>> rows;  // taps_.size() * offsets size
  };

  /// All taps' gains at one distance: one vecm cos/sin sweep over the flat
  /// sinusoid arrays, then per-tap reductions in reference order.
  void batch_tap_gains(double distance_m, std::complex<double>* gains) const;
  /// The twiddle rows of this grid, rebuilding the cache if it holds another.
  const std::complex<double>* twiddles_for(
      std::span<const double> subcarrier_offsets_hz) const;

  std::vector<Tap> taps_;
  std::vector<double> sin_spatial_freq_;  // k * cos(theta_n), all taps, SoA
  std::vector<double> sin_phase_;
  mutable TwiddleCache twiddles_;
  // Per-call scratch for the vectorized sweep (single-simulation objects
  // are single-threaded, like the twiddle cache above).
  mutable std::vector<double> scratch_arg_, scratch_cos_, scratch_sin_;
  mutable std::vector<std::complex<double>> scratch_gain_;
};

/// 802.11n HT20 OFDM: 56 used subcarriers at +/-(1..28) * 312.5 kHz.
constexpr std::size_t kNumSubcarriers = 56;
std::span<const double> ht20_subcarrier_offsets_hz();

}  // namespace wgtt::channel
