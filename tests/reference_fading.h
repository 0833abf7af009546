// Reference (unoptimized) fading implementation — the correctness seam for
// the hot-path campaign.
//
// `ReferenceFading` is a line-for-line retention of the original scalar
// `FadingProcess`: per response call it recomputes every per-subcarrier
// twiddle exp(-j 2 pi f_k tau_t) from scratch, with per-tap sinusoid state
// in the original AoS-of-vectors layout.  The optimized `FadingProcess`
// (fading.h) must stay *bitwise identical* to this class — the twiddles are
// distance-independent, so hoisting them into a per-grid cache changes
// where cos/sin run, not what they compute, and the accumulation expression
// `out[k] += g * twiddle` is kept verbatim so floating-point contraction
// behaves the same.  tests/fading_diff_test.cpp (ctest label `diff`)
// enforces the equivalence across randomized configs, grids and distances;
// DESIGN.md ("Reference-vs-optimized seams") documents when bitwise
// identity vs ULP bounds applies.
//
// This class is deliberately NOT used by the simulation: it exists so the
// differential suite always has the original math to compare against, even
// after further optimization passes rework `FadingProcess` internals.  It
// is built only into that suite's binary (wgtt_diff_tests), not into the
// simulator library.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "channel/fading.h"
#include "util/rng.h"

namespace wgtt::channel {

/// The original scalar sum-of-sinusoids tapped-delay-line fading process.
/// Construction consumes the RNG stream in exactly the same order as
/// `FadingProcess`, so both classes seeded with the same fork produce the
/// same realisation — any drift in draw order or count shows up as a
/// response mismatch in the differential suite.
class ReferenceFading {
 public:
  ReferenceFading(FadingConfig cfg, Rng rng);

  /// Complex per-subcarrier response at the given travelled distance; the
  /// original triple loop (taps x sinusoids + taps x subcarriers) with no
  /// caching of the distance-independent subcarrier twiddles.
  void response(double distance_m,
                std::span<const double> subcarrier_offsets_hz,
                std::span<std::complex<double>> out) const;

  /// Wideband power gain (linear, average over subcarriers) at a distance.
  double wideband_gain(double distance_m,
                       std::span<const double> subcarrier_offsets_hz) const;

  std::size_t tap_count() const { return taps_.size(); }

 private:
  struct Tap {
    double amplitude = 0.0;
    double delay_s = 0.0;
    double los_fraction = 0.0;
    double nlos_fraction = 0.0;
    double los_spatial_freq = 0.0;
    double los_phase = 0.0;
    std::vector<double> spatial_freq;
    std::vector<double> phase;
  };

  std::complex<double> tap_gain(const Tap& tap, double distance_m) const;

  std::vector<Tap> taps_;
};

}  // namespace wgtt::channel
