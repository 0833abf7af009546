// Effective SNR, after Halperin et al., "Predictable 802.11 Packet Delivery
// from Wireless Channel Measurements" (SIGCOMM 2010).
//
// A frequency-selective channel delivers different SNRs on different OFDM
// subcarriers; a flat average over-estimates link quality when a few deep
// fades dominate the error rate.  ESNR instead (1) maps each subcarrier's
// SNR to the bit-error rate of the target modulation, (2) averages the BERs,
// and (3) inverts the BER curve to express the result as the SNR of an
// equivalent *flat* channel.  WGTT uses ESNR as its AP-selection metric
// (§3.1.1) because it accurately predicts delivery under strong multipath.
#pragma once

#include <span>

#include "phy/csi.h"
#include "phy/mcs.h"

namespace wgtt::phy {

/// Uncoded bit-error rate of `mod` at the given symbol SNR (linear).
double ber(Modulation mod, double snr_linear);

/// Inverse of ber(): the linear SNR at which `mod` attains `target_ber`.
/// Monotone bisection; exact to ~1e-4 dB.
double ber_inverse(Modulation mod, double target_ber);

/// Effective SNR in dB of the measured channel for the given modulation.
double effective_snr_db(const Csi& csi, Modulation mod);

/// Same computation on a bare per-subcarrier SNR array — the hot-path
/// entry point for callers that never need the full Csi (RSSI etc.); the
/// Csi overload delegates here, so both are bitwise-identical.
///
/// Runs the mean-BER sweep through the vecm kernels: on their AVX2 path
/// results are ULP-bounded against reference_effective_snr_db(), not
/// bitwise; on their scalar path they are bitwise equal (see DESIGN.md on
/// the reference-vs-optimized seam).
double effective_snr_db(std::span<const double> subcarrier_snr_db,
                        Modulation mod);

/// The retained scalar reference: per-subcarrier pow/erfc through libm,
/// exactly the pre-optimization implementation.  The differential suite
/// asserts effective_snr_db() stays within tight bounds of this, and
/// effective_snr_db() hands it the spans its fixed-size sweep cannot take:
/// empty ones and ones wider than 64 subcarriers.
double reference_effective_snr_db(std::span<const double> subcarrier_snr_db,
                                  Modulation mod);

/// The modulation of the scalar selection metric used by the WGTT
/// controller: the mid-table 16-QAM, a good discriminator across the whole
/// operating range.
constexpr Modulation kSelectionModulation = Modulation::kQam16;

/// The selection metric: ESNR at kSelectionModulation.
double selection_esnr_db(const Csi& csi);

}  // namespace wgtt::phy
