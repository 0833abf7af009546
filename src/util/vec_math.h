// Vectorized elementary-function kernels for the hot paths.
//
// These wrap glibc's libmvec AVX2 variants (_ZGVdN4v_exp10 & friends) behind
// plain double-array entry points.  They are the "optimized" side of the
// reference-vs-optimized seam (DESIGN.md): results are NOT bitwise identical
// to scalar libm — libmvec documents a worst-case error of 4 ulp per element
// — so every consumer keeps the original scalar implementation alive
// (channel::ReferenceFading beside the differential suite in tests/, and
// phy::reference_effective_snr_db, also the runtime fallback) and the
// differential suite (tests/fading_diff_test.cpp) bounds the divergence.
//
// Consumers must preserve the reference summation ORDER when they reduce
// vectorized elements, so the seam's only divergence is per-element ulps
// from the transcendental kernels, never reassociation.
//
// When libmvec or AVX2 is unavailable (non-x86-64, non-glibc, old CPU),
// available() is false and callers fall back to the scalar reference path;
// outputs are then bit-identical to the pre-optimization simulator, but the
// canonical golden hashes are pinned from the vectorized path.
#pragma once

#include <cstddef>

namespace wgtt::vecm {

/// True when the libmvec kernels were compiled in AND the CPU supports
/// AVX2.  Constant after first call; cheap to query on hot paths.
bool available();

/// out[i] = pow(10, x[i] / 10)  — db_to_linear / dbm_to_mw, <= ~4 ulp.
void db_to_linear(const double* x, double* out, std::size_t n);

/// out[i] = 10 * log10(x[i])  — linear_to_db / mw_to_dbm, <= ~4 ulp.
void linear_to_db(const double* x, double* out, std::size_t n);

/// out[i] = erfc(x[i]), <= ~4 ulp.
void erfc(const double* x, double* out, std::size_t n);

/// cos_out[i] = cos(x[i]); sin_out[i] = sin(x[i]), <= ~4 ulp.
void sin_cos(const double* x, double* cos_out, double* sin_out,
             std::size_t n);

}  // namespace wgtt::vecm
