// Vectorized elementary-function kernels for the hot paths.
//
// Each kernel makes the AVX2-or-scalar choice itself, so its callers keep
// one code path: when available(), it runs glibc's libmvec AVX2 variant
// (_ZGVdN4v_exp10 & friends, util/vec_math_avx2.cpp); otherwise it runs a
// scalar libm loop written with the reference expression.
//
// The AVX2 results are NOT bitwise identical to scalar libm — libmvec
// documents a worst-case error of 4 ulp per element — so the original
// scalar implementations stay alive as references (channel::ReferenceFading
// in tests/, phy::reference_effective_snr_db) and the differential suite
// (tests/fading_diff_test.cpp) bounds the divergence.  The scalar loops are
// bit-identical to the references: on a host without AVX2, or in a build
// without libmvec, the suite asserts bitwise equality.  The canonical golden
// hashes are pinned from the AVX2 path.
//
// Consumers must preserve the reference summation ORDER when they reduce
// vectorized elements, so the seam's only divergence is per-element ulps
// from the transcendental kernels, never reassociation.
#pragma once

#include <cstddef>

namespace wgtt::vecm {

/// True when the libmvec kernels were compiled in AND the CPU supports
/// AVX2, i.e. when the kernels below run their AVX2 sweeps.  Constant after
/// the first call.
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
