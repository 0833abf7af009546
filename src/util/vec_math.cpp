#include "util/vec_math.h"

#include <cmath>

#ifdef WGTT_HAVE_LIBMVEC
#include "util/vec_math_avx2.h"
#endif

// This file is compiled for baseline x86-64, never with -mavx2: the scalar
// loops below are what a pre-AVX2 host runs, so they must not be
// VEX-encoded.  They mirror the reference expressions of util/units.h and
// std::erfc/cos/sin exactly, so they are bit-identical to the references.

namespace wgtt::vecm {

bool available() {
#ifdef WGTT_HAVE_LIBMVEC
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

void db_to_linear(const double* x, double* out, std::size_t n) {
#ifdef WGTT_HAVE_LIBMVEC
  if (available()) return avx2::db_to_linear(x, out, n);
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = std::pow(10.0, x[i] / 10.0);
}

void linear_to_db(const double* x, double* out, std::size_t n) {
#ifdef WGTT_HAVE_LIBMVEC
  if (available()) return avx2::linear_to_db(x, out, n);
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = 10.0 * std::log10(x[i]);
}

void erfc(const double* x, double* out, std::size_t n) {
#ifdef WGTT_HAVE_LIBMVEC
  if (available()) return avx2::erfc(x, out, n);
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = std::erfc(x[i]);
}

void sin_cos(const double* x, double* cos_out, double* sin_out,
             std::size_t n) {
#ifdef WGTT_HAVE_LIBMVEC
  if (available()) return avx2::sin_cos(x, cos_out, sin_out, n);
#endif
  for (std::size_t i = 0; i < n; ++i) {
    cos_out[i] = std::cos(x[i]);
    sin_out[i] = std::sin(x[i]);
  }
}

}  // namespace wgtt::vecm
