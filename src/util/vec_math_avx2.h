// The libmvec AVX2 sweeps behind wgtt::vecm (util/vec_math.h).  Their
// translation unit is the only one compiled with -mavx2 and is built only
// when CMake found libmvec (WGTT_HAVE_LIBMVEC), so call them only where
// vecm::available() is true.
#pragma once

#include <cstddef>

namespace wgtt::vecm::avx2 {

void db_to_linear(const double* x, double* out, std::size_t n);
void linear_to_db(const double* x, double* out, std::size_t n);
void erfc(const double* x, double* out, std::size_t n);
void sin_cos(const double* x, double* cos_out, double* sin_out,
             std::size_t n);

}  // namespace wgtt::vecm::avx2
