#include "util/vec_math_avx2.h"

#include <immintrin.h>

// glibc's vector-math library exports the AVX2 variants under the GCC
// vector-ABI mangling.  The __m256d signature matches the vector ABI's
// register convention (argument and result in ymm0), so declaring and
// calling them directly is well-defined.
extern "C" {
__m256d _ZGVdN4v_exp10(__m256d);
__m256d _ZGVdN4v_log10(__m256d);
__m256d _ZGVdN4v_erfc(__m256d);
__m256d _ZGVdN4v_sin(__m256d);
__m256d _ZGVdN4v_cos(__m256d);
}

namespace wgtt::vecm::avx2 {

namespace {

// Apply a 4-wide kernel across n elements.  The tail (n % 4) goes through
// the SAME vector kernel on a zero-padded block, so an element's result
// never depends on where it falls relative to the vector width.
template <typename Kernel>
inline void map4(const double* x, double* out, std::size_t n, Kernel k) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, k(_mm256_loadu_pd(x + i)));
  }
  if (i < n) {
    alignas(32) double pad[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = i; j < n; ++j) pad[j - i] = x[j];
    const __m256d r = k(_mm256_load_pd(pad));
    _mm256_store_pd(pad, r);
    for (std::size_t j = i; j < n; ++j) out[j] = pad[j - i];
  }
}

}  // namespace

void db_to_linear(const double* x, double* out, std::size_t n) {
  const __m256d ten = _mm256_set1_pd(10.0);
  map4(x, out, n, [ten](__m256d v) {
    // Same rounding as the scalar path's db / 10.0 (IEEE division), then
    // exp10 instead of pow(10, .): the one ulp-divergent step.
    return _ZGVdN4v_exp10(_mm256_div_pd(v, ten));
  });
}

void linear_to_db(const double* x, double* out, std::size_t n) {
  const __m256d ten = _mm256_set1_pd(10.0);
  map4(x, out, n, [ten](__m256d v) {
    return _mm256_mul_pd(ten, _ZGVdN4v_log10(v));
  });
}

void erfc(const double* x, double* out, std::size_t n) {
  map4(x, out, n, [](__m256d v) { return _ZGVdN4v_erfc(v); });
}

void sin_cos(const double* x, double* cos_out, double* sin_out,
             std::size_t n) {
  map4(x, cos_out, n, [](__m256d v) { return _ZGVdN4v_cos(v); });
  map4(x, sin_out, n, [](__m256d v) { return _ZGVdN4v_sin(v); });
}

}  // namespace wgtt::vecm::avx2
