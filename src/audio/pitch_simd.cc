// AVX2 pitch autocorrelation kernel, bit-identical to the scalar reference.
//
// Lanes are lags, never samples: a block of 32 adjacent lags lives in eight
// ymm accumulators, and each sample x[i] is broadcast against the 32
// shifted samples x[i + lag .. i + lag + 31]. Every lane therefore adds its
// own products one at a time in ascending i, exactly the scalar chain. The
// products are float x float widened to double, which is exact, so the
// explicit vmulpd + vaddpd rounds only at the add, as the scalar loop
// does. Lanes past their lag's last term read the zero padding after the
// frame and add a signed zero, which leaves a sum that started at +0.0
// unchanged.

#include "audio/features.h"

#if defined(__x86_64__)

#include <immintrin.h>

namespace classminer::audio::internal {

bool AutocorrelationAccelAvailable() { return true; }

__attribute__((target("avx2"))) void AutocorrelationAccel(
    std::span<const double> x, size_t n, int min_lag, int max_lag,
    std::span<double> r) {
  static_assert(kAutocorrLagBlock == 32, "eight ymm accumulators");
  for (int lag = min_lag; lag <= max_lag; lag += kAutocorrLagBlock) {
    const double* y = x.data() + lag;
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    __m256d a4 = _mm256_setzero_pd(), a5 = _mm256_setzero_pd();
    __m256d a6 = _mm256_setzero_pd(), a7 = _mm256_setzero_pd();
    const size_t end = n - static_cast<size_t>(lag);
    for (size_t i = 0; i < end; ++i) {
      const __m256d xi = _mm256_broadcast_sd(x.data() + i);
      const double* p = y + i;
      // Explicit mul + add (not FMA), mirroring the scalar kernel.
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(xi, _mm256_loadu_pd(p)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(xi, _mm256_loadu_pd(p + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(xi, _mm256_loadu_pd(p + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(xi, _mm256_loadu_pd(p + 12)));
      a4 = _mm256_add_pd(a4, _mm256_mul_pd(xi, _mm256_loadu_pd(p + 16)));
      a5 = _mm256_add_pd(a5, _mm256_mul_pd(xi, _mm256_loadu_pd(p + 20)));
      a6 = _mm256_add_pd(a6, _mm256_mul_pd(xi, _mm256_loadu_pd(p + 24)));
      a7 = _mm256_add_pd(a7, _mm256_mul_pd(xi, _mm256_loadu_pd(p + 28)));
    }
    double* out = r.data() + (lag - min_lag);
    _mm256_storeu_pd(out, a0);
    _mm256_storeu_pd(out + 4, a1);
    _mm256_storeu_pd(out + 8, a2);
    _mm256_storeu_pd(out + 12, a3);
    _mm256_storeu_pd(out + 16, a4);
    _mm256_storeu_pd(out + 20, a5);
    _mm256_storeu_pd(out + 24, a6);
    _mm256_storeu_pd(out + 28, a7);
  }
}

}  // namespace classminer::audio::internal

#else  // !defined(__x86_64__)

namespace classminer::audio::internal {

// No vector path off x86-64; the dispatcher keeps the scalar kernel.
bool AutocorrelationAccelAvailable() { return false; }
void AutocorrelationAccel(std::span<const double> x, size_t n, int min_lag,
                          int max_lag, std::span<double> r) {
  AutocorrelationScalar(x, n, min_lag, max_lag, r);
}

}  // namespace classminer::audio::internal

#endif
