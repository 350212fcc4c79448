// AVX2 FFT butterfly stage, bit-identical to the scalar stage in fft.cc.
//
// Lanes are four adjacent butterflies of one group (k, k+1, k+2, k+3), so
// each lane performs the scalar butterfly's own multiplies, one subtract
// and adds on the same operands; nothing is reassociated, and explicit
// vmulpd/vaddpd/vsubpd (no FMA) round exactly where the scalar code does.

#include "util/fft.h"

#if defined(__x86_64__)

#include <immintrin.h>

namespace classminer::util::internal {

bool FftAccelAvailable() { return true; }

__attribute__((target("avx2"))) void FftStageAccel(double* re, double* im,
                                                   size_t n, size_t half,
                                                   const double* wr,
                                                   const double* wi) {
  for (size_t i = 0; i < n; i += 2 * half) {
    double* ar = re + i;
    double* ai = im + i;
    double* br = ar + half;
    double* bi = ai + half;
    for (size_t k = 0; k < half; k += 4) {
      const __m256d xr = _mm256_loadu_pd(br + k);
      const __m256d xi = _mm256_loadu_pd(bi + k);
      const __m256d cr = _mm256_loadu_pd(wr + k);
      const __m256d ci = _mm256_loadu_pd(wi + k);
      const __m256d vr =
          _mm256_sub_pd(_mm256_mul_pd(xr, cr), _mm256_mul_pd(xi, ci));
      const __m256d vi =
          _mm256_add_pd(_mm256_mul_pd(xr, ci), _mm256_mul_pd(xi, cr));
      const __m256d ur = _mm256_loadu_pd(ar + k);
      const __m256d ui = _mm256_loadu_pd(ai + k);
      _mm256_storeu_pd(ar + k, _mm256_add_pd(ur, vr));
      _mm256_storeu_pd(ai + k, _mm256_add_pd(ui, vi));
      _mm256_storeu_pd(br + k, _mm256_sub_pd(ur, vr));
      _mm256_storeu_pd(bi + k, _mm256_sub_pd(ui, vi));
    }
  }
}

}  // namespace classminer::util::internal

#else  // !defined(__x86_64__)

#include "util/logging.h"

namespace classminer::util::internal {

// No vector path off x86-64; FftPlan keeps its scalar stages.
bool FftAccelAvailable() { return false; }
void FftStageAccel(double*, double*, size_t, size_t, const double*,
                   const double*) {
  CM_CHECK(false) << "FftStageAccel called without FftAccelAvailable()";
}

}  // namespace classminer::util::internal

#endif
