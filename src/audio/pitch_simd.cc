// AVX2 integer pitch autocorrelation kernel, equal to the scalar reference.
//
// Lanes are lags. vpmaddwd multiplies int16 pairs and adds each pair into
// one int32 lane, so a step covers two samples: the pair (q[j], q[j+1]),
// broadcast to every lane, against the pair (q[j+lag], q[j+lag+1]) in the
// lane of `lag`. Read as int32, the int16 array starting at q[j+lag] holds
// the pairs of lags lag, lag+2, ..., lag+14, and starting one sample later
// those of lag+1, ..., lag+15; two unaligned loads per 16 lags, no
// shuffles. A 32-lag block steps j over the terms of its smallest lag;
// larger lags in the block read the zero padding after the frame, which
// adds nothing. Integer sums are exact in any order, and PitchQmax keeps
// every partial sum of a lane (at most n + 1 products) inside int32.

#include "audio/features.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <cstring>

namespace classminer::audio::internal {

bool IntAutocorrelationAccelAvailable() { return true; }

namespace {

__attribute__((target("avx2"))) inline __m256i LoadPairs(const int16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

// Stores lags lag0 .. lag0+15 from the even-lag and odd-lag accumulators.
__attribute__((target("avx2"))) inline void StoreInterleaved(int32_t* out,
                                                             __m256i even,
                                                             __m256i odd) {
  const __m256i lo = _mm256_unpacklo_epi32(even, odd);  // lags 0-3 | 8-11
  const __m256i hi = _mm256_unpackhi_epi32(even, odd);  // lags 4-7 | 12-15
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permute2x128_si256(lo, hi, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8),
                      _mm256_permute2x128_si256(lo, hi, 0x31));
}

}  // namespace

__attribute__((target("avx2"))) void IntAutocorrelationAccel(
    std::span<const int16_t> q, size_t n, int min_lag, int max_lag,
    std::span<int32_t> r) {
  static_assert(kIntAutocorrLagBlock == 32, "four ymm accumulators");
  const int16_t* x = q.data();
  for (int lag = min_lag; lag <= max_lag; lag += kIntAutocorrLagBlock) {
    const int16_t* y = x + lag;
    __m256i e0 = _mm256_setzero_si256(), o0 = _mm256_setzero_si256();
    __m256i e1 = _mm256_setzero_si256(), o1 = _mm256_setzero_si256();
    const size_t end = n - static_cast<size_t>(lag);
    for (size_t j = 0; j < end; j += 2) {
      int32_t pair;
      std::memcpy(&pair, x + j, sizeof pair);
      const __m256i xj = _mm256_set1_epi32(pair);
      const int16_t* p = y + j;
      e0 = _mm256_add_epi32(e0, _mm256_madd_epi16(xj, LoadPairs(p)));
      o0 = _mm256_add_epi32(o0, _mm256_madd_epi16(xj, LoadPairs(p + 1)));
      e1 = _mm256_add_epi32(e1, _mm256_madd_epi16(xj, LoadPairs(p + 16)));
      o1 = _mm256_add_epi32(o1, _mm256_madd_epi16(xj, LoadPairs(p + 17)));
    }
    int32_t* out = r.data() + (lag - min_lag);
    StoreInterleaved(out, e0, o0);
    StoreInterleaved(out + 16, e1, o1);
  }
}

}  // namespace classminer::audio::internal

#else  // !defined(__x86_64__)

namespace classminer::audio::internal {

// No vector path off x86-64; the dispatcher keeps the scalar kernel.
bool IntAutocorrelationAccelAvailable() { return false; }
void IntAutocorrelationAccel(std::span<const int16_t> q, size_t n,
                             int min_lag, int max_lag, std::span<int32_t> r) {
  IntAutocorrelationScalar(q, n, min_lag, max_lag, r);
}

}  // namespace classminer::audio::internal

#endif
