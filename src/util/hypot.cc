// Lane-wise hypot, bit-identical to std::hypot (glibc >= 2.35).
//
// glibc computes hypot(x, y) for ax = max(|x|, |y|), ay = min(|x|, |y|)
// with Borges' corrected kernel ("An Improved Algorithm for hypot(a,b)",
// 2019), in its non-FMA form:
//
//   h = sqrt(ax*ax + ay*ay)
//   if (h <= 2*ay) { d = h - ay; t1 = ax*(2d - ax); t2 = (d - 2(ax - ay))*d; }
//   else           { d = h - ax; t1 = 2d*(ax - 2ay); t2 = (4d - ay)*ay + d*d; }
//   h -= (t1 + t2) / (2h)
//
// unscaled when ay is not tiny, ax is not huge and ay > ax * 2^-54; every
// other input is scaled by 2^-600 first or answered as ax + ay. The AVX2
// kernel below runs those operations in four lanes, both branches
// computed and one picked per lane by blend, and sends every lane outside
// ay in [2^-500, ax], ax <= 2^500, ay > ax * 2^-54 to std::hypot. That
// range is narrower than glibc's own (2^-511 .. 2^511): with its bounds at
// 2^-511 the copy is 1 ulp off for inputs such as
// (-0x1.4eab341e636dp-511, -0x1.67a49c7c7615fp-511). NaN lanes fall back
// too, and so do zeros (the im = 0 DC and Nyquist bins of a real signal's
// spectrum), subnormals and infinities.
//
// This file is compiled with -ffp-contract=off (src/CMakeLists.txt): the
// copy must round after every multiply as glibc's does, and with FMA
// enabled GCC's default contraction fuses them (a build of this kernel
// with -mfma missed 29 384 of 2e7 lanes).

#include "util/hypot.h"

#include <cmath>

#include "util/cpu.h"
#include "util/logging.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace classminer::util {
namespace {

void HypotScalar(const double* x, const double* y, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = std::hypot(x[i], y[i]);
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) void HypotAvx2(const double* x,
                                               const double* y, double* out,
                                               size_t n) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d four = _mm256_set1_pd(4.0);
  const __m256d tiny = _mm256_set1_pd(0x1p-500);
  const __m256d huge = _mm256_set1_pd(0x1p500);
  const __m256d eps = _mm256_set1_pd(0x1p-54);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_andnot_pd(sign, _mm256_loadu_pd(x + i));
    const __m256d b = _mm256_andnot_pd(sign, _mm256_loadu_pd(y + i));
    // max/min return their second operand when either is NaN, so a NaN
    // lane is caught by the ordered compare rather than the range.
    const __m256d ax = _mm256_max_pd(a, b);
    const __m256d ay = _mm256_min_pd(a, b);
    const __m256d common = _mm256_and_pd(
        _mm256_and_pd(_mm256_cmp_pd(a, b, _CMP_ORD_Q),
                      _mm256_cmp_pd(ay, tiny, _CMP_GE_OQ)),
        _mm256_and_pd(_mm256_cmp_pd(ax, huge, _CMP_LE_OQ),
                      _mm256_cmp_pd(ay, _mm256_mul_pd(ax, eps), _CMP_GT_OQ)));

    __m256d h = _mm256_sqrt_pd(
        _mm256_add_pd(_mm256_mul_pd(ax, ax), _mm256_mul_pd(ay, ay)));
    const __m256d near = _mm256_cmp_pd(h, _mm256_mul_pd(two, ay), _CMP_LE_OQ);
    // h <= 2ay: d = h - ay.
    const __m256d d1 = _mm256_sub_pd(h, ay);
    const __m256d t1_near =
        _mm256_mul_pd(ax, _mm256_sub_pd(_mm256_mul_pd(two, d1), ax));
    const __m256d t2_near = _mm256_mul_pd(
        _mm256_sub_pd(d1, _mm256_mul_pd(two, _mm256_sub_pd(ax, ay))), d1);
    // Otherwise: d = h - ax.
    const __m256d d2 = _mm256_sub_pd(h, ax);
    const __m256d t1_far = _mm256_mul_pd(
        _mm256_mul_pd(two, d2), _mm256_sub_pd(ax, _mm256_mul_pd(two, ay)));
    const __m256d t2_far = _mm256_add_pd(
        _mm256_mul_pd(_mm256_sub_pd(_mm256_mul_pd(four, d2), ay), ay),
        _mm256_mul_pd(d2, d2));
    const __m256d t1 = _mm256_blendv_pd(t1_far, t1_near, near);
    const __m256d t2 = _mm256_blendv_pd(t2_far, t2_near, near);
    h = _mm256_sub_pd(
        h, _mm256_div_pd(_mm256_add_pd(t1, t2), _mm256_mul_pd(two, h)));
    _mm256_storeu_pd(out + i, h);

    const int lanes = _mm256_movemask_pd(common);
    if (lanes != 0xF) {
      for (size_t l = 0; l < 4; ++l) {
        if (!(lanes >> l & 1)) out[i + l] = std::hypot(x[i + l], y[i + l]);
      }
    }
  }
  HypotScalar(x + i, y + i, out + i, n - i);
}

#endif  // defined(__x86_64__)

}  // namespace

void Hypot(std::span<const double> x, std::span<const double> y,
           std::span<double> out) {
  CM_CHECK(x.size() == out.size() && y.size() == out.size())
      << "hypot span size mismatch";
#if defined(__x86_64__)
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    HypotAvx2(x.data(), y.data(), out.data(), out.size());
    return;
  }
#endif
  HypotScalar(x.data(), y.data(), out.data(), out.size());
}

}  // namespace classminer::util
