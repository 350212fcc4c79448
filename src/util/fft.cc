#include "util/fft.h"

#include <cmath>
#include <complex>
#include <numbers>

#include "util/logging.h"

namespace classminer::util {

FftPlan::FftPlan(size_t n) : n_(n) {
  CM_CHECK(n > 0 && (n & (n - 1)) == 0) << "FFT size must be a power of two";
  CM_CHECK(n <= (size_t{1} << 31)) << "FFT size too large";

  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) swaps_.emplace_back(static_cast<uint32_t>(i),
                                   static_cast<uint32_t>(j));
  }

  // One twiddle run per stage, stepped by complex multiplication exactly as
  // the butterfly loop of an unplanned transform steps it; a closed-form
  // cos/sin per k would round differently.
  twiddle_re_.resize(n > 1 ? n - 1 : 0);
  twiddle_im_.resize(twiddle_re_.size());
  for (size_t len = 2; len <= n; len <<= 1) {
    const double angle = -(2.0 * std::numbers::pi / static_cast<double>(len));
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    std::complex<double> w(1.0, 0.0);
    const size_t half = len / 2;
    for (size_t k = 0; k < half; ++k) {
      twiddle_re_[half - 1 + k] = w.real();
      twiddle_im_[half - 1 + k] = w.imag();
      w *= wlen;
    }
  }
}

void FftPlan::Transform(std::span<double> re, std::span<double> im) const {
  CM_CHECK(re.size() == kLanes * n_ && im.size() == kLanes * n_)
      << "FFT buffer size mismatch";
  RunLanes([&]<typename V>() __attribute__((always_inline)) {
    for (const auto& [i, j] : swaps_) {
      for (double* x : {re.data(), im.data()}) {
        V a = {}, b = {};
        LoadLanes(a, x + kLanes * i);
        LoadLanes(b, x + kLanes * j);
        StoreLanes(x + kLanes * i, b);
        StoreLanes(x + kLanes * j, a);
      }
    }
    // Every stage, half = 1 and 2 included, runs one butterfly per lane
    // set. The butterfly spells out std::complex multiplication for
    // finite operands: v = b * w = (br*wr - bi*wi, br*wi + bi*wr).
    for (size_t half = 1; half < n_; half <<= 1) {
      const double* wr = twiddle_re_.data() + (half - 1);
      const double* wi = twiddle_im_.data() + (half - 1);
      for (size_t i = 0; i < n_; i += 2 * half) {
        double* ar = re.data() + kLanes * i;
        double* ai = im.data() + kLanes * i;
        double* br = ar + kLanes * half;
        double* bi = ai + kLanes * half;
        for (size_t k = 0; k < half; ++k) {
          const size_t o = kLanes * k;
          V xr = {}, xi = {}, ur = {}, ui = {};
          LoadLanes(xr, br + o);
          LoadLanes(xi, bi + o);
          LoadLanes(ur, ar + o);
          LoadLanes(ui, ai + o);
          const V vr = xr * wr[k] - xi * wi[k];
          const V vi = xr * wi[k] + xi * wr[k];
          StoreLanes(ar + o, ur + vr);
          StoreLanes(ai + o, ui + vi);
          StoreLanes(br + o, ur - vr);
          StoreLanes(bi + o, ui - vi);
        }
      }
    }
  });
}

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace classminer::util
