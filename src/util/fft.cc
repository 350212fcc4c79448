#include "util/fft.h"

#include <cmath>
#include <numbers>

#include "util/cpu.h"
#include "util/logging.h"

namespace classminer::util {

FftPlan::FftPlan(size_t n, bool inverse) : n_(n) {
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
    const double angle =
        2.0 * std::numbers::pi / static_cast<double>(len) *
        (inverse ? 1.0 : -1.0);
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
  CM_CHECK(re.size() == n_ && im.size() == n_) << "FFT buffer size mismatch";
  for (const auto& [i, j] : swaps_) {
    std::swap(re[i], re[j]);
    std::swap(im[i], im[j]);
  }
  const bool accel = ActiveDispatchLevel() >= DispatchLevel::kAvx2 &&
                     internal::FftAccelAvailable();
  for (size_t half = 1; half < n_; half <<= 1) {
    const double* wr = twiddle_re_.data() + (half - 1);
    const double* wi = twiddle_im_.data() + (half - 1);
    if (accel && half % 4 == 0) {
      internal::FftStageAccel(re.data(), im.data(), n_, half, wr, wi);
      continue;
    }
    // The butterfly spells out std::complex multiplication for finite
    // operands: v = b * w = (br*wr - bi*wi, br*wi + bi*wr).
    for (size_t i = 0; i < n_; i += 2 * half) {
      double* ar = re.data() + i;
      double* ai = im.data() + i;
      double* br = ar + half;
      double* bi = ai + half;
      for (size_t k = 0; k < half; ++k) {
        const double vr = br[k] * wr[k] - bi[k] * wi[k];
        const double vi = br[k] * wi[k] + bi[k] * wr[k];
        const double ur = ar[k];
        const double ui = ai[k];
        ar[k] = ur + vr;
        ai[k] = ui + vi;
        br[k] = ur - vr;
        bi[k] = ui - vi;
      }
    }
  }
}

void Fft(std::vector<std::complex<double>>* data, bool inverse) {
  const size_t n = data->size();
  const FftPlan plan(n, inverse);
  auto& a = *data;
  std::vector<double> re(n), im(n);
  for (size_t i = 0; i < n; ++i) {
    re[i] = a[i].real();
    im[i] = a[i].imag();
  }
  plan.Transform(re, im);
  for (size_t i = 0; i < n; ++i) a[i] = {re[i], im[i]};

  if (inverse) {
    for (auto& x : a) x /= static_cast<double>(n);
  }
}

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace classminer::util
