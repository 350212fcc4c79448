#ifndef CLASSMINER_UTIL_FFT_H_
#define CLASSMINER_UTIL_FFT_H_

#include <complex>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace classminer::util {

// A radix-2 Cooley-Tukey FFT of one power-of-two size and direction, with
// everything that depends only on the size computed once: the bit-reversal
// swap list and every stage's twiddle factors (the precomputed-table idiom
// of a wavetable oscillator). The twiddles come from the same
// `w *= wlen` recurrence the per-call transform always used, and the
// butterfly performs the same IEEE operations on split re/im arrays, so a
// planned transform is bit-identical to the unplanned one. Immutable after
// construction; one plan may serve many threads.
class FftPlan {
 public:
  // `n` must be a power of two (checked). `inverse` plans the conjugate
  // transform; neither direction scales.
  explicit FftPlan(size_t n, bool inverse = false);

  size_t size() const { return n_; }

  // Transforms `re` + i*`im` in place; both spans hold size() values.
  void Transform(std::span<double> re, std::span<double> im) const;

 private:
  size_t n_;
  std::vector<std::pair<uint32_t, uint32_t>> swaps_;  // bit-reversal pairs
  // Stage with half-length h keeps its h twiddles at [h - 1, 2h - 1).
  std::vector<double> twiddle_re_;
  std::vector<double> twiddle_im_;
};

// In-place FFT over interleaved complex data: a thin wrapper that builds an
// FftPlan for `data.size()` (a power of two, checked). `inverse` applies
// the conjugate transform and 1/N scaling.
void Fft(std::vector<std::complex<double>>* data, bool inverse = false);

// Returns the smallest power of two >= n (n >= 1).
size_t NextPowerOfTwo(size_t n);

namespace internal {

// One radix-2 stage over n points whose butterflies span `half` (a
// multiple of 4), twiddles `wr`/`wi`: the AVX2 kernel FftPlan dispatches
// to, four butterflies per ymm lane set with the scalar stage's exact
// operations. Callable only when FftAccelAvailable().
bool FftAccelAvailable();
void FftStageAccel(double* re, double* im, size_t n, size_t half,
                   const double* wr, const double* wi);

}  // namespace internal

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_FFT_H_
