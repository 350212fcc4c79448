#ifndef CLASSMINER_UTIL_FFT_H_
#define CLASSMINER_UTIL_FFT_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/lanes.h"

namespace classminer::util {

// A forward radix-2 Cooley-Tukey FFT of one power-of-two size that
// transforms four signals at once, one per lane, with everything that
// depends only on the size computed once: the bit-reversal swap list and
// every stage's twiddle factors (the precomputed-table idiom of a
// wavetable oscillator). The twiddles come from the same `w *= wlen`
// recurrence a per-call complex transform uses, and every lane performs
// that transform's butterflies with the same IEEE operations, so each
// lane is bit-identical to transforming its signal alone. Immutable after
// construction; one plan may serve many threads.
class FftPlan {
 public:
  // `n` must be a power of two (checked). The transform does not scale.
  explicit FftPlan(size_t n);

  size_t size() const { return n_; }

  // Transforms four signals re + i*im in place. Both spans hold
  // kLanes * size() values laid out [n][kLanes]: sample k of signal l is
  // at index k * kLanes + l, and bin k comes back at the same place.
  void Transform(std::span<double> re, std::span<double> im) const;

 private:
  size_t n_;
  std::vector<std::pair<uint32_t, uint32_t>> swaps_;  // bit-reversal pairs
  // Stage with half-length h keeps its h twiddles at [h - 1, 2h - 1).
  std::vector<double> twiddle_re_;
  std::vector<double> twiddle_im_;
};

// Returns the smallest power of two >= n (n >= 1).
size_t NextPowerOfTwo(size_t n);

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_FFT_H_
