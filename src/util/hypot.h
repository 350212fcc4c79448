#ifndef CLASSMINER_UTIL_HYPOT_H_
#define CLASSMINER_UTIL_HYPOT_H_

#include <span>

namespace classminer::util {

// out[i] = std::hypot(x[i], y[i]) for every i, bit for bit at every
// dispatch level; all three spans have the same size (checked). The
// scalar level calls std::hypot. The AVX2 level runs four lanes of a copy
// of glibc's (>= 2.35) hypot for its common case and calls std::hypot for
// every lane outside it (zeros, subnormals, extreme exponents, inf, NaN).
// The copy is pinned to glibc on x86-64 by the sweep in util_test.
void Hypot(std::span<const double> x, std::span<const double> y,
           std::span<double> out);

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_HYPOT_H_
