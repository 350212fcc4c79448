#ifndef CLASSMINER_UTIL_MATHUTIL_H_
#define CLASSMINER_UTIL_MATHUTIL_H_

#include <cstddef>
#include <span>
#include <vector>

namespace classminer::util {

// Arithmetic mean of `values`; 0 when empty.
double Mean(std::span<const double> values);

// Population variance of `values`; 0 when fewer than 2 elements.
double Variance(std::span<const double> values);

double StdDev(std::span<const double> values);

// Shannon entropy (nats) of a discrete distribution given as nonnegative
// weights; weights are normalised internally. Zero weights contribute 0.
double Entropy(std::span<const double> weights);

// Clamps v into [lo, hi].
double Clamp(double v, double lo, double hi);

// Fast entropy-based automatic threshold selection (Fan et al. [10]).
//
// Given a set of scalar observations (e.g. frame differences or group
// similarities), selects the threshold t that maximises the sum of the
// entropies of the two classes {x <= t} and {x > t} computed over a
// `bins`-bucket histogram of the observations. Maximising the bipartition
// entropy (Kapur-style maximum entropy thresholding) places t at the most
// informative split between the "low" population (e.g. intra-shot
// differences) and the "high" population (cut differences).
//
// Returns the midpoint value of the chosen histogram bucket boundary.
// When `values` is empty returns 0; when all values are equal returns that
// value.
double FastEntropyThreshold(std::span<const double> values, int bins = 64);

// Otsu automatic threshold: maximises the between-class variance of the
// bipartition over a `bins`-bucket histogram. Better suited than the
// max-entropy split when the populations are sparse but well separated
// (e.g. neighbouring-group similarities); returns the boundary value.
double OtsuThreshold(std::span<const double> values, int bins = 64);

// Median of `values` (by copy); 0 when empty.
double Median(std::span<const double> values);

// Percentile in [0,100] using nearest-rank on a sorted copy; 0 when empty.
double Percentile(std::span<const double> values, double pct);

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_MATHUTIL_H_
