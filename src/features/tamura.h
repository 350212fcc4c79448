#ifndef CLASSMINER_FEATURES_TAMURA_H_
#define CLASSMINER_FEATURES_TAMURA_H_

#include <array>

#include "media/image.h"

namespace classminer::features {

// 10-dimensional Tamura coarseness texture descriptor (paper Sec. 3.1).
//
// Classic Tamura coarseness computes, per pixel, the window size 2^k that
// maximises the difference between averages of non-overlapping neighbouring
// windows (k in [0, kCoarsenessScales)). We summarise the per-pixel best
// scales S_best as a descriptor: the normalised histogram over the scales
// (kCoarsenessScales values) padded with the distribution's mean, variance,
// and the two dominant-scale fractions, giving 10 dimensions total that sum
// to a bounded range compatible with Eq. (1)'s L2 term.
inline constexpr int kCoarsenessScales = 6;
inline constexpr int kTamuraDims = 10;

using TamuraVector = std::array<double, kTamuraDims>;

// Computes the descriptor on the grey version of `image`. The windows read
// the frame at full resolution. The per-pixel best scales are taken at
// sample points spaced max(1, n / 64) pixels apart along an axis of n
// pixels: every pixel of a frame under 128 pixels a side (all 6912 at
// 96x72), and a stride that leaves 64-127 points per axis on larger
// frames. Empty image -> all zeros.
//
// One lane-wise kernel (util/lanes.h) takes four adjacent sample points at
// a time over a summed-area table whose rows are padded with their clamped
// end values, so clamped windows read like unclamped ones. It runs as the
// same code at every dispatch level, and every best scale, hence every
// output bit, equals that of the per-window clamped loop kept in
// tests/image_oracle.h (DESIGN.md, "Exact per-frame image kernels").
TamuraVector ComputeTamuraCoarseness(const media::Image& image);
TamuraVector ComputeTamuraCoarseness(const media::GrayImage& gray);

}  // namespace classminer::features

#endif  // CLASSMINER_FEATURES_TAMURA_H_
