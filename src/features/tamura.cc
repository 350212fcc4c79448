#include "features/tamura.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "media/color.h"

namespace classminer::features {
namespace {

// Summed-area table with 1-pixel zero border: sums[y+1][x+1].
std::vector<double> IntegralImage(const media::GrayImage& gray) {
  const int w = gray.width();
  const int h = gray.height();
  std::vector<double> integral(static_cast<size_t>(w + 1) * (h + 1), 0.0);
  auto at = [&](int x, int y) -> double& {
    return integral[static_cast<size_t>(y) * (w + 1) + x];
  };
  for (int y = 1; y <= h; ++y) {
    double row = 0.0;
    for (int x = 1; x <= w; ++x) {
      row += gray.at(x - 1, y - 1);
      at(x, y) = at(x, y - 1) + row;
    }
  }
  return integral;
}

// Clamped window bounds along one axis at one scale, for every centre c in
// [0, n): the windows [c - 2h, c) and [c, c + 2h) of the difference along
// this axis, and [c - h, c + h) of the difference along the other one, each
// clamped to [0, n].
struct AxisBounds {
  std::vector<int> lo2, hi2, lo1, hi1;
};

AxisBounds TabulateBounds(int n, int half) {
  AxisBounds b;
  b.lo2.resize(static_cast<size_t>(n));
  b.hi2.resize(static_cast<size_t>(n));
  b.lo1.resize(static_cast<size_t>(n));
  b.hi1.resize(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    const size_t i = static_cast<size_t>(c);
    b.lo2[i] = std::clamp(c - 2 * half, 0, n);
    b.hi2[i] = std::clamp(c + 2 * half, 0, n);
    b.lo1[i] = std::clamp(c - half, 0, n);
    b.hi1[i] = std::clamp(c + half, 0, n);
  }
  return b;
}

// The integral rows one scale's windows read around sample row y: rows
// y - 2h, y - h, y, y + h and y + 2h, each clamped to [0, height].
struct ScaleRows {
  const double* lo2;
  const double* lo1;
  const double* mid;
  const double* hi1;
  const double* hi2;
  int dy1;      // hi1 - lo1: height of the left and right windows
  int dy_up;    // y - lo2
  int dy_down;  // hi2 - y
};

// Mean over the clamped window [x0, x1) x [y0, y0 + dy); `row0` and `row1`
// are the integral rows y0 and y0 + dy.
inline double WindowMean(const double* row0, const double* row1, int x0,
                         int x1, int dy) {
  const int area = (x1 - x0) * dy;
  if (area <= 0) return 0.0;
  const double sum = row1[x1] - row1[x0] - row0[x1] + row0[x0];
  return sum / area;
}

// The scale's contrast at sample x: the larger of the horizontal and the
// vertical difference of neighbouring window means, every window clamped
// to the image.
inline double Contrast(const ScaleRows& r, const AxisBounds& bx,
                              size_t x) {
  const int xc = static_cast<int>(x);
  const double left = WindowMean(r.lo1, r.hi1, bx.lo2[x], xc, r.dy1);
  const double right = WindowMean(r.lo1, r.hi1, xc, bx.hi2[x], r.dy1);
  const double up = WindowMean(r.lo2, r.mid, bx.lo1[x], bx.hi1[x], r.dy_up);
  const double down =
      WindowMean(r.mid, r.hi2, bx.lo1[x], bx.hi1[x], r.dy_down);
  return std::max(std::fabs(left - right), std::fabs(up - down));
}

}  // namespace

TamuraVector ComputeTamuraCoarseness(const media::Image& image) {
  return ComputeTamuraCoarseness(media::ToGray(image));
}

TamuraVector ComputeTamuraCoarseness(const media::GrayImage& input) {
  TamuraVector out{};
  if (input.empty()) return out;

  // Sample points every max(1, n / 64) pixels per axis: every pixel below
  // 128 pixels a side, 64-127 strided points per axis above. The windows
  // always read the full-resolution image.
  const media::GrayImage& gray = input;
  const int w = gray.width();
  const int h = gray.height();
  const int step_x = std::max(1, w / 64);
  const int step_y = std::max(1, h / 64);

  const std::vector<double> integral = IntegralImage(gray);
  const size_t stride = static_cast<size_t>(w) + 1;
  auto row = [&](int y) { return integral.data() + y * stride; };

  // Every window's column clamps, per scale, computed once.
  std::array<AxisBounds, kCoarsenessScales> xb;
  for (int k = 0; k < kCoarsenessScales; ++k) {
    xb[static_cast<size_t>(k)] = TabulateBounds(w, 1 << k);
  }

  std::array<double, kCoarsenessScales> scale_hist{};
  double sum_best = 0.0;
  double sum_best_sq = 0.0;
  int samples = 0;

  // One sample row at a time, scale by scale: each sample point still sees
  // its scales in ascending order with the same strict `e > best_e` update,
  // so it picks the same best scale as a per-point loop over k.
  const size_t row_samples = static_cast<size_t>((w + step_x - 1) / step_x);
  std::vector<double> best_e(row_samples);
  std::vector<int> best_k(row_samples);
  for (int y = 0; y < h; y += step_y) {
    std::fill(best_e.begin(), best_e.end(), -1.0);
    std::fill(best_k.begin(), best_k.end(), 0);
    for (int k = 0; k < kCoarsenessScales; ++k) {
      const int half = 1 << k;  // window side 2^(k+1), half-extent 2^k
      const AxisBounds& bx = xb[static_cast<size_t>(k)];
      const int lo2 = std::max(y - 2 * half, 0);
      const int lo1 = std::max(y - half, 0);
      const int hi1 = std::min(y + half, h);
      const int hi2 = std::min(y + 2 * half, h);
      const ScaleRows r{row(lo2), row(lo1), row(y), row(hi1), row(hi2),
                        hi1 - lo1, y - lo2, hi2 - y};
      for (size_t i = 0; i < row_samples; ++i) {
        const double e =
            Contrast(r, bx, i * static_cast<size_t>(step_x));
        if (e > best_e[i]) {
          best_e[i] = e;
          best_k[i] = k;
        }
      }
    }
    for (const int k : best_k) {
      scale_hist[static_cast<size_t>(k)] += 1.0;
      sum_best += k;
      sum_best_sq += static_cast<double>(k) * k;
      ++samples;
    }
  }
  if (samples == 0) return out;

  for (int k = 0; k < kCoarsenessScales; ++k) {
    out[static_cast<size_t>(k)] = scale_hist[static_cast<size_t>(k)] / samples;
  }
  const double mean = sum_best / samples;
  const double var = sum_best_sq / samples - mean * mean;
  out[6] = mean / (kCoarsenessScales - 1);  // normalised mean scale
  out[7] = std::clamp(var / (kCoarsenessScales * kCoarsenessScales), 0.0, 1.0);

  // Fractions of the two dominant scales (texture uniformity cues).
  std::array<double, kCoarsenessScales> sorted = scale_hist;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  out[8] = sorted[0] / samples;
  out[9] = (sorted[0] + sorted[1]) / samples;
  return out;
}

}  // namespace classminer::features
