#include "features/tamura.h"

#include <algorithm>
#include <vector>

#include "media/color.h"
#include "util/lanes.h"

namespace classminer::features {
namespace {

using util::kLanes;

// Samples per lane block: adjacent sample points of one row, one per lane.
constexpr int kBlock = static_cast<int>(kLanes);

// How far the widest window reaches from its centre: twice the largest
// half-window, 2^(kCoarsenessScales - 1).
constexpr int kReach = 2 << (kCoarsenessScales - 1);

// A summed-area table whose rows are padded with their clamped end values:
// row y at column c holds the sum over [0, clamp(c, 0, w)) x [0, y), for c
// in [-kReach, right]. A window bound clamped to [0, w] is then a plain
// offset from its centre, so clamped and unclamped windows alike read
// four adjacent columns with one load. `bound` is padded the same way and
// holds the clamped column clamp(c, 0, w) itself, so a clamped window's
// width is a difference of two loads too.
struct PaddedIntegral {
  PaddedIntegral(const media::GrayImage& gray, int right)
      : stride(static_cast<size_t>(kReach + right + 1)),
        sums(stride * static_cast<size_t>(gray.height() + 1), 0.0),
        bound(stride) {
    const int w = gray.width();
    for (int c = -kReach; c <= right; ++c) {
      bound[static_cast<size_t>(c + kReach)] = std::clamp(c, 0, w);
    }
    // Row 0 and the left pads stay zero. Every sum is an integer below
    // 2^53, so each is exact in any order of addition.
    for (int y = 1; y <= gray.height(); ++y) {
      double* out = Row(y);
      const double* up = Row(y - 1);
      const uint8_t* px =
          gray.pixels().data() + static_cast<size_t>(y - 1) * w;
      int run = 0;
      for (int x = 1; x <= w; ++x) {
        run += px[x - 1];
        out[x] = up[x] + run;
      }
      std::fill(out + w + 1, out + right + 1, out[w]);
    }
  }

  double* Row(int y) { return sums.data() + y * stride + kReach; }
  const double* Row(int y) const { return sums.data() + y * stride + kReach; }
  const double* Bound() const { return bound.data() + kReach; }

  const size_t stride;
  std::vector<double> sums;
  std::vector<double> bound;
};

// One scale's integral rows around a sample row y: rows y - 2h, y - h, y,
// y + h and y + 2h, each clamped to [0, height].
struct WindowRows {
  const double* lo2;
  const double* lo1;
  const double* mid;
  const double* hi1;
  const double* hi2;
  double dy1;      // hi1 - lo1: height of the left and right windows
  double dy_up;    // y - lo2
  double dy_down;  // hi2 - y
  bool exact_h;    // no row of the left and right windows clamped
  bool exact_v;    // no row of the up and down windows clamped
};

// v = the kLanes values at p[0], p[step], p[2 step], ...
template <bool kUnitStep, typename V>
[[gnu::always_inline]] inline void LoadColumns(V& v, const double* p,
                                               int step) {
  if constexpr (kUnitStep) {
    util::LoadLanes(v, p);
  } else {
    v = V{p[0], p[step], p[2 * step], p[3 * step]};
  }
}

// The four window sums of one difference: (a[c1] - b[c1]) - (a[c0] - b[c0])
// over the kLanes centres, i.e. the sum of the window [c0, c1) x [b, a).
template <bool kUnitStep, typename V>
[[gnu::always_inline]] inline void WindowSums(V& out, const double* a,
                                              const double* b, int c0, int c1,
                                              int step) {
  V a0, b0, a1, b1;
  LoadColumns<kUnitStep>(a0, a + c0, step);
  LoadColumns<kUnitStep>(b0, b + c0, step);
  LoadColumns<kUnitStep>(a1, a + c1, step);
  LoadColumns<kUnitStep>(b1, b + c1, step);
  out = (a1 - b1) - (a0 - b0);
}

// |s0 / area0 - s1 / area1| for neighbouring windows of widths w0 and w1
// and heights dy0 and dy1: the reference's |mean0 - mean1| on clamped
// windows. A window of zero area holds a zero sum, so dividing it by 1
// gives the reference's zero mean.
template <typename V>
[[gnu::always_inline]] inline void MeanContrast(V& out, const V& s0,
                                                const V& s1, const V& w0,
                                                const V& w1, double dy0,
                                                double dy1) {
  const V one = V{} + 1.0;
  V area0, area1;
  util::MaxLanes(area0, w0 * dy0, one);
  util::MaxLanes(area1, w1 * dy1, one);
  util::AbsLanes(out, s0 / area0 - s1 / area1);
}

// Counts each sample's best scale on the sample rows, four adjacent samples
// per lane block. Each lane runs the reference's comparisons on the
// reference's contrasts, bit for bit: every window sum is an exact integer,
// a clamped window's mean divides it by its area as the reference does, and
// an unclamped difference, whose two windows share the area 4^(k+1), is
// |s0 - s1| * 2^-(2k+2), exact and so equal to |s0 / a - s1 / a|.
template <bool kUnitStep, typename V>
[[gnu::always_inline]] inline void CountBestScales(
    const PaddedIntegral& integral, int w, int h, int step_x, int step_y,
    int row_samples, int (*counts)[kCoarsenessScales]) {
  const int blocks = (row_samples + kBlock - 1) / kBlock;
  const double* bound = integral.Bound();
  std::array<WindowRows, kCoarsenessScales> rows;
  for (int y = 0; y < h; y += step_y) {
    for (int k = 0; k < kCoarsenessScales; ++k) {
      const int half = 1 << k;  // window side 2^(k+1), half-extent 2^k
      const int lo2 = std::max(y - 2 * half, 0);
      const int lo1 = std::max(y - half, 0);
      const int hi1 = std::min(y + half, h);
      const int hi2 = std::min(y + 2 * half, h);
      rows[static_cast<size_t>(k)] = {
          integral.Row(lo2),  integral.Row(lo1),
          integral.Row(y),    integral.Row(hi1),
          integral.Row(hi2),  static_cast<double>(hi1 - lo1),
          static_cast<double>(y - lo2), static_cast<double>(hi2 - y),
          y >= half && y + half <= h, y >= 2 * half && y + 2 * half <= h};
    }
    for (int b = 0; b < blocks; ++b) {
      const int x0 = b * kBlock * step_x;
      const int x_last = x0 + (kBlock - 1) * step_x;
      V best_e = V{} - 1.0;
      V best_k = {};
      for (int k = 0; k < kCoarsenessScales; ++k) {
        const WindowRows& r = rows[static_cast<size_t>(k)];
        const int half = 1 << k;
        const int two = 2 * half;
        const double unit = 1.0 / (4 << (2 * k));  // 1 / 4^(k+1), exact

        // Left [x - 2h, x) against right [x, x + 2h), rows [y - h, y + h).
        V left, right, dh;
        WindowSums<kUnitStep>(left, r.hi1, r.lo1, x0 - two, x0, step_x);
        WindowSums<kUnitStep>(right, r.hi1, r.lo1, x0, x0 + two, step_x);
        if (r.exact_h && x0 >= two && x_last + two <= w) {
          util::AbsLanes(dh, left - right);
          dh = dh * unit;
        } else {
          V b0, b1, b2;
          LoadColumns<kUnitStep>(b0, bound + x0 - two, step_x);
          LoadColumns<kUnitStep>(b1, bound + x0, step_x);
          LoadColumns<kUnitStep>(b2, bound + x0 + two, step_x);
          MeanContrast(dh, left, right, b1 - b0, b2 - b1, r.dy1, r.dy1);
        }

        // Up [y - 2h, y) against down [y, y + 2h), columns [x - h, x + h).
        V up, down, dv;
        WindowSums<kUnitStep>(up, r.mid, r.lo2, x0 - half, x0 + half,
                              step_x);
        WindowSums<kUnitStep>(down, r.hi2, r.mid, x0 - half, x0 + half,
                              step_x);
        if (r.exact_v && x0 >= half && x_last + half <= w) {
          util::AbsLanes(dv, up - down);
          dv = dv * unit;
        } else {
          V b0, b1;
          LoadColumns<kUnitStep>(b0, bound + x0 - half, step_x);
          LoadColumns<kUnitStep>(b1, bound + x0 + half, step_x);
          const V width = b1 - b0;
          MeanContrast(dv, up, down, width, width, r.dy_up, r.dy_down);
        }

        // e = max(dh, dv); keep the first strict maximum over k.
        V e;
        util::MaxLanes(e, dh, dv);
        util::SelectGreaterLanes(best_k, e, best_e,
                                 V{} + static_cast<double>(k), best_k);
        util::SelectGreaterLanes(best_e, e, best_e, e, best_e);
      }
      double best[kLanes];
      util::StoreLanes(best, best_k);
      // Spare lanes of the last block sit past the row; drop them.
      const int count = std::min(kBlock, row_samples - b * kBlock);
      for (int l = 0; l < count; ++l) {
        ++counts[l][static_cast<int>(best[l])];
      }
    }
  }
}

}  // namespace

TamuraVector ComputeTamuraCoarseness(const media::Image& image) {
  return ComputeTamuraCoarseness(media::ToGray(image));
}

TamuraVector ComputeTamuraCoarseness(const media::GrayImage& gray) {
  TamuraVector out{};
  if (gray.empty()) return out;

  // Sample points every max(1, n / 64) pixels per axis: every pixel below
  // 128 pixels a side, 64-127 strided points per axis above. The windows
  // always read the full-resolution image.
  const int w = gray.width();
  const int h = gray.height();
  const int step_x = std::max(1, w / 64);
  const int step_y = std::max(1, h / 64);
  const int row_samples = (w + step_x - 1) / step_x;
  // The last lane of the last block, which may lie past the row; the
  // padded rows reach kReach beyond it.
  const int blocks = (row_samples + kBlock - 1) / kBlock;
  const int last_x = (blocks * kBlock - 1) * step_x;
  const PaddedIntegral integral(gray, std::max(w, last_x + kReach));

  // One count row per lane, so no two lanes of a block chain their
  // increments through the same memory.
  int counts[kLanes][kCoarsenessScales] = {};
  util::RunLanes([&]<typename V>() __attribute__((always_inline)) {
    if (step_x == 1) {
      CountBestScales<true, V>(integral, w, h, step_x, step_y, row_samples,
                               counts);
    } else {
      CountBestScales<false, V>(integral, w, h, step_x, step_y, row_samples,
                                counts);
    }
  });

  // Every statistic is a sum of small integers, exact in double.
  std::array<double, kCoarsenessScales> scale_hist{};
  double sum_best = 0.0;
  double sum_best_sq = 0.0;
  int samples = 0;
  for (int k = 0; k < kCoarsenessScales; ++k) {
    int n = 0;
    for (const auto& lane : counts) n += lane[k];
    scale_hist[static_cast<size_t>(k)] = n;
    sum_best += static_cast<double>(k) * n;
    sum_best_sq += static_cast<double>(k) * k * n;
    samples += n;
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
