#include "cues/special_frames.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "features/histogram.h"
#include "media/color.h"
#include "util/logging.h"

namespace classminer::cues {

const char* SpecialFrameTypeName(SpecialFrameType type) {
  switch (type) {
    case SpecialFrameType::kNone:
      return "none";
    case SpecialFrameType::kBlack:
      return "black";
    case SpecialFrameType::kSlide:
      return "slide";
    case SpecialFrameType::kClipArt:
      return "clipart";
    case SpecialFrameType::kSketch:
      return "sketch";
  }
  return "unknown";
}

FrameStats ComputeFrameStats(const media::Image& image,
                             const media::GrayImage& gray,
                             const features::ColorHistogram& hist) {
  CM_CHECK(gray.width() == image.width() && gray.height() == image.height())
      << "ComputeFrameStats: grey image size differs from the frame";
  FrameStats stats;
  if (image.empty()) return stats;
  const int w = image.width();
  const int h = image.height();
  const double total = static_cast<double>(image.pixel_count());

  // Luma moments and 16-bin luma entropy.
  double sum = 0.0, sum_sq = 0.0;
  double luma_hist[16] = {0.0};
  for (uint8_t v : gray.pixels()) {
    sum += v;
    sum_sq += static_cast<double>(v) * v;
    luma_hist[v >> 4] += 1.0;
  }
  stats.mean_luma = sum / total;
  stats.luma_stddev =
      std::sqrt(std::max(0.0, sum_sq / total - stats.mean_luma * stats.mean_luma));
  double entropy = 0.0;
  for (double b : luma_hist) {
    if (b <= 0.0) continue;
    const double p = b / total;
    entropy -= p * std::log(p);
  }
  stats.luma_entropy = entropy / std::log(16.0);

  // Quantised colour distribution.
  double dominant = 0.0;
  int distinct = 0;
  for (double b : hist) {
    dominant = std::max(dominant, b);
    if (b > 0.005) ++distinct;
  }
  stats.dominant_color = dominant;
  stats.distinct_colors = distinct;

  // Saturation: media::RgbToHsv's s and v without the hue. v is the
  // largest of c / 255.0 over the channels, which is the largest channel
  // / 255.0 because correctly rounded division by a positive constant is
  // monotone; likewise the smallest. So v and s are the same doubles.
  double unit[256];
  for (int i = 0; i < 256; ++i) unit[i] = i / 255.0;
  double sat = 0.0;
  int saturated = 0;
  for (const media::Rgb& p : image.pixels()) {
    const double mx = unit[std::max({p.r, p.g, p.b})];
    const double mn = unit[std::min({p.r, p.g, p.b})];
    const double s = mx > 0.0 ? (mx - mn) / mx : 0.0;
    sat += s;
    if (s > 0.3 && mx > 0.2) ++saturated;
  }
  stats.mean_saturation = sat / total;
  stats.saturated_fraction = static_cast<double>(saturated) / total;

  // Edge density and local noise, row by row: the 3x3 sum is the sum of
  // three vertical 3-sums, all integers, so it is the same value.
  int strong_edges = 0;
  double noise_acc = 0.0;
  int flat_pixels = 0;
  int noise_count = 0;
  std::vector<int> col(static_cast<size_t>(w));
  for (int y = 1; y < h - 1; ++y) {
    const uint8_t* a = gray.pixels().data() + static_cast<size_t>(y - 1) * w;
    const uint8_t* b = a + w;
    const uint8_t* c = b + w;
    for (int x = 0; x < w; ++x) col[x] = a[x] + b[x] + c[x];
    for (int x = 1; x < w - 1; ++x) {
      const int gx = std::abs(static_cast<int>(b[x + 1]) - b[x - 1]);
      const int gy = std::abs(static_cast<int>(c[x]) - a[x]);
      strong_edges += gx + gy > 60;
      // Local mean over the 3x3 neighbourhood.
      const int acc = col[x - 1] + col[x] + col[x + 1];
      const double dev = std::fabs(static_cast<double>(b[x]) - acc / 9.0);
      noise_acc += dev;
      flat_pixels += dev < 1.0;
      ++noise_count;
    }
  }
  if (noise_count > 0) {
    stats.edge_density = static_cast<double>(strong_edges) / noise_count;
    stats.noise_level = noise_acc / noise_count;
    stats.flat_fraction = static_cast<double>(flat_pixels) / noise_count;
  }

  // Text-like rows: rows whose count of strong horizontal transitions falls
  // in the range produced by rendered text (many short dark runs on a
  // uniform background).
  int text_rows = 0;
  for (int y = 0; y < h; ++y) {
    int transitions = 0;
    for (int x = 1; x < w; ++x) {
      const int d = std::abs(static_cast<int>(gray.at(x, y)) -
                             gray.at(x - 1, y));
      if (d > 50) ++transitions;
    }
    if (transitions >= 6 && transitions <= w / 2) ++text_rows;
  }
  stats.text_row_score = h > 0 ? static_cast<double>(text_rows) / h : 0.0;
  return stats;
}

FrameStats ComputeFrameStats(const media::Image& image) {
  return ComputeFrameStats(image, media::ToGray(image),
                           features::ComputeColorHistogram(image));
}

SpecialFrameType ClassifySpecialFrame(const media::Image& image,
                                      const media::GrayImage& gray,
                                      const features::ColorHistogram& hist,
                                      const SpecialFrameOptions& options) {
  const FrameStats s = ComputeFrameStats(image, gray, hist);

  if (s.mean_luma < options.black_max_luma &&
      s.luma_stddev < options.black_max_stddev) {
    return SpecialFrameType::kBlack;
  }

  // Man-made gate, two routes:
  //  (a) pristine renders: most pixels perfectly flat with a limited
  //      palette (camera frames carry sensor noise in every pixel);
  //  (b) compressed renders: quantisation ringing destroys flatness, but
  //      a bright, desaturated frame with luma concentrated in few levels
  //      is still a rendered page, never a camera frame.
  const bool pristine = s.flat_fraction > options.manmade_min_flat &&
                        s.luma_entropy < options.manmade_max_luma_entropy &&
                        s.distinct_colors <= options.manmade_max_colors &&
                        s.dominant_color > 0.30;
  const bool compressed_render = s.luma_entropy < 0.52 &&
                                 s.mean_luma > 160.0 &&
                                 s.mean_saturation < 0.25;
  const bool man_made = pristine || compressed_render;
  if (!man_made) return SpecialFrameType::kNone;

  // Sketch first: a line drawing on a bright background with essentially
  // no saturated ink anywhere. The saturated-fraction guard keeps slides
  // (coloured title bars) and clip-art (coloured fills) out, while the
  // line strokes themselves would otherwise read as text rows.
  if (s.mean_saturation < options.sketch_max_saturation &&
      s.saturated_fraction < 0.03 && s.mean_luma > 120.0 &&
      s.edge_density > 0.01) {
    return SpecialFrameType::kSketch;
  }
  // Slide: text rows over a uniform background.
  if (s.text_row_score > options.slide_min_text_rows) {
    return SpecialFrameType::kSlide;
  }
  return SpecialFrameType::kClipArt;
}

SpecialFrameType ClassifySpecialFrame(const media::Image& image) {
  return ClassifySpecialFrame(image, media::ToGray(image),
                              features::ComputeColorHistogram(image),
                              SpecialFrameOptions());
}

}  // namespace classminer::cues
