// Oracles for the per-frame image kernels: verbatim copies of the loops as
// they stood before the shared grey image, the single skin pass, separable
// morphology, the flat-stack component labelling and the tabulated Tamura
// bounds. The production code must reproduce them bit for bit at every
// dispatch level. Only the namespace differs: calls between the copies are
// qualified with `oracle::`, and calls into code that did not change
// (MahalanobisSquared, RgbToHsv, the colour histogram, FilterBySize, the
// option defaults) go to the library.

#ifndef CLASSMINER_TESTS_IMAGE_ORACLE_H_
#define CLASSMINER_TESTS_IMAGE_ORACLE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "cues/blood.h"
#include "cues/cue_extractor.h"
#include "cues/face.h"
#include "cues/skin.h"
#include "cues/special_frames.h"
#include "features/histogram.h"
#include "features/tamura.h"
#include "media/color.h"
#include "media/image.h"
#include "media/region.h"

namespace classminer::oracle {

// --- media/color.cc -------------------------------------------------------

inline uint8_t Luma(media::Rgb c) {
  const double y = 0.299 * c.r + 0.587 * c.g + 0.114 * c.b;
  return static_cast<uint8_t>(std::lround(std::clamp(y, 0.0, 255.0)));
}

inline media::GrayImage ToGray(const media::Image& image) {
  media::GrayImage out(image.width(), image.height());
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      out.set(x, y, oracle::Luma(image.at(x, y)));
    }
  }
  return out;
}

// --- media/morphology.cc --------------------------------------------------

enum class Op { kErode, kDilate };

inline media::GrayImage Apply(const media::GrayImage& mask, int radius,
                              Op op) {
  const int w = mask.width();
  const int h = mask.height();
  media::GrayImage out(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      bool hit = (op == Op::kErode);
      for (int dy = -radius; dy <= radius && (op == Op::kErode ? hit : !hit);
           ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
          const int nx = x + dx;
          const int ny = y + dy;
          const bool fg =
              mask.Contains(nx, ny) ? mask.at(nx, ny) > 0 : false;
          if (op == Op::kErode) {
            if (!fg) {
              hit = false;
              break;
            }
          } else {
            if (fg) {
              hit = true;
              break;
            }
          }
        }
      }
      out.set(x, y, hit ? 255 : 0);
    }
  }
  return out;
}

inline media::GrayImage Erode(const media::GrayImage& mask, int radius) {
  return oracle::Apply(mask, radius, Op::kErode);
}

inline media::GrayImage Dilate(const media::GrayImage& mask, int radius) {
  return oracle::Apply(mask, radius, Op::kDilate);
}

inline media::GrayImage Open(const media::GrayImage& mask, int radius) {
  return oracle::Dilate(oracle::Erode(mask, radius), radius);
}

inline media::GrayImage Close(const media::GrayImage& mask, int radius) {
  return oracle::Erode(oracle::Dilate(mask, radius), radius);
}

// --- media/region.cc ------------------------------------------------------

inline std::vector<media::Region> ConnectedComponents(
    const media::GrayImage& mask, int min_area) {
  using media::Region;
  std::vector<Region> regions;
  if (mask.empty()) return regions;
  const int w = mask.width();
  const int h = mask.height();
  std::vector<uint8_t> visited(static_cast<size_t>(w) * h, 0);

  auto idx = [w](int x, int y) {
    return static_cast<size_t>(y) * static_cast<size_t>(w) +
           static_cast<size_t>(x);
  };

  for (int sy = 0; sy < h; ++sy) {
    for (int sx = 0; sx < w; ++sx) {
      if (mask.at(sx, sy) == 0 || visited[idx(sx, sy)]) continue;
      Region region;
      region.min_x = region.max_x = sx;
      region.min_y = region.max_y = sy;
      double sum_x = 0.0, sum_y = 0.0;

      std::queue<std::pair<int, int>> frontier;
      frontier.push({sx, sy});
      visited[idx(sx, sy)] = 1;
      while (!frontier.empty()) {
        const auto [x, y] = frontier.front();
        frontier.pop();
        ++region.area;
        sum_x += x;
        sum_y += y;
        region.min_x = std::min(region.min_x, x);
        region.max_x = std::max(region.max_x, x);
        region.min_y = std::min(region.min_y, y);
        region.max_y = std::max(region.max_y, y);

        constexpr int kDx[] = {1, -1, 0, 0};
        constexpr int kDy[] = {0, 0, 1, -1};
        for (int d = 0; d < 4; ++d) {
          const int nx = x + kDx[d];
          const int ny = y + kDy[d];
          if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
          if (mask.at(nx, ny) == 0 || visited[idx(nx, ny)]) continue;
          visited[idx(nx, ny)] = 1;
          frontier.push({nx, ny});
        }
      }
      if (region.area >= min_area) {
        region.centroid_x = sum_x / region.area;
        region.centroid_y = sum_y / region.area;
        regions.push_back(region);
      }
    }
  }
  std::sort(regions.begin(), regions.end(),
            [](const Region& a, const Region& b) { return a.area > b.area; });
  return regions;
}

// --- features/tamura.cc ---------------------------------------------------

inline std::vector<double> IntegralImage(const media::GrayImage& gray) {
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

inline double WindowMean(const std::vector<double>& integral, int w, int h,
                         int x0, int y0, int x1, int y1) {
  x0 = std::clamp(x0, 0, w);
  y0 = std::clamp(y0, 0, h);
  x1 = std::clamp(x1, 0, w);
  y1 = std::clamp(y1, 0, h);
  const int area = (x1 - x0) * (y1 - y0);
  if (area <= 0) return 0.0;
  auto at = [&](int x, int y) {
    return integral[static_cast<size_t>(y) * (w + 1) + x];
  };
  const double sum = at(x1, y1) - at(x0, y1) - at(x1, y0) + at(x0, y0);
  return sum / area;
}

inline features::TamuraVector ComputeTamuraCoarseness(
    const media::GrayImage& input) {
  using features::kCoarsenessScales;
  features::TamuraVector out{};
  if (input.empty()) return out;

  // Keep cost bounded: evaluate on a grid of at most ~64x64 sample points.
  const media::GrayImage& gray = input;
  const int w = gray.width();
  const int h = gray.height();
  const int step_x = std::max(1, w / 64);
  const int step_y = std::max(1, h / 64);

  const std::vector<double> integral = oracle::IntegralImage(gray);

  std::array<double, kCoarsenessScales> scale_hist{};
  double sum_best = 0.0;
  double sum_best_sq = 0.0;
  int samples = 0;

  for (int y = 0; y < h; y += step_y) {
    for (int x = 0; x < w; x += step_x) {
      int best_k = 0;
      double best_e = -1.0;
      for (int k = 0; k < kCoarsenessScales; ++k) {
        const int half = 1 << k;  // window side 2^(k+1), half-extent 2^k
        // Horizontal difference of neighbouring windows centred at (x, y).
        const double left = oracle::WindowMean(
            integral, w, h, x - 2 * half, y - half, x, y + half);
        const double right = oracle::WindowMean(
            integral, w, h, x, y - half, x + 2 * half, y + half);
        const double up = oracle::WindowMean(
            integral, w, h, x - half, y - 2 * half, x + half, y);
        const double down = oracle::WindowMean(
            integral, w, h, x - half, y, x + half, y + 2 * half);
        const double e =
            std::max(std::fabs(left - right), std::fabs(up - down));
        if (e > best_e) {
          best_e = e;
          best_k = k;
        }
      }
      scale_hist[static_cast<size_t>(best_k)] += 1.0;
      sum_best += best_k;
      sum_best_sq += static_cast<double>(best_k) * best_k;
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

inline features::TamuraVector ComputeTamuraCoarseness(
    const media::Image& image) {
  return oracle::ComputeTamuraCoarseness(oracle::ToGray(image));
}

// --- cues/skin.cc ---------------------------------------------------------

inline bool Accepts(const cues::ChromaGaussian& model, media::Rgb pixel) {
  const double total = static_cast<double>(pixel.r) + pixel.g + pixel.b;
  if (total < 1.0) return false;
  const double luma = oracle::Luma(pixel);
  if (luma < model.min_luma || luma > model.max_luma) return false;
  const double r = pixel.r / total;
  const double g = pixel.g / total;
  return model.MahalanobisSquared(r, g) <= model.gate * model.gate;
}

inline cues::SkinDetection DetectSkin(
    const media::Image& image, const cues::ChromaGaussian& model,
    const cues::SkinDetectorOptions& options) {
  cues::SkinDetection out;
  const int w = image.width();
  const int h = image.height();
  out.mask = media::GrayImage(w, h);
  if (image.empty()) return out;

  const media::GrayImage gray = oracle::ToGray(image);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (!oracle::Accepts(model, image.at(x, y))) continue;
      // Texture filter: skin is locally smooth.
      if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
        const int gx = std::abs(static_cast<int>(gray.at(x + 1, y)) -
                                gray.at(x - 1, y));
        const int gy = std::abs(static_cast<int>(gray.at(x, y + 1)) -
                                gray.at(x, y - 1));
        if (gx + gy > options.texture_gradient_limit) continue;
      }
      out.mask.set(x, y, 255);
    }
  }

  out.mask =
      oracle::Close(oracle::Open(out.mask, options.morphology_radius),
                    options.morphology_radius);
  out.coverage = out.mask.CoverageFraction();

  const std::vector<media::Region> all =
      oracle::ConnectedComponents(out.mask, options.min_region_area);
  out.regions =
      media::FilterBySize(all, w, h, options.min_region_side_frac);
  for (const media::Region& r : out.regions) {
    out.max_region_fraction =
        std::max(out.max_region_fraction, r.AreaFraction(w, h));
  }
  return out;
}

inline cues::SkinDetection DetectSkin(const media::Image& image) {
  return oracle::DetectSkin(image, cues::DefaultSkinModel(),
                    cues::SkinDetectorOptions());
}

// --- cues/blood.cc --------------------------------------------------------

inline cues::SkinDetection DetectBlood(const media::Image& image) {
  cues::SkinDetectorOptions options;
  options.texture_gradient_limit = 90;  // wet tissue is specular/noisy
  options.min_region_side_frac = 0.05;
  return oracle::DetectSkin(image, cues::DefaultBloodModel(), options);
}

// --- cues/face.cc ---------------------------------------------------------

inline double FaceProfileScore(const media::Image& image,
                               const media::Region& region) {
  const int rh = region.height();
  const int rw = region.width();
  if (rh < 10 || rw < 6) return 0.0;

  // Vertical luma profile: mean luma of each row inside the bounding box.
  std::vector<double> profile(static_cast<size_t>(rh), 0.0);
  for (int y = 0; y < rh; ++y) {
    double acc = 0.0;
    for (int x = 0; x < rw; ++x) {
      acc += oracle::Luma(image.at(region.min_x + x, region.min_y + y));
    }
    profile[static_cast<size_t>(y)] = acc / rw;
  }

  auto band_mean = [&profile, rh](double lo, double hi) {
    const int a = std::clamp(static_cast<int>(lo * rh), 0, rh - 1);
    const int b = std::clamp(static_cast<int>(hi * rh), a + 1, rh);
    double acc = 0.0;
    for (int y = a; y < b; ++y) acc += profile[static_cast<size_t>(y)];
    return acc / (b - a);
  };

  // Template curve: bright forehead (10-28 %), dark eye band (32-50 %),
  // bright cheeks (52-66 %), dark mouth band (70-85 %).
  const double forehead = band_mean(0.10, 0.28);
  const double eyes = band_mean(0.32, 0.50);
  const double cheeks = band_mean(0.52, 0.66);
  const double mouth = band_mean(0.70, 0.85);

  const double eye_valley = (forehead - eyes) + (cheeks - eyes);
  const double mouth_valley = cheeks - mouth;
  if (eye_valley <= 0.0 || mouth_valley <= 0.0) return 0.0;

  // Normalise valley depths by the overall face brightness scale.
  const double scale = std::max(forehead, cheeks);
  if (scale < 1.0) return 0.0;
  const double score =
      0.7 * std::min(1.0, eye_valley / (0.25 * scale)) +
      0.3 * std::min(1.0, mouth_valley / (0.15 * scale));
  return std::clamp(score, 0.0, 1.0);
}

inline cues::FaceDetection DetectFaces(
    const media::Image& image, const cues::FaceDetectorOptions& options) {
  cues::FaceDetection out;
  const cues::SkinDetection skin = oracle::DetectSkin(image);
  for (const media::Region& region : skin.regions) {
    const double aspect = region.AspectRatio();
    const double solidity = region.Solidity();
    if (aspect < options.min_aspect || aspect > options.max_aspect) continue;
    if (solidity < options.min_solidity || solidity > options.max_solidity) {
      continue;
    }
    const double score = oracle::FaceProfileScore(image, region);
    if (score < options.min_profile_score) continue;

    cues::Face face;
    face.region = region;
    face.area_fraction = region.AreaFraction(image.width(), image.height());
    face.profile_score = score;
    out.faces.push_back(face);
    out.max_face_fraction =
        std::max(out.max_face_fraction, face.area_fraction);
  }
  out.has_face = !out.faces.empty();
  out.has_closeup = out.max_face_fraction >= options.closeup_fraction;
  return out;
}

// --- cues/special_frames.cc -----------------------------------------------

inline cues::FrameStats ComputeFrameStats(const media::Image& image) {
  cues::FrameStats stats;
  if (image.empty()) return stats;
  const int w = image.width();
  const int h = image.height();
  const double total = static_cast<double>(image.pixel_count());

  const media::GrayImage gray = oracle::ToGray(image);

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
  const features::ColorHistogram hist =
      features::ComputeColorHistogram(image);
  double dominant = 0.0;
  int distinct = 0;
  for (double b : hist) {
    dominant = std::max(dominant, b);
    if (b > 0.005) ++distinct;
  }
  stats.dominant_color = dominant;
  stats.distinct_colors = distinct;

  // Saturation.
  double sat = 0.0;
  int saturated = 0;
  for (const media::Rgb& p : image.pixels()) {
    const media::Hsv hsv = media::RgbToHsv(p);
    sat += hsv.s;
    if (hsv.s > 0.3 && hsv.v > 0.2) ++saturated;
  }
  stats.mean_saturation = sat / total;
  stats.saturated_fraction = static_cast<double>(saturated) / total;

  // Edge density and local noise.
  int strong_edges = 0;
  double noise_acc = 0.0;
  int flat_pixels = 0;
  int noise_count = 0;
  for (int y = 1; y < h - 1; ++y) {
    for (int x = 1; x < w - 1; ++x) {
      const int gx = std::abs(static_cast<int>(gray.at(x + 1, y)) -
                              gray.at(x - 1, y));
      const int gy = std::abs(static_cast<int>(gray.at(x, y + 1)) -
                              gray.at(x, y - 1));
      if (gx + gy > 60) ++strong_edges;
      // Local mean over the 3x3 neighbourhood.
      int acc = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) acc += gray.at(x + dx, y + dy);
      }
      const double dev =
          std::fabs(static_cast<double>(gray.at(x, y)) - acc / 9.0);
      noise_acc += dev;
      if (dev < 1.0) ++flat_pixels;
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

inline cues::SpecialFrameType ClassifySpecialFrame(
    const media::Image& image, const cues::SpecialFrameOptions& options) {
  using cues::SpecialFrameType;
  const cues::FrameStats s = oracle::ComputeFrameStats(image);

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

// --- cues/cue_extractor.cc: two skin passes, four grey conversions ---------

inline cues::FrameCues ExtractFrameCues(
    const media::Image& frame, const cues::CueExtractorOptions& options) {
  using cues::SpecialFrameType;
  cues::FrameCues cues;
  cues.special = oracle::ClassifySpecialFrame(frame, options.special);

  // Man-made frames carry no people/tissue; skip the region detectors.
  if (cues.special != SpecialFrameType::kNone) return cues;

  const cues::FaceDetection faces =
      oracle::DetectFaces(frame, options.face);
  cues.has_face = faces.has_face;
  cues.face_closeup = faces.has_closeup;
  cues.max_face_fraction = faces.max_face_fraction;

  const cues::SkinDetection skin = oracle::DetectSkin(frame);
  cues.has_skin_region = !skin.regions.empty();
  cues.max_skin_fraction = skin.max_region_fraction;
  cues.skin_closeup =
      skin.max_region_fraction >= options.skin_closeup_fraction;

  const cues::SkinDetection blood = oracle::DetectBlood(frame);
  cues.has_blood = !blood.regions.empty();
  cues.max_blood_fraction = blood.max_region_fraction;
  return cues;
}

// --- comparisons: doubles by their bits ---------------------------------

inline bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

inline bool SameRegions(const std::vector<media::Region>& a,
                        const std::vector<media::Region>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].min_x != b[i].min_x || a[i].min_y != b[i].min_y ||
        a[i].max_x != b[i].max_x || a[i].max_y != b[i].max_y ||
        a[i].area != b[i].area ||
        !SameBits(a[i].centroid_x, b[i].centroid_x) ||
        !SameBits(a[i].centroid_y, b[i].centroid_y)) {
      return false;
    }
  }
  return true;
}

inline bool SameDetection(const cues::SkinDetection& a,
                          const cues::SkinDetection& b) {
  return a.mask == b.mask && SameRegions(a.regions, b.regions) &&
         SameBits(a.coverage, b.coverage) &&
         SameBits(a.max_region_fraction, b.max_region_fraction);
}

inline bool SameFaces(const cues::FaceDetection& a,
                      const cues::FaceDetection& b) {
  if (a.faces.size() != b.faces.size()) return false;
  for (size_t i = 0; i < a.faces.size(); ++i) {
    if (!SameRegions({a.faces[i].region}, {b.faces[i].region}) ||
        !SameBits(a.faces[i].area_fraction, b.faces[i].area_fraction) ||
        !SameBits(a.faces[i].profile_score, b.faces[i].profile_score)) {
      return false;
    }
  }
  return a.has_face == b.has_face && a.has_closeup == b.has_closeup &&
         SameBits(a.max_face_fraction, b.max_face_fraction);
}

inline bool SameStats(const cues::FrameStats& a, const cues::FrameStats& b) {
  return SameBits(a.mean_luma, b.mean_luma) &&
         SameBits(a.luma_stddev, b.luma_stddev) &&
         SameBits(a.dominant_color, b.dominant_color) &&
         a.distinct_colors == b.distinct_colors &&
         SameBits(a.mean_saturation, b.mean_saturation) &&
         SameBits(a.saturated_fraction, b.saturated_fraction) &&
         SameBits(a.edge_density, b.edge_density) &&
         SameBits(a.noise_level, b.noise_level) &&
         SameBits(a.flat_fraction, b.flat_fraction) &&
         SameBits(a.luma_entropy, b.luma_entropy) &&
         SameBits(a.text_row_score, b.text_row_score);
}

inline bool SameCues(const cues::FrameCues& a, const cues::FrameCues& b) {
  return a.special == b.special && a.has_face == b.has_face &&
         a.face_closeup == b.face_closeup &&
         SameBits(a.max_face_fraction, b.max_face_fraction) &&
         a.has_skin_region == b.has_skin_region &&
         a.skin_closeup == b.skin_closeup &&
         SameBits(a.max_skin_fraction, b.max_skin_fraction) &&
         a.has_blood == b.has_blood &&
         SameBits(a.max_blood_fraction, b.max_blood_fraction);
}

inline bool SameTamura(const features::TamuraVector& a,
                       const features::TamuraVector& b) {
  for (size_t k = 0; k < a.size(); ++k) {
    if (!SameBits(a[k], b[k])) return false;
  }
  return true;
}

}  // namespace classminer::oracle

#endif  // CLASSMINER_TESTS_IMAGE_ORACLE_H_
