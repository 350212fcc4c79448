#include "cues/skin.h"

#include <algorithm>
#include <cmath>

#include "media/color.h"
#include "media/morphology.h"
#include "util/logging.h"

namespace classminer::cues {

double ChromaGaussian::MahalanobisSquared(double r, double g) const {
  const double dr = r - mean_r;
  const double dg = g - mean_g;
  const double det = var_r * var_g - cov_rg * cov_rg;
  if (det <= 1e-12) {
    return (dr * dr) / std::max(var_r, 1e-9) +
           (dg * dg) / std::max(var_g, 1e-9);
  }
  return (var_g * dr * dr - 2.0 * cov_rg * dr * dg + var_r * dg * dg) / det;
}

bool ChromaGaussian::Accepts(media::Rgb pixel) const {
  return Accepts(pixel, media::Luma(pixel));
}

bool ChromaGaussian::Accepts(media::Rgb pixel, uint8_t luma) const {
  const double total = static_cast<double>(pixel.r) + pixel.g + pixel.b;
  if (total < 1.0) return false;
  if (luma < min_luma || luma > max_luma) return false;
  const double r = pixel.r / total;
  const double g = pixel.g / total;
  return MahalanobisSquared(r, g) <= gate * gate;
}

ChromaGaussian DefaultSkinModel() {
  ChromaGaussian m;
  // Photographic skin tones cluster near (r, g) = (0.44, 0.31); variances
  // chosen wide enough to span pale-to-dark tones without absorbing
  // saturated reds (blood) or neutrals.
  m.mean_r = 0.44;
  m.mean_g = 0.31;
  m.var_r = 0.0020;
  m.var_g = 0.0010;
  m.cov_rg = -0.0005;
  m.gate = 2.0;
  m.min_luma = 60.0;
  m.max_luma = 245.0;
  return m;
}

SkinDetection DetectSkin(const media::Image& image,
                         const media::GrayImage& gray,
                         const ChromaGaussian& model,
                         const SkinDetectorOptions& options) {
  SkinDetection out;
  const int w = image.width();
  const int h = image.height();
  CM_CHECK(gray.width() == w && gray.height() == h)
      << "DetectSkin: grey image size differs from the frame";
  out.mask = media::GrayImage(w, h);
  if (image.empty()) return out;

  // A pixel is on when the model accepts it and, away from the border, it
  // passes the texture filter (skin is locally smooth). Neither test has a
  // side effect, so the cheap integer filter can run first.
  const uint8_t* g = gray.pixels().data();
  const media::Rgb* px = image.pixels().data();
  uint8_t* m = out.mask.pixels().data();
  for (int y = 0; y < h; ++y) {
    const bool inner_row = y > 0 && y < h - 1;
    for (int x = 0; x < w; ++x) {
      const int i = y * w + x;
      if (inner_row && x > 0 && x < w - 1) {
        const int gx = std::abs(static_cast<int>(g[i + 1]) - g[i - 1]);
        const int gy = std::abs(static_cast<int>(g[i + w]) - g[i - w]);
        if (gx + gy > options.texture_gradient_limit) continue;
      }
      if (model.Accepts(px[i], g[i])) m[i] = 255;
    }
  }

  out.mask = media::Close(media::Open(out.mask, options.morphology_radius),
                          options.morphology_radius);
  out.coverage = out.mask.CoverageFraction();

  const std::vector<media::Region> all =
      media::ConnectedComponents(out.mask, options.min_region_area);
  out.regions =
      media::FilterBySize(all, w, h, options.min_region_side_frac);
  for (const media::Region& r : out.regions) {
    out.max_region_fraction =
        std::max(out.max_region_fraction, r.AreaFraction(w, h));
  }
  return out;
}

SkinDetection DetectSkin(const media::Image& image) {
  return DetectSkin(image, media::ToGray(image), DefaultSkinModel(),
                    SkinDetectorOptions());
}

}  // namespace classminer::cues
