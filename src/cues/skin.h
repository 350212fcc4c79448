#ifndef CLASSMINER_CUES_SKIN_H_
#define CLASSMINER_CUES_SKIN_H_

#include <vector>

#include "media/image.h"
#include "media/region.h"

namespace classminer::cues {

// Gaussian chroma model in normalised-rg space (paper Sec. 4.1: "Gaussian
// models are first utilized to segment the skin and blood-red regions").
// x = (r, g) with r = R/(R+G+B), g = G/(R+G+B); a pixel belongs to the
// class when its Mahalanobis distance to the model mean is below the gate.
struct ChromaGaussian {
  double mean_r = 0.0;
  double mean_g = 0.0;
  double var_r = 1.0;
  double var_g = 1.0;
  double cov_rg = 0.0;
  double gate = 2.5;           // Mahalanobis acceptance radius
  double min_luma = 40.0;      // reject very dark pixels
  double max_luma = 250.0;

  double MahalanobisSquared(double r, double g) const;
  bool Accepts(media::Rgb pixel) const;
  // Same test with the pixel's media::Luma already known (a ToGray value).
  bool Accepts(media::Rgb pixel, uint8_t luma) const;
};

// Default skin-tone model (broad; covers the synthetic corpus's tones and
// typical photographic skin chroma).
ChromaGaussian DefaultSkinModel();

struct SkinDetection {
  media::GrayImage mask;               // cleaned binary mask
  std::vector<media::Region> regions;  // size-filtered components
  double coverage = 0.0;               // mask fraction of the frame
  double max_region_fraction = 0.0;    // largest region area / frame area
};

struct SkinDetectorOptions {
  // Texture filter (Sec. 4.1): skin is smooth, so high-gradient pixels are
  // removed from the mask before morphology.
  int texture_gradient_limit = 40;
  int morphology_radius = 1;
  double min_region_side_frac = 0.08;  // "considerable width and height"
  int min_region_area = 24;
};

// Segments skin-like regions with model -> texture filter -> morphological
// open/close -> connected components -> shape filtering. `gray` must be
// media::ToGray(image) (a size mismatch aborts); callers that run several
// detectors on one frame convert it once. The one-argument form converts
// the image itself and uses the default model and options.
SkinDetection DetectSkin(const media::Image& image,
                         const media::GrayImage& gray,
                         const ChromaGaussian& model,
                         const SkinDetectorOptions& options);
SkinDetection DetectSkin(const media::Image& image);

}  // namespace classminer::cues

#endif  // CLASSMINER_CUES_SKIN_H_
