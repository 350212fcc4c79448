#include "cues/blood.h"

#include "media/color.h"

namespace classminer::cues {

ChromaGaussian DefaultBloodModel() {
  ChromaGaussian m;
  // Blood reds: r-fraction ~0.6+, green suppressed.
  m.mean_r = 0.62;
  m.mean_g = 0.20;
  m.var_r = 0.0035;
  m.var_g = 0.0018;
  m.cov_rg = -0.0008;
  m.gate = 2.0;
  m.min_luma = 30.0;
  m.max_luma = 220.0;
  return m;
}

SkinDetection DetectBlood(const media::Image& image,
                          const media::GrayImage& gray) {
  SkinDetectorOptions options;
  options.texture_gradient_limit = 90;  // wet tissue is specular/noisy
  options.min_region_side_frac = 0.05;
  return DetectSkin(image, gray, DefaultBloodModel(), options);
}

SkinDetection DetectBlood(const media::Image& image) {
  return DetectBlood(image, media::ToGray(image));
}

}  // namespace classminer::cues
