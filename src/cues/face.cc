#include "cues/face.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "media/color.h"

namespace classminer::cues {

double FaceProfileScore(const media::Image& image,
                        const media::Region& region) {
  const int rh = region.height();
  const int rw = region.width();
  if (rh < 10 || rw < 6) return 0.0;

  // Vertical luma profile: mean luma of each row inside the bounding box.
  std::vector<double> profile(static_cast<size_t>(rh), 0.0);
  for (int y = 0; y < rh; ++y) {
    double acc = 0.0;
    for (int x = 0; x < rw; ++x) {
      acc += media::Luma(image.at(region.min_x + x, region.min_y + y));
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

FaceDetection DetectFaces(const media::Image& image,
                          const SkinDetection& skin,
                          const FaceDetectorOptions& options) {
  FaceDetection out;
  for (const media::Region& region : skin.regions) {
    const double aspect = region.AspectRatio();
    const double solidity = region.Solidity();
    if (aspect < options.min_aspect || aspect > options.max_aspect) continue;
    if (solidity < options.min_solidity || solidity > options.max_solidity) {
      continue;
    }
    const double score = FaceProfileScore(image, region);
    if (score < options.min_profile_score) continue;

    Face face;
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

FaceDetection DetectFaces(const media::Image& image) {
  return DetectFaces(image, DetectSkin(image), FaceDetectorOptions());
}

}  // namespace classminer::cues
