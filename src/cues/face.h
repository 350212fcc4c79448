#ifndef CLASSMINER_CUES_FACE_H_
#define CLASSMINER_CUES_FACE_H_

#include <vector>

#include "cues/skin.h"
#include "media/image.h"
#include "media/region.h"

namespace classminer::cues {

// A verified face: its skin-candidate region plus verification scores.
struct Face {
  media::Region region;
  double area_fraction = 0.0;  // of the whole frame
  double profile_score = 0.0;  // template-curve verification score
};

struct FaceDetectorOptions {
  // Shape analysis on candidate skin regions.
  double min_aspect = 0.5;   // width / height
  double max_aspect = 1.6;
  double min_solidity = 0.45;  // faces are roughly elliptical (~pi/4)
  double max_solidity = 0.98;
  // Template-curve verification acceptance.
  double min_profile_score = 0.30;
  // Close-up definition (paper Sec. 4.3): face >= 10 % of the frame.
  double closeup_fraction = 0.10;
};

struct FaceDetection {
  std::vector<Face> faces;
  bool has_face = false;
  bool has_closeup = false;
  double max_face_fraction = 0.0;
};

// Template-curve face verification (paper Sec. 4.1 / [20]): the vertical
// luma profile of a face shows dark valleys at the eye band (~40 % height)
// and mouth band (~75 %) relative to forehead/cheek bands. Returns a score
// in [0, 1]; exposed for tests.
double FaceProfileScore(const media::Image& image,
                        const media::Region& region);

// Detects faces: skin segmentation -> shape analysis -> template-curve
// verification of each candidate region. `skin` is DetectSkin(image) with
// the default model and options; callers that also report skin regions
// segment once and pass it in. The one-argument form segments the image
// itself and uses the default options.
FaceDetection DetectFaces(const media::Image& image,
                          const SkinDetection& skin,
                          const FaceDetectorOptions& options);
FaceDetection DetectFaces(const media::Image& image);

}  // namespace classminer::cues

#endif  // CLASSMINER_CUES_FACE_H_
