#ifndef CLASSMINER_CUES_BLOOD_H_
#define CLASSMINER_CUES_BLOOD_H_

#include "cues/skin.h"

namespace classminer::cues {

// Blood-red chroma model: deeply saturated reds (r-fraction well above the
// skin cluster), used for surgical-footage detection (paper Sec. 4.1).
ChromaGaussian DefaultBloodModel();

// Blood segmentation reuses the skin pipeline with the blood model and a
// looser texture filter (wet tissue is specular and noisy). `gray` is
// media::ToGray(image), as for DetectSkin; the one-argument form converts
// the image itself.
SkinDetection DetectBlood(const media::Image& image,
                          const media::GrayImage& gray);
SkinDetection DetectBlood(const media::Image& image);

}  // namespace classminer::cues

#endif  // CLASSMINER_CUES_BLOOD_H_
