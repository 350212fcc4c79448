#ifndef CLASSMINER_CUES_CUE_EXTRACTOR_H_
#define CLASSMINER_CUES_CUE_EXTRACTOR_H_

#include <vector>

#include "cues/blood.h"
#include "cues/face.h"
#include "cues/skin.h"
#include "cues/special_frames.h"
#include "features/histogram.h"
#include "media/image.h"
#include "util/exec_context.h"

namespace classminer::cues {

// All visual cues of one representative frame (paper Sec. 4.1): special
// frame class, faces, skin and blood-red regions, with the close-up
// predicates used by the event rules (Sec. 4.3).
struct FrameCues {
  SpecialFrameType special = SpecialFrameType::kNone;
  bool has_face = false;
  bool face_closeup = false;        // face >= 10 % of the frame
  double max_face_fraction = 0.0;
  bool has_skin_region = false;
  bool skin_closeup = false;        // skin region >= 20 % of the frame
  double max_skin_fraction = 0.0;
  bool has_blood = false;
  double max_blood_fraction = 0.0;

  bool IsSlideOrClipArt() const {
    return special == SpecialFrameType::kSlide ||
           special == SpecialFrameType::kClipArt;
  }
};

struct CueExtractorOptions {
  SpecialFrameOptions special{};
  FaceDetectorOptions face{};
  double skin_closeup_fraction = 0.20;  // paper: skin region > 20 %
};

// Extracts every cue family from one frame. `hist` is
// features::ComputeColorHistogram(frame), as ExtractShotFeatures stores it
// for a representative frame; the one-argument form computes it and uses
// the default options.
FrameCues ExtractFrameCues(const media::Image& frame,
                           const features::ColorHistogram& hist,
                           const CueExtractorOptions& options);
FrameCues ExtractFrameCues(const media::Image& frame);

// Extracts cues from each shot's representative image: rep_images[i] for
// shot i, with histograms[i] its colour histogram, or null to leave that
// shot's default cues. The context's pool runs shots in parallel
// (independent output slots; bit-identical).
std::vector<FrameCues> ExtractShotCues(
    const std::vector<const media::Image*>& rep_images,
    const std::vector<const features::ColorHistogram*>& histograms,
    const CueExtractorOptions& options, const util::ExecutionContext& ctx = {});

}  // namespace classminer::cues

#endif  // CLASSMINER_CUES_CUE_EXTRACTOR_H_
