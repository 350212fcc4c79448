#include "cues/cue_extractor.h"

#include "media/color.h"
#include "util/logging.h"

namespace classminer::cues {

FrameCues ExtractFrameCues(const media::Image& frame,
                           const features::ColorHistogram& hist,
                           const CueExtractorOptions& options) {
  FrameCues cues;
  // One grey conversion serves the frame statistics and both chroma
  // detectors; one skin segmentation serves the face verifier and the
  // skin cues.
  const media::GrayImage gray = media::ToGray(frame);
  cues.special = ClassifySpecialFrame(frame, gray, hist, options.special);

  // Man-made frames carry no people/tissue; skip the region detectors.
  if (cues.special != SpecialFrameType::kNone) return cues;

  const SkinDetection skin =
      DetectSkin(frame, gray, DefaultSkinModel(), SkinDetectorOptions());
  const FaceDetection faces = DetectFaces(frame, skin, options.face);
  cues.has_face = faces.has_face;
  cues.face_closeup = faces.has_closeup;
  cues.max_face_fraction = faces.max_face_fraction;

  cues.has_skin_region = !skin.regions.empty();
  cues.max_skin_fraction = skin.max_region_fraction;
  cues.skin_closeup =
      skin.max_region_fraction >= options.skin_closeup_fraction;

  const SkinDetection blood = DetectBlood(frame, gray);
  cues.has_blood = !blood.regions.empty();
  cues.max_blood_fraction = blood.max_region_fraction;
  return cues;
}

FrameCues ExtractFrameCues(const media::Image& frame) {
  return ExtractFrameCues(frame, features::ComputeColorHistogram(frame),
                          CueExtractorOptions());
}

std::vector<FrameCues> ExtractShotCues(
    const std::vector<const media::Image*>& rep_images,
    const std::vector<const features::ColorHistogram*>& histograms,
    const CueExtractorOptions& options, const util::ExecutionContext& ctx) {
  CM_CHECK(histograms.size() == rep_images.size())
      << "ExtractShotCues: one histogram per representative image";
  std::vector<FrameCues> out(rep_images.size());
  util::ParallelFor(
      ctx, static_cast<int>(rep_images.size()),
      [&](int i) {
        const media::Image* image = rep_images[static_cast<size_t>(i)];
        if (image != nullptr) {
          out[static_cast<size_t>(i)] = ExtractFrameCues(
              *image, *histograms[static_cast<size_t>(i)], options);
        }
      },
      /*grain=*/2);
  return out;
}

}  // namespace classminer::cues
