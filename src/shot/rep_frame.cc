#include "shot/rep_frame.h"

#include <algorithm>

namespace classminer::shot {

int RepresentativeFrameIndex(int start_frame, int end_frame) {
  // The 10th frame of the shot (1-based), i.e. start + 9, clamped to the
  // shot span. A degenerate span (end < start) falls back to the start.
  return std::max(start_frame, std::min(start_frame + 9, end_frame));
}

void AssignRepresentativeFrames(int frame_count, std::vector<Shot>* shots) {
  for (Shot& s : *shots) {
    s.rep_frame = RepresentativeFrameIndex(s.start_frame, s.end_frame);
    // Shot spans normally lie inside the video, but compressed-domain
    // traces can overshoot by a frame; clamp instead of dropping.
    if (frame_count > 0 && s.rep_frame >= frame_count) {
      s.rep_frame = frame_count - 1;
    }
  }
}

std::vector<const media::Image*> RepresentativeImages(
    const media::Video& video, const std::vector<Shot>& shots) {
  std::vector<const media::Image*> images(shots.size(), nullptr);
  for (size_t i = 0; i < shots.size(); ++i) {
    const int f = shots[i].rep_frame;
    if (f >= 0 && f < video.frame_count()) images[i] = &video.frame(f);
  }
  return images;
}

void PopulateRepresentativeFrames(
    const std::vector<const media::Image*>& rep_images,
    std::vector<Shot>* shots, const util::ExecutionContext& ctx) {
  util::ParallelFor(
      ctx, static_cast<int>(shots->size()),
      [&](int i) {
        const media::Image* image = rep_images[static_cast<size_t>(i)];
        if (image == nullptr) return;
        (*shots)[static_cast<size_t>(i)].features =
            features::ExtractShotFeatures(*image);
      },
      /*grain=*/2);
}

void PopulateRepresentativeFrames(const media::Video& video,
                                  std::vector<Shot>* shots,
                                  const util::ExecutionContext& ctx) {
  AssignRepresentativeFrames(video.frame_count(), shots);
  PopulateRepresentativeFrames(RepresentativeImages(video, *shots), shots,
                               ctx);
}

}  // namespace classminer::shot
