#ifndef CLASSMINER_SHOT_REP_FRAME_H_
#define CLASSMINER_SHOT_REP_FRAME_H_

#include <vector>

#include "media/image.h"
#include "media/video.h"
#include "shot/shot.h"
#include "util/exec_context.h"

namespace classminer::shot {

// Index of the representative frame of a shot span: the shot's 10th frame
// (paper Sec. 3.1), clamped to the shot for shorter shots. Degenerate spans
// (end before start) clamp to the start frame so the index never leaves the
// shot.
int RepresentativeFrameIndex(int start_frame, int end_frame);

// Sets rep_frame on every shot: RepresentativeFrameIndex, additionally
// clamped to a video of `frame_count` frames, so a final shot ending at
// frame_count - 1 (or a span produced by a mismatched compressed-domain
// trace) always names a real frame.
void AssignRepresentativeFrames(int frame_count, std::vector<Shot>* shots);

// The frame at each shot's rep_frame, or null where that index lies
// outside the video. Aligned with `shots`; points into `video`.
std::vector<const media::Image*> RepresentativeImages(
    const media::Video& video, const std::vector<Shot>& shots);

// Fills the features of shot i from rep_images[i], one representative
// image per shot; a null image leaves that shot's default features. With a
// pool, shots are processed in parallel (independent per-shot slots;
// bit-identical to serial).
void PopulateRepresentativeFrames(
    const std::vector<const media::Image*>& rep_images,
    std::vector<Shot>* shots, const util::ExecutionContext& ctx = {});

// Full-decode form: assigns rep_frame for every shot and fills its
// features from the decoded video, on `ctx` like the form above.
void PopulateRepresentativeFrames(const media::Video& video,
                                  std::vector<Shot>* shots,
                                  const util::ExecutionContext& ctx = {});

}  // namespace classminer::shot

#endif  // CLASSMINER_SHOT_REP_FRAME_H_
