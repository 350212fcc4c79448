#ifndef CLASSMINER_SHOT_DETECTOR_H_
#define CLASSMINER_SHOT_DETECTOR_H_

#include <vector>

#include "media/image.h"
#include "media/video.h"
#include "shot/shot.h"
#include "shot/threshold.h"
#include "util/exec_context.h"

namespace classminer::shot {

struct ShotDetectorOptions {
  AdaptiveThresholdOptions threshold{};
  int min_shot_frames = 5;  // suppress cuts closer than this
};

// Diagnostic trace behind Fig. 5: the frame-difference series and the
// adaptive per-position thresholds, plus the chosen cut positions
// (cut at k means a boundary between frame k and k+1).
struct ShotDetectionTrace {
  std::vector<double> differences;
  std::vector<double> thresholds;
  std::vector<int> cuts;
};

// Segments a difference series into cut positions. A cut is declared at
// position i when d[i] exceeds its adaptive threshold and is the maximum
// within the minimum-shot-length neighbourhood.
std::vector<int> DetectCuts(std::span<const double> diffs,
                            const ShotDetectorOptions& options,
                            std::vector<double>* thresholds_out = nullptr);

// Pixel-domain detection over a decoded video. Populates shot spans and
// representative-frame features (via shot/rep_frame). Both the per-frame
// histogram loop and the per-shot feature loop run on the context (its
// pool, cancellation token and status sink); detection is bit-identical
// with or without a pool (a default context — or a bare ThreadPool*, which
// converts — runs inline).
std::vector<Shot> DetectShots(const media::Video& video,
                              const ShotDetectorOptions& options = {},
                              ShotDetectionTrace* trace = nullptr,
                              const util::ExecutionContext& ctx = {});

// Compressed-domain detection over a DC-image sequence (codec fast path).
// Returns shot spans only; callers decode representative frames as needed.
std::vector<Shot> DetectShotsFromDc(const std::vector<media::GrayImage>& dc,
                                    const ShotDetectorOptions& options = {},
                                    ShotDetectionTrace* trace = nullptr);

}  // namespace classminer::shot

#endif  // CLASSMINER_SHOT_DETECTOR_H_
