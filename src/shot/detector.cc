#include "shot/detector.h"

#include <algorithm>

#include "features/frame_diff.h"
#include "shot/rep_frame.h"

namespace classminer::shot {
namespace {

std::vector<Shot> ShotsFromCuts(const std::vector<int>& cuts,
                                int frame_count) {
  std::vector<Shot> shots;
  if (frame_count <= 0) return shots;
  int start = 0;
  for (int cut : cuts) {
    Shot s;
    s.index = static_cast<int>(shots.size());
    s.start_frame = start;
    s.end_frame = cut;
    shots.push_back(s);
    start = cut + 1;
  }
  Shot last;
  last.index = static_cast<int>(shots.size());
  last.start_frame = start;
  last.end_frame = frame_count - 1;
  shots.push_back(last);
  return shots;
}

}  // namespace

std::vector<int> DetectCuts(std::span<const double> diffs,
                            const ShotDetectorOptions& options,
                            std::vector<double>* thresholds_out) {
  const std::vector<double> thresholds =
      AdaptiveThresholds(diffs, options.threshold);
  if (thresholds_out != nullptr) *thresholds_out = thresholds;

  const int n = static_cast<int>(diffs.size());
  std::vector<int> cuts;
  int last_cut = -options.min_shot_frames - 1;
  for (int i = 0; i < n; ++i) {
    if (diffs[static_cast<size_t>(i)] <= thresholds[static_cast<size_t>(i)]) {
      continue;
    }
    // Local-maximum test within the minimum-shot neighbourhood: gradual
    // transitions raise several consecutive differences; keep the peak.
    bool is_peak = true;
    const int lo = std::max(0, i - options.min_shot_frames);
    const int hi = std::min(n - 1, i + options.min_shot_frames);
    for (int j = lo; j <= hi; ++j) {
      if (diffs[static_cast<size_t>(j)] > diffs[static_cast<size_t>(i)] ||
          (diffs[static_cast<size_t>(j)] == diffs[static_cast<size_t>(i)] &&
           j < i)) {
        is_peak = false;
        break;
      }
    }
    if (!is_peak) continue;
    if (i - last_cut < options.min_shot_frames) continue;
    cuts.push_back(i);
    last_cut = i;
  }
  return cuts;
}

std::vector<Shot> DetectShots(const media::Video& video,
                              const ShotDetectorOptions& options,
                              ShotDetectionTrace* trace,
                              const util::ExecutionContext& ctx) {
  const std::vector<double> diffs =
      features::FrameDifferenceSeries(video, ctx);
  std::vector<double> thresholds;
  const std::vector<int> cuts = DetectCuts(diffs, options, &thresholds);
  if (trace != nullptr) {
    trace->differences = diffs;
    trace->thresholds = thresholds;
    trace->cuts = cuts;
  }
  std::vector<Shot> shots = ShotsFromCuts(cuts, video.frame_count());
  PopulateRepresentativeFrames(video, &shots, ctx);
  return shots;
}

std::vector<Shot> DetectShotsFromDc(const std::vector<media::GrayImage>& dc,
                                    const ShotDetectorOptions& options,
                                    ShotDetectionTrace* trace) {
  std::vector<double> diffs;
  if (dc.size() >= 2) {
    diffs.reserve(dc.size() - 1);
    for (size_t i = 1; i < dc.size(); ++i) {
      diffs.push_back(features::BlockLumaDifference(dc[i - 1], dc[i]));
    }
  }
  std::vector<double> thresholds;
  const std::vector<int> cuts = DetectCuts(diffs, options, &thresholds);
  if (trace != nullptr) {
    trace->differences = diffs;
    trace->thresholds = thresholds;
    trace->cuts = cuts;
  }
  return ShotsFromCuts(cuts, static_cast<int>(dc.size()));
}

}  // namespace classminer::shot
