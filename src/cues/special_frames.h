#ifndef CLASSMINER_CUES_SPECIAL_FRAMES_H_
#define CLASSMINER_CUES_SPECIAL_FRAMES_H_

#include "features/histogram.h"
#include "media/image.h"

namespace classminer::cues {

// Man-made frame classes detected among representative frames (paper
// Sec. 4.1, Fig. 9). Natural camera frames classify as kNone.
enum class SpecialFrameType {
  kNone = 0,
  kBlack,
  kSlide,    // presentation slide: uniform background + text lines
  kClipArt,  // few flat saturated colours, little texture
  kSketch,   // bright background + thin dark line drawing
};

const char* SpecialFrameTypeName(SpecialFrameType type);

// Frame statistics driving the classification; exposed for tests and for
// the slide/clip-art discrimination rules ("video text and gray
// information", Sec. 4.1).
struct FrameStats {
  double mean_luma = 0.0;       // [0, 255]
  double luma_stddev = 0.0;
  double dominant_color = 0.0;  // mass of the largest quantised colour bin
  int distinct_colors = 0;      // quantised bins holding > 0.5 % of pixels
  double mean_saturation = 0.0;
  double saturated_fraction = 0.0;  // pixels with s > 0.3 and v > 0.2
  double edge_density = 0.0;    // fraction of strong-gradient pixels
  double noise_level = 0.0;     // mean |luma - 3x3 local mean|
  double flat_fraction = 0.0;   // pixels with |luma - 3x3 mean| < 1
  double luma_entropy = 0.0;    // 16-bin luma entropy, normalised to [0,1]
  double text_row_score = 0.0;  // fraction of rows with text-like runs
};

// `gray` is media::ToGray(image) (a size mismatch aborts) and `hist` is
// features::ComputeColorHistogram(image), which ExtractShotFeatures has
// already stored for a representative frame; the one-argument form
// computes both.
FrameStats ComputeFrameStats(const media::Image& image,
                             const media::GrayImage& gray,
                             const features::ColorHistogram& hist);
FrameStats ComputeFrameStats(const media::Image& image);

struct SpecialFrameOptions {
  double black_max_luma = 40.0;
  double black_max_stddev = 20.0;
  // A frame counts as man-made when most pixels are perfectly flat (camera
  // frames carry sensor noise in every pixel) and the palette is limited.
  // Compression smooths sensor noise, so the flatness cue is backed by a
  // luma-entropy cue: rendered frames concentrate luma in few levels while
  // natural gradients stay spread out even after coarse quantisation.
  double manmade_min_flat = 0.55;
  double manmade_max_luma_entropy = 0.55;
  int manmade_max_colors = 24;
  double slide_min_text_rows = 0.08;
  double sketch_max_saturation = 0.15;
};

// `gray` and `hist` as for ComputeFrameStats; the one-argument form
// computes both and uses the default options.
SpecialFrameType ClassifySpecialFrame(const media::Image& image,
                                      const media::GrayImage& gray,
                                      const features::ColorHistogram& hist,
                                      const SpecialFrameOptions& options);
SpecialFrameType ClassifySpecialFrame(const media::Image& image);

}  // namespace classminer::cues

#endif  // CLASSMINER_CUES_SPECIAL_FRAMES_H_
