#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "image_oracle.h"
#include "features/frame_diff.h"
#include "features/histogram.h"
#include "features/similarity.h"
#include "features/tamura.h"
#include "media/draw.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace classminer::features {
namespace {

media::Image Solid(int w, int h, media::Rgb c) { return media::Image(w, h, c); }

media::Image Checker(int w, int h, int cell) {
  media::Image img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const bool on = ((x / cell) + (y / cell)) % 2 == 0;
      img.set(x, y, on ? media::Rgb{255, 255, 255} : media::Rgb{0, 0, 0});
    }
  }
  return img;
}

TEST(HistogramTest, NormalisedToUnitMass) {
  const ColorHistogram h =
      ComputeColorHistogram(Solid(16, 16, media::Rgb{200, 30, 40}));
  double mass = 0.0;
  for (double v : h) mass += v;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(HistogramTest, SolidImageFillsOneBin) {
  const ColorHistogram h =
      ComputeColorHistogram(Solid(8, 8, media::Rgb{200, 30, 40}));
  int nonzero = 0;
  for (double v : h) {
    if (v > 0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 1);
}

TEST(HistogramTest, IntersectionIdentityAndDisjoint) {
  const ColorHistogram a =
      ComputeColorHistogram(Solid(8, 8, media::Rgb{255, 0, 0}));
  const ColorHistogram b =
      ComputeColorHistogram(Solid(8, 8, media::Rgb{0, 0, 255}));
  EXPECT_NEAR(HistogramIntersection(a, a), 1.0, 1e-9);
  EXPECT_NEAR(HistogramIntersection(a, b), 0.0, 1e-9);
}

TEST(HistogramTest, IntersectionSymmetric) {
  util::Rng rng(9);
  media::Image x(16, 16), y(16, 16);
  media::AddNoise(&x, 255, &rng);
  media::AddNoise(&y, 255, &rng);
  const ColorHistogram hx = ComputeColorHistogram(x);
  const ColorHistogram hy = ComputeColorHistogram(y);
  EXPECT_DOUBLE_EQ(HistogramIntersection(hx, hy),
                   HistogramIntersection(hy, hx));
}

TEST(HistogramTest, EmptyImageIsZero) {
  const ColorHistogram h = ComputeColorHistogram(media::Image());
  for (double v : h) EXPECT_EQ(v, 0.0);
}

TEST(TamuraTest, DimensionsAndRange) {
  const TamuraVector t = ComputeTamuraCoarseness(Checker(64, 64, 4));
  ASSERT_EQ(t.size(), static_cast<size_t>(kTamuraDims));
  for (double v : t) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(TamuraTest, ScaleHistogramSumsToOne) {
  const TamuraVector t = ComputeTamuraCoarseness(Checker(64, 64, 8));
  double mass = 0.0;
  for (int k = 0; k < kCoarsenessScales; ++k) mass += t[static_cast<size_t>(k)];
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(TamuraTest, CoarserPatternHasLargerMeanScale) {
  const TamuraVector fine = ComputeTamuraCoarseness(Checker(128, 128, 2));
  const TamuraVector coarse = ComputeTamuraCoarseness(Checker(128, 128, 16));
  EXPECT_GT(coarse[6], fine[6]);  // normalised mean best-scale
}

// The lane-wise Tamura kernel over padded integral rows against the
// per-window clamped loop (tests/image_oracle.h), bit for bit, at every
// dispatch level. Sizes cover 1-pixel frames, odd sides, scales wider than
// the frame, the 96x72 mining size, strided sampling (sides of 128 and
// more, up to the strides 5 and 6 of 352x240 and 384x288), rows whose
// sample count leaves 1, 2 or 3 samples in the last lane block, unit and
// strided, and heights below 64 (the tallest windows always clamped).
TEST(TamuraOracleTest, MatchesClampedReferenceAtEveryLevel) {
  const std::pair<int, int> sizes[] = {
      {1, 1},    {2, 2},     {3, 5},     {7, 3},     {17, 9},
      {31, 33},  {63, 65},   {96, 72},   {127, 129}, {128, 96},
      {130, 200}, {257, 190}, {97, 40},  {98, 17},   {99, 63},
      {101, 5},  {66, 2},    {200, 50},  {390, 100}, {352, 240},
      {384, 288}, {396, 30}};
  for (const util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ASSERT_TRUE(util::SetDispatchLevelForTest(level));
    uint64_t seed = 1;
    for (const auto& [w, h] : sizes) {
      util::Rng rng(seed++);
      media::GrayImage noise(w, h);
      for (uint8_t& v : noise.pixels()) v = static_cast<uint8_t>(rng.Next());
      // A gradient with light noise: wide windows see small differences.
      media::GrayImage smooth(w, h);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          const int v = (x * 7 + y * 3) / 4 % 250 + rng.UniformInt(0, 5);
          smooth.set(x, y, static_cast<uint8_t>(v));
        }
      }
      for (const media::GrayImage* gray : {&noise, &smooth}) {
        SCOPED_TRACE(std::string(util::DispatchLevelName(level)) + " " +
                     std::to_string(w) + "x" + std::to_string(h));
        EXPECT_TRUE(oracle::SameTamura(
            ComputeTamuraCoarseness(*gray),
            oracle::ComputeTamuraCoarseness(*gray)));
      }
    }
    for (const int cell : {1, 3, 8}) {
      const media::Image img = Checker(96, 72, cell);
      EXPECT_TRUE(oracle::SameTamura(ComputeTamuraCoarseness(img),
                                     oracle::ComputeTamuraCoarseness(img)));
    }
  }
  util::ClearDispatchLevelForTest();
}

TEST(SimilarityTest, IdenticalFramesScoreOne) {
  util::Rng rng(4);
  media::Image img(32, 32, media::Rgb{120, 90, 60});
  media::AddNoise(&img, 30, &rng);
  const ShotFeatures f = ExtractShotFeatures(img);
  EXPECT_NEAR(StSim(f, f), 1.0, 1e-9);
}

TEST(SimilarityTest, BoundedAndSymmetric) {
  util::Rng rng(5);
  media::Image a(32, 32, media::Rgb{200, 40, 40});
  media::Image b(32, 32, media::Rgb{20, 40, 200});
  media::AddNoise(&a, 20, &rng);
  media::AddNoise(&b, 20, &rng);
  const ShotFeatures fa = ExtractShotFeatures(a);
  const ShotFeatures fb = ExtractShotFeatures(b);
  const double ab = StSim(fa, fb);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
  EXPECT_DOUBLE_EQ(ab, StSim(fb, fa));
}

TEST(SimilarityTest, WeightsChangeEmphasis) {
  // Same colours, different texture: a high-texture-weight similarity
  // should fall below the colour-only score.
  const media::Image flat = Solid(64, 64, media::Rgb{128, 128, 128});
  media::Image textured = Checker(64, 64, 2);
  // Make the checker's colours match the flat image's mean colour bins
  // closely enough that colour dominates.
  const ShotFeatures ff = ExtractShotFeatures(flat);
  const ShotFeatures ft = ExtractShotFeatures(textured);
  const double color_only = StSim(ff, ft, {1.0, 0.0});
  const double texture_heavy = StSim(ff, ft, {0.0, 1.0});
  EXPECT_GE(color_only, 0.0);
  EXPECT_LT(texture_heavy, 1.0);
}

TEST(FrameDiffTest, IdenticalFramesZero) {
  const media::Image img = Solid(16, 16, media::Rgb{10, 200, 30});
  EXPECT_NEAR(FrameDifference(img, img), 0.0, 1e-12);
}

TEST(FrameDiffTest, CutProducesLargeDifference) {
  const media::Image a = Solid(16, 16, media::Rgb{255, 0, 0});
  const media::Image b = Solid(16, 16, media::Rgb{0, 0, 255});
  EXPECT_GT(FrameDifference(a, b), 0.9);
}

TEST(FrameDiffTest, SeriesLength) {
  media::Video video("t", 10.0);
  for (int i = 0; i < 5; ++i) video.AppendFrame(Solid(8, 8, media::Rgb{0, 0, 0}));
  EXPECT_EQ(FrameDifferenceSeries(video).size(), 4u);
}

TEST(FrameDiffTest, BlockLumaDifferenceBounds) {
  media::GrayImage a(8, 8, 0);
  media::GrayImage b(8, 8, 255);
  EXPECT_NEAR(BlockLumaDifference(a, b), 1.0, 1e-12);
  EXPECT_NEAR(BlockLumaDifference(a, a), 0.0, 1e-12);
}

}  // namespace
}  // namespace classminer::features
