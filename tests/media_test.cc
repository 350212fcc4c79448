#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "image_oracle.h"
#include "media/color.h"
#include "media/draw.h"
#include "media/image.h"
#include "media/morphology.h"
#include "media/region.h"
#include "util/rng.h"

namespace classminer::media {
namespace {

TEST(ImageTest, ConstructionAndAccess) {
  Image img(4, 3, Rgb{10, 20, 30});
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.pixel_count(), 12u);
  EXPECT_EQ(img.at(2, 1), (Rgb{10, 20, 30}));
  img.set(2, 1, Rgb{1, 2, 3});
  EXPECT_EQ(img.at(2, 1), (Rgb{1, 2, 3}));
}

TEST(ImageTest, EmptyAndBounds) {
  Image img;
  EXPECT_TRUE(img.empty());
  Image sized(2, 2);
  EXPECT_TRUE(sized.Contains(0, 0));
  EXPECT_TRUE(sized.Contains(1, 1));
  EXPECT_FALSE(sized.Contains(2, 0));
  EXPECT_FALSE(sized.Contains(0, -1));
}

TEST(ImageTest, ResizePreservesUniformContent) {
  Image img(8, 8, Rgb{50, 60, 70});
  const Image smaller = img.Resized(3, 3);
  EXPECT_EQ(smaller.width(), 3);
  for (const Rgb& p : smaller.pixels()) EXPECT_EQ(p, (Rgb{50, 60, 70}));
}

TEST(ColorTest, RgbHsvRoundTripPrimaries) {
  for (const Rgb c : {Rgb{255, 0, 0}, Rgb{0, 255, 0}, Rgb{0, 0, 255},
                      Rgb{255, 255, 0}, Rgb{128, 128, 128}}) {
    const Hsv hsv = RgbToHsv(c);
    const Rgb back = HsvToRgb(hsv);
    EXPECT_NEAR(back.r, c.r, 2);
    EXPECT_NEAR(back.g, c.g, 2);
    EXPECT_NEAR(back.b, c.b, 2);
  }
}

TEST(ColorTest, HueOfPureRedIsZero) {
  const Hsv hsv = RgbToHsv(Rgb{255, 0, 0});
  EXPECT_NEAR(hsv.h, 0.0, 1e-9);
  EXPECT_NEAR(hsv.s, 1.0, 1e-9);
  EXPECT_NEAR(hsv.v, 1.0, 1e-9);
}

TEST(ColorTest, LumaOrdering) {
  EXPECT_GT(Luma(Rgb{255, 255, 255}), Luma(Rgb{128, 128, 128}));
  EXPECT_GT(Luma(Rgb{0, 255, 0}), Luma(Rgb{0, 0, 255}));  // green > blue
}

TEST(DrawTest, FillRectClips) {
  Image img(4, 4);
  FillRect(&img, 2, 2, 10, 10, Rgb{255, 0, 0});
  EXPECT_EQ(img.at(3, 3), (Rgb{255, 0, 0}));
  EXPECT_EQ(img.at(1, 1), (Rgb{0, 0, 0}));
}

TEST(DrawTest, EllipseCoversCenterNotCorner) {
  Image img(21, 21);
  FillEllipse(&img, 10, 10, 6, 6, Rgb{9, 9, 9});
  EXPECT_EQ(img.at(10, 10), (Rgb{9, 9, 9}));
  EXPECT_EQ(img.at(0, 0), (Rgb{0, 0, 0}));
}

TEST(DrawTest, TranslateShiftsContent) {
  Image img(5, 5);
  img.set(2, 2, Rgb{7, 7, 7});
  const Image moved = Translated(img, 1, 0);
  EXPECT_EQ(moved.at(3, 2), (Rgb{7, 7, 7}));
}

TEST(DrawTest, NoiseStaysInRange) {
  Image img(8, 8, Rgb{250, 5, 128});
  util::Rng rng(1);
  AddNoise(&img, 10, &rng);
  for (const Rgb& p : img.pixels()) {
    EXPECT_GE(p.r, 240);  // clamped near top
    EXPECT_LE(p.g, 15);
  }
}

TEST(RegionTest, SingleComponent) {
  GrayImage mask(10, 10);
  for (int y = 2; y <= 5; ++y) {
    for (int x = 3; x <= 6; ++x) mask.set(x, y, 255);
  }
  const std::vector<Region> regions = ConnectedComponents(mask);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].area, 16);
  EXPECT_EQ(regions[0].min_x, 3);
  EXPECT_EQ(regions[0].max_y, 5);
  EXPECT_NEAR(regions[0].Solidity(), 1.0, 1e-12);
  EXPECT_NEAR(regions[0].centroid_x, 4.5, 1e-9);
}

TEST(RegionTest, TwoComponentsSortedByArea) {
  GrayImage mask(10, 10);
  mask.set(0, 0, 255);  // area 1
  for (int x = 5; x < 9; ++x) mask.set(x, 5, 255);  // area 4
  const std::vector<Region> regions = ConnectedComponents(mask);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].area, 4);
  EXPECT_EQ(regions[1].area, 1);
}

TEST(RegionTest, MinAreaFilters) {
  GrayImage mask(10, 10);
  mask.set(0, 0, 255);
  EXPECT_TRUE(ConnectedComponents(mask, 2).empty());
}

TEST(RegionTest, DiagonalIsNotConnected) {
  GrayImage mask(4, 4);
  mask.set(0, 0, 255);
  mask.set(1, 1, 255);
  EXPECT_EQ(ConnectedComponents(mask).size(), 2u);
}

TEST(RegionTest, FilterBySizeKeepsLargeSides) {
  Region small;
  small.min_x = 0; small.max_x = 1; small.min_y = 0; small.max_y = 1;
  Region large;
  large.min_x = 0; large.max_x = 40; large.min_y = 0; large.max_y = 40;
  const std::vector<Region> kept =
      FilterBySize({small, large}, 100, 100, 0.2);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].max_x, 40);
}

TEST(MorphologyTest, OpenRemovesSpeckle) {
  GrayImage mask(9, 9);
  mask.set(4, 4, 255);  // 1-pixel speckle
  const GrayImage opened = Open(mask, 1);
  EXPECT_EQ(opened.CoverageFraction(), 0.0);
}

TEST(MorphologyTest, CloseFillsHole) {
  GrayImage mask(9, 9);
  for (int y = 2; y <= 6; ++y) {
    for (int x = 2; x <= 6; ++x) mask.set(x, y, 255);
  }
  mask.set(4, 4, 0);  // hole
  const GrayImage closed = Close(mask, 1);
  EXPECT_GT(closed.at(4, 4), 0);
}

TEST(MorphologyTest, ErodeDilateAreInverseOrder) {
  GrayImage mask(11, 11);
  for (int y = 3; y <= 7; ++y) {
    for (int x = 3; x <= 7; ++x) mask.set(x, y, 255);
  }
  const GrayImage eroded = Erode(mask, 1);
  EXPECT_GT(eroded.at(5, 5), 0);
  EXPECT_EQ(eroded.at(3, 3), 0);  // boundary eroded
  const GrayImage dilated = Dilate(mask, 1);
  EXPECT_GT(dilated.at(2, 2), 0);  // boundary grown
}

// ---------------------------------------------------------------------------
// The separable morphology, the flat-stack labelling and the libm-free luma
// against verbatim copies of the loops they replaced (tests/image_oracle.h).

// Noise masks at a given foreground density, with arbitrary nonzero values
// (any nonzero byte is foreground), plus a few filled rectangles so large
// components and holes occur too.
GrayImage OracleMask(int w, int h, int on_percent, uint64_t seed) {
  util::Rng rng(seed);
  GrayImage mask(w, h);
  for (uint8_t& v : mask.pixels()) {
    v = rng.UniformInt(0, 99) < on_percent
            ? static_cast<uint8_t>(rng.UniformInt(1, 255))
            : 0;
  }
  if (on_percent > 0 && on_percent < 100) {
    for (int i = 0; i < 3; ++i) {
      const int x0 = rng.UniformInt(0, w - 1);
      const int y0 = rng.UniformInt(0, h - 1);
      const int x1 = std::min(w, x0 + rng.UniformInt(1, w));
      const int y1 = std::min(h, y0 + rng.UniformInt(1, h));
      const uint8_t v = i == 2 ? 0 : 255;
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) mask.set(x, y, v);
      }
    }
  }
  return mask;
}

const std::vector<std::pair<int, int>>& OracleSizes() {
  static const std::vector<std::pair<int, int>> sizes = {
      {1, 1}, {1, 7}, {7, 1}, {2, 3}, {3, 2},   {5, 5},
      {8, 8}, {9, 17}, {17, 9}, {33, 31}, {96, 72}, {97, 73}};
  return sizes;
}

TEST(MorphologyOracleTest, MatchesReferenceOnRandomMasks) {
  uint64_t seed = 1;
  for (const auto& [w, h] : OracleSizes()) {
    for (const int on : {0, 10, 50, 90, 100}) {
      const GrayImage mask = OracleMask(w, h, on, seed++);
      for (int radius = -1; radius <= 3; ++radius) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) + " on " +
                     std::to_string(on) + "% r" + std::to_string(radius));
        EXPECT_EQ(Erode(mask, radius), oracle::Erode(mask, radius));
        EXPECT_EQ(Dilate(mask, radius), oracle::Dilate(mask, radius));
        EXPECT_EQ(Open(mask, radius), oracle::Open(mask, radius));
        EXPECT_EQ(Close(mask, radius), oracle::Close(mask, radius));
      }
    }
  }
}

TEST(MorphologyOracleTest, AllOnAndAllOffImages) {
  for (const auto& [w, h] : OracleSizes()) {
    for (const uint8_t fill : {0, 1, 255}) {
      const GrayImage mask(w, h, fill);
      for (int radius = 0; radius <= 3; ++radius) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) + " fill " +
                     std::to_string(fill) + " r" + std::to_string(radius));
        EXPECT_EQ(Erode(mask, radius), oracle::Erode(mask, radius));
        EXPECT_EQ(Dilate(mask, radius), oracle::Dilate(mask, radius));
        EXPECT_EQ(Close(Open(mask, radius), radius),
                  oracle::Close(oracle::Open(mask, radius), radius));
      }
    }
  }
  EXPECT_TRUE(Erode(GrayImage(), 1).empty());
  EXPECT_TRUE(Dilate(GrayImage(0, 5), 1).empty());
}

TEST(RegionOracleTest, MatchesReferenceOnRandomMasks) {
  uint64_t seed = 100;
  for (const auto& [w, h] : OracleSizes()) {
    for (const int on : {0, 10, 50, 70, 100}) {
      const GrayImage mask = OracleMask(w, h, on, seed++);
      for (const int min_area : {1, 5, 24}) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) + " on " +
                     std::to_string(on) + "% min " + std::to_string(min_area));
        EXPECT_TRUE(oracle::SameRegions(
            ConnectedComponents(mask, min_area),
            oracle::ConnectedComponents(mask, min_area)));
      }
    }
  }
}

TEST(LumaOracleTest, EveryColourMatchesReference) {
  int mismatches = 0;
  for (int r = 0; r < 256; ++r) {
    for (int g = 0; g < 256; ++g) {
      for (int b = 0; b < 256; ++b) {
        const Rgb c{static_cast<uint8_t>(r), static_cast<uint8_t>(g),
                    static_cast<uint8_t>(b)};
        mismatches += Luma(c) != oracle::Luma(c);
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(LumaOracleTest, ToGrayMatchesReference) {
  util::Rng rng(5);
  Image img(37, 23);
  for (Rgb& p : img.pixels()) {
    p = Rgb{static_cast<uint8_t>(rng.Next()), static_cast<uint8_t>(rng.Next()),
            static_cast<uint8_t>(rng.Next())};
  }
  EXPECT_EQ(ToGray(img), oracle::ToGray(img));
  EXPECT_TRUE(ToGray(Image()).empty());
}

}  // namespace
}  // namespace classminer::media
