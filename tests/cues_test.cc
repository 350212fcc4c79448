#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "core/classminer.h"
#include "cues/blood.h"
#include "cues/cue_extractor.h"
#include "cues/face.h"
#include "cues/skin.h"
#include "cues/special_frames.h"
#include "features/similarity.h"
#include "media/color.h"
#include "image_oracle.h"
#include "media/draw.h"
#include "shot/detector.h"
#include "shot/rep_frame.h"
#include "synth/corpus.h"
#include "util/cpu.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace classminer::cues {
namespace {

media::Image NaturalFrame(uint64_t seed, media::Rgb base = {90, 110, 140}) {
  util::Rng rng(seed);
  media::Image img(96, 72);
  media::FillGradient(&img, base,
                      media::Rgb{static_cast<uint8_t>(base.r / 2),
                                 static_cast<uint8_t>(base.g / 2),
                                 static_cast<uint8_t>(base.b / 2)});
  media::AddNoise(&img, 5, &rng);
  return img;
}

media::Image SlideFrame(uint64_t seed) {
  util::Rng rng(seed);
  media::Image img(96, 72, media::Rgb{235, 232, 224});
  media::FillRect(&img, 0, 0, 96, 9, media::Rgb{60, 90, 180});
  for (int i = 0; i < 5; ++i) {
    media::DrawTextLine(&img, 10, 18 + i * 8, 70, 2, media::Rgb{40, 40, 48},
                        &rng);
  }
  return img;
}

media::Image FaceFrame(uint64_t seed, double scale = 1.0) {
  util::Rng rng(seed);
  media::Image img(96, 72);
  media::FillGradient(&img, media::Rgb{70, 90, 130}, media::Rgb{30, 40, 60});
  const media::Rgb skin{205, 150, 120};
  const int cx = 48, cy = 30;
  const int rx = static_cast<int>(23 * scale), ry = static_cast<int>(23 * scale);
  media::FillEllipse(&img, cx, cy, rx, ry, skin);
  // Eyes and mouth.
  media::FillEllipse(&img, cx - 9, cy - 4, 4, 2, media::Rgb{30, 26, 24});
  media::FillEllipse(&img, cx + 9, cy - 4, 4, 2, media::Rgb{30, 26, 24});
  media::FillRect(&img, cx - 8, cy + 12, 16, 3, media::Rgb{95, 42, 42});
  media::AddNoise(&img, 4, &rng);
  return img;
}

TEST(SpecialFrameTest, BlackFrame) {
  util::Rng rng(1);
  media::Image img(96, 72, media::Rgb{8, 8, 10});
  media::AddNoise(&img, 3, &rng);
  EXPECT_EQ(ClassifySpecialFrame(img), SpecialFrameType::kBlack);
}

TEST(SpecialFrameTest, SlideDetected) {
  EXPECT_EQ(ClassifySpecialFrame(SlideFrame(2)), SpecialFrameType::kSlide);
}

TEST(SpecialFrameTest, NaturalFrameIsNone) {
  EXPECT_EQ(ClassifySpecialFrame(NaturalFrame(3)), SpecialFrameType::kNone);
  EXPECT_EQ(ClassifySpecialFrame(FaceFrame(4)), SpecialFrameType::kNone);
}

// A line drawing on a bright background: an outline and two strokes.
media::Image SketchFrame() {
  media::Image img(96, 72, media::Rgb{248, 248, 246});
  const media::Rgb line{50, 50, 54};
  media::FillEllipse(&img, 48, 36, 28, 20, line);
  media::FillEllipse(&img, 48, 36, 26, 18, media::Rgb{248, 248, 246});
  media::DrawHLine(&img, 70, 92, 20, line);
  media::DrawHLine(&img, 70, 92, 32, line);
  return img;
}

TEST(SpecialFrameTest, SketchDetected) {
  EXPECT_EQ(ClassifySpecialFrame(SketchFrame()), SpecialFrameType::kSketch);
}

TEST(SpecialFrameTest, ClipArtDetected) {
  media::Image img(96, 72, media::Rgb{240, 240, 236});
  media::FillRect(&img, 10, 10, 25, 16, media::Rgb{200, 90, 40});
  media::FillRect(&img, 55, 40, 25, 16, media::Rgb{60, 140, 200});
  media::DrawHLine(&img, 22, 67, 33, media::Rgb{40, 40, 48});
  const SpecialFrameType type = ClassifySpecialFrame(img);
  EXPECT_TRUE(type == SpecialFrameType::kClipArt ||
              type == SpecialFrameType::kSlide)
      << SpecialFrameTypeName(type);
}

TEST(SpecialFrameTest, StatsSaneOnNatural) {
  const FrameStats s = ComputeFrameStats(NaturalFrame(5));
  EXPECT_GT(s.noise_level, 1.0);
  EXPECT_LT(s.flat_fraction, 0.5);
  EXPECT_GT(s.mean_luma, 20.0);
}

TEST(SkinTest, DetectsLargeSkinRegion) {
  util::Rng rng(6);
  media::Image img(96, 72);
  media::FillGradient(&img, media::Rgb{60, 70, 90}, media::Rgb{30, 35, 45});
  media::FillEllipse(&img, 48, 36, 40, 28, media::Rgb{205, 150, 120});
  media::AddNoise(&img, 4, &rng);
  const SkinDetection det = DetectSkin(img);
  ASSERT_FALSE(det.regions.empty());
  EXPECT_GT(det.max_region_fraction, 0.2);
}

TEST(SkinTest, RejectsNonSkinColours) {
  EXPECT_TRUE(DetectSkin(NaturalFrame(7)).regions.empty());
  // Saturated green frame.
  util::Rng rng(8);
  media::Image img(96, 72, media::Rgb{40, 200, 60});
  media::AddNoise(&img, 4, &rng);
  EXPECT_TRUE(DetectSkin(img).regions.empty());
}

TEST(SkinDeathTest, GreyOfAnotherSizeAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const media::Image img = FaceFrame(13);
  const media::GrayImage small(img.width() - 1, img.height());
  const media::GrayImage short_gray(img.width(), img.height() - 1);
  EXPECT_DEATH(DetectSkin(img, small, DefaultSkinModel(), {}), "size");
  EXPECT_DEATH(DetectBlood(img, short_gray), "size");
  const features::ColorHistogram hist = features::ComputeColorHistogram(img);
  EXPECT_DEATH(ComputeFrameStats(img, small, hist), "size");
  EXPECT_DEATH(ClassifySpecialFrame(img, short_gray, hist, {}), "size");
}

TEST(SkinTest, ModelAcceptsSkinRejectsBlood) {
  const ChromaGaussian skin = DefaultSkinModel();
  EXPECT_TRUE(skin.Accepts(media::Rgb{205, 150, 120}));
  EXPECT_TRUE(skin.Accepts(media::Rgb{190, 140, 110}));
  EXPECT_FALSE(skin.Accepts(media::Rgb{140, 45, 40}));   // blood
  EXPECT_FALSE(skin.Accepts(media::Rgb{128, 128, 128}));  // grey
}

TEST(BloodTest, ModelAcceptsBloodRejectsSkin) {
  const ChromaGaussian blood = DefaultBloodModel();
  EXPECT_TRUE(blood.Accepts(media::Rgb{140, 45, 40}));
  EXPECT_FALSE(blood.Accepts(media::Rgb{205, 150, 120}));
}

TEST(BloodTest, DetectsBloodBlob) {
  util::Rng rng(9);
  media::Image img(96, 72, media::Rgb{205, 150, 120});  // tissue field
  media::FillEllipse(&img, 48, 36, 20, 14, media::Rgb{140, 45, 40});
  media::AddNoise(&img, 4, &rng);
  const SkinDetection det = DetectBlood(img);
  ASSERT_FALSE(det.regions.empty());
  EXPECT_GT(det.max_region_fraction, 0.05);
}

TEST(FaceTest, DetectsSyntheticFace) {
  const FaceDetection det = DetectFaces(FaceFrame(10));
  ASSERT_TRUE(det.has_face);
  EXPECT_TRUE(det.has_closeup);
  EXPECT_GT(det.max_face_fraction, 0.10);
}

TEST(FaceTest, SkinBlobWithoutFeaturesRejected) {
  // A featureless skin ellipse (no eyes/mouth) must fail verification.
  util::Rng rng(11);
  media::Image img(96, 72);
  media::FillGradient(&img, media::Rgb{70, 90, 130}, media::Rgb{30, 40, 60});
  media::FillEllipse(&img, 48, 30, 23, 23, media::Rgb{205, 150, 120});
  media::AddNoise(&img, 4, &rng);
  EXPECT_FALSE(DetectFaces(img).has_face);
}

TEST(FaceTest, ProfileScoreHigherWithFeatures) {
  const media::Image with = FaceFrame(12);
  const FaceDetection det = DetectFaces(with);
  ASSERT_TRUE(det.has_face);
  EXPECT_GT(det.faces[0].profile_score, 0.3);
}

TEST(CueExtractorTest, SlideShortCircuitsRegions) {
  const FrameCues cues = ExtractFrameCues(SlideFrame(13));
  EXPECT_EQ(cues.special, SpecialFrameType::kSlide);
  EXPECT_FALSE(cues.has_face);
  EXPECT_FALSE(cues.has_skin_region);
  EXPECT_TRUE(cues.IsSlideOrClipArt());
}

// A man-made frame the compressed-render route cannot take: saturated
// shapes (and, with text, light text lines) on a dark background keep its
// mean luma below that route's 160, so only the palette ("pristine")
// route, which reads the colour histogram, classifies it.
media::Image DarkRenderFrame(bool text) {
  util::Rng rng(5);
  media::Image img(96, 72, media::Rgb{24, 34, 88});
  if (text) {
    for (int i = 0; i < 5; ++i) {
      media::DrawTextLine(&img, 10, 14 + i * 10, 70, 2,
                          media::Rgb{230, 230, 236}, &rng);
    }
  } else {
    media::FillRect(&img, 10, 10, 30, 20, media::Rgb{220, 60, 40});
    media::FillEllipse(&img, 66, 46, 16, 12, media::Rgb{240, 200, 40});
  }
  return img;
}

// Red across, green down: a natural frame whose colours spread over many
// histogram bins, none of them dominant.
media::Image ColourSweepFrame() {
  util::Rng rng(9);
  media::Image img(96, 72);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      img.set(x, y, media::Rgb{static_cast<uint8_t>(x * 255 / 95),
                               static_cast<uint8_t>(y * 255 / 71), 110});
    }
  }
  media::AddNoise(&img, 5, &rng);
  return img;
}

// The mining pipeline hands the cue stage each shot's stored colour
// histogram; its cues must equal those of the frame alone. The colour
// sweep comes first, so a stage that gave every shot shot 0's histogram
// (or an empty one) would move the rendered shots off the palette route.
TEST(CueExtractorTest, MinedCuesMatchTheFrameAlone) {
  media::Video video("renders", 10.0);
  const std::vector<media::Image> shots = {
      ColourSweepFrame(), DarkRenderFrame(false), SketchFrame(),
      DarkRenderFrame(true), FaceFrame(6), SlideFrame(4)};
  for (const media::Image& frame : shots) {
    for (int i = 0; i < 30; ++i) video.AppendFrame(frame);
  }
  for (const int threads : {1, 4}) {
    core::MiningOptions options;
    options.thread_count = threads;
    util::StatusOr<core::MiningResult> mined =
        core::MineVideo(video, audio::AudioBuffer(), options);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    const std::vector<shot::Shot>& mined_shots = mined->structure.shots;
    ASSERT_EQ(mined_shots.size(), shots.size());
    ASSERT_EQ(mined->shot_cues.size(), shots.size());
    for (size_t i = 0; i < shots.size(); ++i) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " shot " +
                   std::to_string(i));
      const FrameCues alone =
          ExtractFrameCues(video.frame(mined_shots[i].rep_frame));
      EXPECT_TRUE(oracle::SameCues(mined->shot_cues[i], alone));
    }
    EXPECT_EQ(mined->shot_cues[1].special, SpecialFrameType::kClipArt);
    EXPECT_EQ(mined->shot_cues[2].special, SpecialFrameType::kSketch);
    EXPECT_EQ(mined->shot_cues[3].special, SpecialFrameType::kSlide);
  }
}

TEST(CueExtractorTest, FaceFrameCues) {
  const FrameCues cues = ExtractFrameCues(FaceFrame(14));
  EXPECT_EQ(cues.special, SpecialFrameType::kNone);
  EXPECT_TRUE(cues.has_face);
  EXPECT_TRUE(cues.face_closeup);
  EXPECT_TRUE(cues.has_skin_region);
}

TEST(CueExtractorTest, SkinCloseupFlag) {
  util::Rng rng(15);
  media::Image img(96, 72);
  media::FillGradient(&img, media::Rgb{60, 70, 90}, media::Rgb{30, 35, 45});
  media::FillEllipse(&img, 48, 36, 40, 28, media::Rgb{205, 150, 120});
  media::AddNoise(&img, 4, &rng);
  const FrameCues cues = ExtractFrameCues(img);
  EXPECT_TRUE(cues.skin_closeup);
  EXPECT_GE(cues.max_skin_fraction, 0.20);
}

// ---------------------------------------------------------------------------
// The one-grey, one-skin-pass cue extractor against the two-skin-pass one
// it replaced, with every kernel underneath it (morphology, labelling,
// luma, frame statistics) also the old loop (tests/image_oracle.h).

struct OracleFrame {
  std::string name;
  media::Image image;
};

// Every representative frame of the five-title corpus at scale 0.25, as
// rendered and after a CMV encode/decode round trip of the sequence of
// representative frames (compression artefacts like the CMV mining paths
// see), plus this file's synthetic frames.
std::vector<OracleFrame> OracleFrames() {
  std::vector<OracleFrame> out;
  synth::CorpusOptions copts;
  copts.scale = 0.25;
  media::Video reps("reps", copts.fps);
  int title = 0;
  for (const synth::GeneratedVideo& g : synth::GenerateMedicalCorpus(copts)) {
    for (const shot::Shot& s : shot::DetectShots(g.video)) {
      out.push_back({"title " + std::to_string(title) + " frame " +
                         std::to_string(s.rep_frame),
                     g.video.frame(s.rep_frame)});
      reps.AppendFrame(g.video.frame(s.rep_frame));
    }
    ++title;
  }
  util::StatusOr<media::Video> decoded =
      codec::DecodeVideo(codec::EncodeVideo(reps, {}));
  if (decoded.ok()) {
    for (int i = 0; i < decoded->frame_count(); ++i) {
      out.push_back({out[static_cast<size_t>(i)].name + " (decoded)",
                     decoded->frame(i)});
    }
  }
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    out.push_back({"natural", NaturalFrame(seed)});
    out.push_back({"slide", SlideFrame(seed)});
    out.push_back({"face", FaceFrame(seed)});
    out.push_back({"face closeup", FaceFrame(seed, 1.4)});
    // Skin and blood tones under heavy noise, at odd sizes: the texture
    // filter decides pixel by pixel, up to the frame border.
    util::Rng rng(seed);
    for (const media::Rgb tone : {media::Rgb{205, 150, 120},
                                  media::Rgb{150, 40, 35}}) {
      media::Image textured(37 + 2 * static_cast<int>(seed), 23, tone);
      media::AddNoise(&textured, 12 * static_cast<int>(seed), &rng);
      out.push_back({"textured", textured});
    }
  }
  // Smooth colour sweeps across the skin and the blood gate: blue runs
  // over all 256 values along each row, so many colours share their red
  // and green and differ only in blue, and every row crosses the gate.
  for (const int blood : {0, 1}) {
    media::Image sweep(256, 96);
    for (int y = 0; y < sweep.height(); ++y) {
      const int r = 120 + y;
      const int g = blood ? r / 4 + y % 10 : r * 7 / 10 - 10 + y % 20;
      for (int x = 0; x < sweep.width(); ++x) {
        sweep.set(x, y, media::Rgb{static_cast<uint8_t>(r),
                                   static_cast<uint8_t>(g),
                                   static_cast<uint8_t>(x)});
      }
    }
    out.push_back({blood ? "blood sweep" : "skin sweep", sweep});
  }
  return out;
}

TEST(CueOracleTest, CorpusFramesMatchTwoSkinPassReference) {
  const std::vector<OracleFrame> frames = OracleFrames();
  ASSERT_GT(frames.size(), 150u);  // 2 x 82 corpus frames + 20 synthetic
  // The references are computed once: the only dispatched kernel they
  // reach, the colour histogram, is exact at every level (kernels_test).
  struct Reference {
    FrameCues cues;
    FrameStats stats;
    SkinDetection skin, blood;
    FaceDetection faces;
  };
  std::vector<Reference> refs;
  int with_skin = 0;
  for (const OracleFrame& f : frames) {
    refs.push_back({oracle::ExtractFrameCues(f.image, {}),
                    oracle::ComputeFrameStats(f.image),
                    oracle::DetectSkin(f.image), oracle::DetectBlood(f.image),
                    oracle::DetectFaces(f.image, {})});
    with_skin += refs.back().cues.has_skin_region;
  }
  // The corpus must exercise the region paths, not only the special-frame
  // short cut.
  EXPECT_GT(with_skin, 0);

  for (const util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ASSERT_TRUE(util::SetDispatchLevelForTest(level));
    for (size_t i = 0; i < frames.size(); ++i) {
      const media::Image& image = frames[i].image;
      const Reference& ref = refs[i];
      SCOPED_TRACE(std::string(util::DispatchLevelName(level)) + " " +
                   frames[i].name);
      EXPECT_TRUE(oracle::SameCues(ExtractFrameCues(image), ref.cues));
      // The mining path's form, with the histogram the shot features hold.
      EXPECT_TRUE(oracle::SameCues(
          ExtractFrameCues(image,
                           features::ExtractShotFeatures(image).histogram,
                           {}),
          ref.cues));
      EXPECT_TRUE(oracle::SameStats(ComputeFrameStats(image), ref.stats));
      EXPECT_TRUE(oracle::SameDetection(DetectSkin(image), ref.skin));
      EXPECT_TRUE(oracle::SameDetection(DetectBlood(image), ref.blood));
      EXPECT_TRUE(oracle::SameFaces(DetectFaces(image), ref.faces));
    }
  }
  util::ClearDispatchLevelForTest();
}

// A golden CRC-32 over every field of ComputeFrameStats for the oracle
// frame set plus a sketch. The mining goldens (cmv_pipeline_test) cannot
// see edge_density, noise_level or flat_fraction: no frame of their clip
// reaches the pristine-render or sketch routes that read them. The
// corpus's rendered slides and clip art take the pristine route; no corpus
// frame classifies as a sketch, so the line drawing above is added. The
// test checks that both routes are still reached.
uint32_t CrcBytes(const void* data, size_t size, uint32_t crc) {
  return util::Crc32(static_cast<const uint8_t*>(data), size, crc);
}

uint32_t StatsCrc(const FrameStats& s, uint32_t crc) {
  for (const double v : {s.mean_luma, s.luma_stddev, s.dominant_color,
                         s.mean_saturation, s.saturated_fraction,
                         s.edge_density, s.noise_level, s.flat_fraction,
                         s.luma_entropy, s.text_row_score}) {
    crc = CrcBytes(&v, sizeof v, crc);
  }
  return CrcBytes(&s.distinct_colors, sizeof s.distinct_colors, crc);
}

TEST(FrameStatsGoldenTest, OracleFramesStatsAreStable) {
  constexpr uint32_t kGolden = 0xa4f413d0;
  std::vector<OracleFrame> frames = OracleFrames();
  frames.push_back({"sketch", SketchFrame()});
  const SpecialFrameOptions options;
  int pristine = 0, sketch = 0;
  for (const OracleFrame& f : frames) {
    const FrameStats s = ComputeFrameStats(f.image);
    pristine += s.flat_fraction > options.manmade_min_flat &&
                s.luma_entropy < options.manmade_max_luma_entropy &&
                s.distinct_colors <= options.manmade_max_colors &&
                s.dominant_color > 0.30;
    sketch += ClassifySpecialFrame(f.image) == SpecialFrameType::kSketch;
  }
  EXPECT_GT(pristine, 0);
  EXPECT_GT(sketch, 0);

  for (const util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ASSERT_TRUE(util::SetDispatchLevelForTest(level));
    uint32_t crc = 0;
    for (const OracleFrame& f : frames) {
      crc = StatsCrc(ComputeFrameStats(f.image), crc);
    }
    EXPECT_EQ(crc, kGolden) << util::DispatchLevelName(level) << " 0x"
                            << std::hex << crc;
  }
  util::ClearDispatchLevelForTest();
}


}  // namespace
}  // namespace classminer::cues
