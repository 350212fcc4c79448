#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "codec/decoder.h"
#include "core/cmv_pipeline.h"
#include "core/metrics.h"
#include "cues/cue_extractor.h"
#include "gop_of_frame.h"
#include "index/database.h"
#include "index/persist.h"
#include "media/draw.h"
#include "media/ppm.h"
#include "mined_output_crc.h"
#include "shot/rep_frame.h"
#include "skim/playback.h"
#include "skim/skimmer.h"
#include "synth/corpus.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/serial.h"

namespace classminer {
namespace {

class CmvPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    generated_ = new synth::GeneratedVideo(
        synth::GenerateVideo(synth::QuickScript(31)));
    codec::EncoderOptions eopts;
    eopts.quality = 6;
    file_ = new codec::CmvFile(core::PackGeneratedVideo(*generated_, eopts));
  }
  static void TearDownTestSuite() {
    delete file_;
    delete generated_;
    file_ = nullptr;
    generated_ = nullptr;
  }

  static synth::GeneratedVideo* generated_;
  static codec::CmvFile* file_;
};

synth::GeneratedVideo* CmvPipelineTest::generated_ = nullptr;
codec::CmvFile* CmvPipelineTest::file_ = nullptr;

TEST_F(CmvPipelineTest, PackEmbedsAudio) {
  EXPECT_EQ(file_->audio_sample_rate, generated_->audio.sample_rate());
  EXPECT_EQ(file_->audio_pcm.size(), generated_->audio.sample_count());
  EXPECT_EQ(file_->frame_count(), generated_->video.frame_count());
}

TEST_F(CmvPipelineTest, MineFromCompressedMatchesTruth) {
  util::StatusOr<core::MiningResult> mined = core::MineCmvFile(*file_);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  const core::CutScore cuts = core::ScoreCuts(
      mined->shot_trace.cuts, generated_->truth.CutPositions());
  EXPECT_GE(cuts.recall, 0.9);
  EXPECT_GE(cuts.precision, 0.9);
  // Events survive the codec round trip.
  core::EventScoreTable table;
  core::AccumulateEventScores(mined->structure, mined->events,
                              generated_->truth, &table);
  core::FinalizeEventScores(&table);
  EXPECT_GE(table.Average().recall, 0.5);
}

TEST_F(CmvPipelineTest, PixelPathIsByteIdenticalAcrossThreadCounts) {
  // The pixel path decodes GOPs in parallel on the mining pool; the stored
  // entry (structure + events) must not depend on the pool size.
  std::vector<uint8_t> stored[2];
  const int thread_counts[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    core::MiningOptions options;
    options.thread_count = thread_counts[k];
    util::StatusOr<core::MiningResult> mined =
        core::MineCmvFile(*file_, options);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    // The decode row leads the table and reports the pool it ran on.
    ASSERT_FALSE(mined->metrics.stages.empty());
    const util::StageMetrics& decode = mined->metrics.stages.front();
    EXPECT_EQ(decode.name, "decode");
    EXPECT_EQ(decode.threads, thread_counts[k]);
    EXPECT_EQ(decode.items, file_->frame_count());
    index::VideoDatabase one;
    one.AddVideo(file_->name, mined->structure, mined->events,
                 mined->degraded);
    stored[k] = index::SerializeDatabase(one);
  }
  EXPECT_FALSE(stored[0].empty());
  EXPECT_EQ(stored[0], stored[1]);
}

TEST_F(CmvPipelineTest, FastPathFindsSameShotCount) {
  util::StatusOr<core::MiningResult> full = core::MineCmvFile(*file_);
  util::StatusOr<core::MiningResult> fast =
      core::MineCmvFileFast(*file_, core::MiningOptions());
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(fast.ok());
  const int d = static_cast<int>(full->structure.shots.size()) -
                static_cast<int>(fast->structure.shots.size());
  EXPECT_LE(std::abs(d), 2) << "pixel vs DC shot counts diverged";
}

TEST_F(CmvPipelineTest, CorruptFileSurfacesError) {
  codec::CmvFile broken = *file_;
  broken.width = 0;
  EXPECT_FALSE(core::MineCmvFile(broken).ok());
}

TEST_F(CmvPipelineTest, FastPathDecodesStrictlyFewerFrames) {
  const std::vector<codec::GopIndexEntry> gops = Gops(*file_);
  ASSERT_GT(gops.size(), 1u) << "corpus must span multiple GOPs";
  util::StatusOr<core::MiningResult> fast =
      core::MineCmvFileFast(*file_, core::MiningOptions());
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  // The planned decode runs each GOP holding a representative frame once,
  // up to its last representative frame: exactly
  // sum(last needed position + 1) frames over the distinct needed GOPs.
  std::map<int, int> last_needed;  // GOP -> last needed position in it
  for (const shot::Shot& s : fast->structure.shots) {
    const int gop = GopOfFrame(*file_, s.rep_frame);
    ASSERT_GE(gop, 0);
    const int position =
        s.rep_frame - gops[static_cast<size_t>(gop)].start_frame;
    int& last = last_needed[gop];
    last = std::max(last, position);
  }
  int64_t planned_frames = 0;
  for (const auto& [gop, last] : last_needed) planned_frames += last + 1;

  const util::StageMetrics* decode = fast->metrics.Find("decode");
  ASSERT_NE(decode, nullptr);
  EXPECT_EQ(decode->items, planned_frames);
  EXPECT_EQ(decode->Counter("gops"),
            static_cast<int64_t>(last_needed.size()));
  EXPECT_EQ(decode->Counter("failed_gops"), -1);
  EXPECT_LT(decode->items, file_->frame_count());
  // decode is a real stage that directly follows shot.
  const std::vector<util::StageMetrics>& stages = fast->metrics.stages;
  ASSERT_GE(stages.size(), 2u);
  EXPECT_EQ(stages[0].name, "shot");
  EXPECT_EQ(stages[1].name, "decode");
}

TEST_F(CmvPipelineTest, FastPathBitIdenticalToFullDecodeReference) {
  // Reference: the same DC-domain shot spans, but with representative
  // frames and cues computed from a complete DecodeVideo pass. Selective
  // GOP decoding must reproduce this exactly (same decode core, GOPs are
  // self-contained), at any thread count.
  util::StatusOr<media::Video> video = codec::DecodeVideo(*file_);
  ASSERT_TRUE(video.ok());
  util::StatusOr<std::vector<media::GrayImage>> dc =
      codec::DecodeDcImages(*file_);
  ASSERT_TRUE(dc.ok());
  const core::MiningOptions ref_options;
  std::vector<shot::Shot> ref_shots =
      shot::DetectShotsFromDc(*dc, ref_options.shot);
  shot::PopulateRepresentativeFrames(*video, &ref_shots);
  std::vector<cues::FrameCues> ref_cues;
  for (const media::Image* image :
       shot::RepresentativeImages(*video, ref_shots)) {
    ref_cues.push_back(cues::ExtractFrameCues(*image));
  }

  for (const int threads : {1, 4}) {
    core::MiningOptions options;
    options.thread_count = threads;
    util::StatusOr<core::MiningResult> fast =
        core::MineCmvFileFast(*file_, options);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    SCOPED_TRACE("threads " + std::to_string(threads));

    ASSERT_EQ(fast->structure.shots.size(), ref_shots.size());
    for (size_t i = 0; i < ref_shots.size(); ++i) {
      const shot::Shot& r = ref_shots[i];
      const shot::Shot& f = fast->structure.shots[i];
      EXPECT_EQ(f.start_frame, r.start_frame);
      EXPECT_EQ(f.end_frame, r.end_frame);
      EXPECT_EQ(f.rep_frame, r.rep_frame);
      for (size_t k = 0; k < r.features.histogram.size(); ++k) {
        ASSERT_EQ(f.features.histogram[k], r.features.histogram[k]);
      }
      for (size_t k = 0; k < r.features.tamura.size(); ++k) {
        ASSERT_EQ(f.features.tamura[k], r.features.tamura[k]);
      }
    }

    ASSERT_EQ(fast->shot_cues.size(), ref_cues.size());
    for (size_t i = 0; i < ref_cues.size(); ++i) {
      const cues::FrameCues& r = ref_cues[i];
      const cues::FrameCues& f = fast->shot_cues[i];
      EXPECT_EQ(f.special, r.special);
      EXPECT_EQ(f.has_face, r.has_face);
      EXPECT_EQ(f.face_closeup, r.face_closeup);
      EXPECT_EQ(f.max_face_fraction, r.max_face_fraction);
      EXPECT_EQ(f.has_skin_region, r.has_skin_region);
      EXPECT_EQ(f.skin_closeup, r.skin_closeup);
      EXPECT_EQ(f.max_skin_fraction, r.max_skin_fraction);
      EXPECT_EQ(f.has_blood, r.has_blood);
      EXPECT_EQ(f.max_blood_fraction, r.max_blood_fraction);
    }
  }
}

// The content structure as stored bytes: every shot span, feature bit,
// group, scene and cluster.
std::vector<uint8_t> StructureBytes(const core::MiningResult& mined) {
  index::VideoDatabase one;
  one.AddVideo("v", mined.structure, {}, false);
  return index::SerializeDatabase(one);
}

std::vector<std::string> StageNames(const core::MiningResult& mined) {
  std::vector<std::string> names;
  for (const util::StageMetrics& row : mined.metrics.stages) {
    names.push_back(row.name);
  }
  return names;
}

// A structure-only run drops exactly the audio, cues and events stages:
// its structure and shot trace are the full run's, bit for bit.
void ExpectStructureOnlyMatches(const core::MiningResult& full,
                                const core::MiningResult& lean) {
  EXPECT_EQ(StructureBytes(lean), StructureBytes(full));
  EXPECT_EQ(lean.shot_trace.cuts, full.shot_trace.cuts);
  EXPECT_EQ(lean.shot_trace.differences, full.shot_trace.differences);
  EXPECT_EQ(lean.shot_trace.thresholds, full.shot_trace.thresholds);
  EXPECT_FALSE(full.events.empty());
  EXPECT_TRUE(lean.shot_audio.empty());
  EXPECT_TRUE(lean.shot_cues.empty());
  EXPECT_TRUE(lean.events.empty());
  EXPECT_FALSE(lean.degraded);
  EXPECT_TRUE(lean.stage_failures.empty());
}

TEST_F(CmvPipelineTest, StructureOnlyMatchesTheFullRunOnEveryEntryPoint) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    core::MiningOptions full_options;
    full_options.thread_count = threads;
    core::MiningOptions lean_options = full_options;
    lean_options.structure_only = true;

    util::StatusOr<core::MiningResult> full =
        core::MineCmvFile(*file_, full_options);
    util::StatusOr<core::MiningResult> lean =
        core::MineCmvFile(*file_, lean_options);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(lean.ok()) << lean.status().ToString();
    ExpectStructureOnlyMatches(*full, *lean);
    EXPECT_EQ(StageNames(*lean),
              (std::vector<std::string>{"decode", "shot", "group", "scene",
                                        "cluster"}));

    full = core::MineCmvFileFast(*file_, full_options);
    lean = core::MineCmvFileFast(*file_, lean_options);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(lean.ok()) << lean.status().ToString();
    ExpectStructureOnlyMatches(*full, *lean);
    EXPECT_EQ(StageNames(*lean),
              (std::vector<std::string>{"shot", "decode", "repframe",
                                        "group", "scene", "cluster"}));

    full = core::MineVideo(generated_->video, generated_->audio,
                           full_options);
    lean = core::MineVideo(generated_->video, generated_->audio,
                           lean_options);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(lean.ok()) << lean.status().ToString();
    ExpectStructureOnlyMatches(*full, *lean);
    EXPECT_EQ(StageNames(*lean),
              (std::vector<std::string>{"shot", "group", "scene",
                                        "cluster"}));
  }
}

// Golden checksums of the fixture clip's mined output on both CMV entry
// points, full and structure-only. They pin mining results across
// refactors of the stage graph, thread counts and SIMD dispatch levels.
TEST_F(CmvPipelineTest, GoldenMiningOutputIsStableAcrossPathsAndThreads) {
  struct Golden {
    bool fast;
    bool structure_only;
    uint32_t crc;
  };
  const Golden goldens[] = {
      {false, false, 0xf322b48du},
      {false, true, 0xe24698aau},
      {true, false, 0x8ce032a0u},
      {true, true, 0xc87e79ddu},
  };
  for (const Golden& golden : goldens) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(golden.fast ? "fast" : "pixel") +
                   (golden.structure_only ? " structure-only" : " full") +
                   " threads " + std::to_string(threads));
      core::MiningOptions options;
      options.thread_count = threads;
      options.structure_only = golden.structure_only;
      util::StatusOr<core::MiningResult> mined =
          golden.fast ? core::MineCmvFileFast(*file_, options)
                      : core::MineCmvFile(*file_, options);
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      const uint32_t crc = MinedOutputCrc(*mined);
      EXPECT_EQ(crc, golden.crc) << std::hex << "0x" << crc;
      if (golden.fast && !golden.structure_only) {
        EXPECT_EQ(StageNames(*mined),
                  (std::vector<std::string>{"shot", "decode", "repframe",
                                            "audio", "group", "scene",
                                            "cluster", "cues", "events"}));
      }
    }
  }
}

TEST_F(CmvPipelineTest, StructureOnlyRunIsNotDegradedByAFailingAudioStage) {
  const util::FailPoint::Scoped audio_fails(
      "core.stage.audio", util::FailPoint::Spec::Always());
  core::MiningOptions options;
  options.failure_policy = core::FailurePolicy::kDegraded;
  util::StatusOr<core::MiningResult> full = core::MineCmvFile(*file_, options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_TRUE(full->degraded);
  ASSERT_EQ(full->stage_failures.size(), 1u);
  EXPECT_EQ(full->stage_failures[0].stage, "audio");

  options.structure_only = true;
  for (const bool fast : {false, true}) {
    SCOPED_TRACE(fast ? "fast" : "pixel");
    util::StatusOr<core::MiningResult> lean =
        fast ? core::MineCmvFileFast(*file_, options)
             : core::MineCmvFile(*file_, options);
    ASSERT_TRUE(lean.ok()) << lean.status().ToString();
    EXPECT_FALSE(lean->degraded);
    EXPECT_TRUE(lean->stage_failures.empty());
    EXPECT_EQ(lean->metrics.Find("audio"), nullptr);
  }
}

TEST(PpmTest, RoundTrip) {
  util::Rng rng(9);
  media::Image img(17, 11);
  media::AddNoise(&img, 255, &rng);
  const std::string path = ::testing::TempDir() + "/round.ppm";
  ASSERT_TRUE(media::WritePpm(img, path).ok());
  util::StatusOr<media::Image> back = media::ReadPpm(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, img);
}

TEST(PpmTest, GrayExport) {
  media::GrayImage gray(4, 4, 128);
  const std::string path = ::testing::TempDir() + "/gray.ppm";
  ASSERT_TRUE(media::WritePpm(gray, path).ok());
  util::StatusOr<media::Image> back = media::ReadPpm(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->at(2, 2), (media::Rgb{128, 128, 128}));
}

TEST(PpmTest, RejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.ppm";
  ASSERT_TRUE(util::WriteFile(path, {'X', 'Y', 'Z'}).ok());
  EXPECT_FALSE(media::ReadPpm(path).ok());
}

TEST(PlaybackTest, PlanMatchesSkimTrack) {
  const synth::GeneratedVideo g =
      synth::GenerateVideo(synth::QuickScript(32));
  util::StatusOr<core::MiningResult> mined =
      core::MineVideo(g.video, g.audio);
  ASSERT_TRUE(mined.ok());
  const skim::ScalableSkim sk(&mined->structure);
  const double fps = g.video.fps();

  const auto plan1 = skim::BuildPlaybackPlan(sk, 1, fps);
  EXPECT_EQ(plan1.size(), mined->structure.shots.size());
  // Level 1 plays everything: duration equals the full video.
  EXPECT_NEAR(skim::PlanDurationSeconds(plan1), g.video.DurationSeconds(),
              0.2);

  const auto plan3 = skim::BuildPlaybackPlan(sk, 3, fps);
  EXPECT_LT(skim::PlanDurationSeconds(plan3),
            skim::PlanDurationSeconds(plan1));
  // Segments are ordered and non-overlapping.
  for (size_t i = 1; i < plan3.size(); ++i) {
    EXPECT_GE(plan3[i].start_sec, plan3[i - 1].end_sec - 1e-9);
  }
}

TEST(PlaybackTest, LevelSwitchResumesForward) {
  const synth::GeneratedVideo g =
      synth::GenerateVideo(synth::QuickScript(33));
  util::StatusOr<core::MiningResult> mined =
      core::MineVideo(g.video, g.audio);
  ASSERT_TRUE(mined.ok());
  const skim::ScalableSkim sk(&mined->structure);
  const auto plan = skim::BuildPlaybackPlan(sk, 2, g.video.fps());
  ASSERT_GE(plan.size(), 2u);
  // Resuming from before everything lands on segment 0; from mid-video it
  // lands on a segment ending after the position.
  EXPECT_EQ(skim::ResumeIndexAfterSwitch(plan, 0.0), 0u);
  const double mid = g.video.DurationSeconds() / 2.0;
  const size_t idx = skim::ResumeIndexAfterSwitch(plan, mid);
  EXPECT_GT(plan[idx].end_sec, mid);
  // Past the end: clamps to the final segment.
  EXPECT_EQ(skim::ResumeIndexAfterSwitch(plan, 1e9),
            plan.size() - 1);
}

}  // namespace
}  // namespace classminer
