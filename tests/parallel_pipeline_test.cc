// Determinism guarantee of the pipeline runtime: mining the same video at
// thread_count = 1 and thread_count = N must produce bit-identical
// MiningResults, whether the stage graph runs serially or as a DAG. Every
// parallel loop uses fixed per-index partitioning and serial reductions,
// and stage dependencies mirror the true data flow, so this holds exactly
// (double == double), not just approximately.

#include <gtest/gtest.h>

#include "core/classminer.h"
#include "core/cmv_pipeline.h"
#include "synth/corpus.h"

namespace classminer {
namespace {

void ExpectFeaturesIdentical(const features::ShotFeatures& a,
                             const features::ShotFeatures& b) {
  for (size_t k = 0; k < a.histogram.size(); ++k) {
    ASSERT_EQ(a.histogram[k], b.histogram[k]);
  }
  for (size_t k = 0; k < a.tamura.size(); ++k) {
    ASSERT_EQ(a.tamura[k], b.tamura[k]);
  }
}

void ExpectResultsIdentical(const core::MiningResult& serial,
                            const core::MiningResult& parallel) {
  // Shot detection trace: identical cut positions, differences, thresholds.
  EXPECT_EQ(parallel.shot_trace.cuts, serial.shot_trace.cuts);
  EXPECT_EQ(parallel.shot_trace.differences, serial.shot_trace.differences);
  EXPECT_EQ(parallel.shot_trace.thresholds, serial.shot_trace.thresholds);

  // Shots, including representative frames and raw feature bits.
  ASSERT_EQ(parallel.structure.shots.size(), serial.structure.shots.size());
  for (size_t i = 0; i < serial.structure.shots.size(); ++i) {
    const shot::Shot& s = serial.structure.shots[i];
    const shot::Shot& p = parallel.structure.shots[i];
    EXPECT_EQ(p.start_frame, s.start_frame);
    EXPECT_EQ(p.end_frame, s.end_frame);
    EXPECT_EQ(p.rep_frame, s.rep_frame);
    ExpectFeaturesIdentical(s.features, p.features);
  }

  // Groups.
  ASSERT_EQ(parallel.structure.groups.size(), serial.structure.groups.size());
  for (size_t i = 0; i < serial.structure.groups.size(); ++i) {
    const structure::Group& g = serial.structure.groups[i];
    const structure::Group& h = parallel.structure.groups[i];
    EXPECT_EQ(h.start_shot, g.start_shot);
    EXPECT_EQ(h.end_shot, g.end_shot);
    EXPECT_EQ(h.temporally_related, g.temporally_related);
    EXPECT_EQ(h.rep_shots, g.rep_shots);
  }

  // Scenes.
  ASSERT_EQ(parallel.structure.scenes.size(), serial.structure.scenes.size());
  for (size_t i = 0; i < serial.structure.scenes.size(); ++i) {
    const structure::Scene& s = serial.structure.scenes[i];
    const structure::Scene& p = parallel.structure.scenes[i];
    EXPECT_EQ(p.start_group, s.start_group);
    EXPECT_EQ(p.end_group, s.end_group);
    EXPECT_EQ(p.rep_group, s.rep_group);
    EXPECT_EQ(p.eliminated, s.eliminated);
  }

  // Clustered scenes: identical memberships and centroids.
  ASSERT_EQ(parallel.structure.clustered_scenes.size(),
            serial.structure.clustered_scenes.size());
  for (size_t i = 0; i < serial.structure.clustered_scenes.size(); ++i) {
    EXPECT_EQ(parallel.structure.clustered_scenes[i].scene_indices,
              serial.structure.clustered_scenes[i].scene_indices);
    EXPECT_EQ(parallel.structure.clustered_scenes[i].rep_group,
              serial.structure.clustered_scenes[i].rep_group);
  }

  // Visual cues.
  ASSERT_EQ(parallel.shot_cues.size(), serial.shot_cues.size());
  for (size_t i = 0; i < serial.shot_cues.size(); ++i) {
    const cues::FrameCues& c = serial.shot_cues[i];
    const cues::FrameCues& d = parallel.shot_cues[i];
    EXPECT_EQ(d.special, c.special);
    EXPECT_EQ(d.has_face, c.has_face);
    EXPECT_EQ(d.face_closeup, c.face_closeup);
    EXPECT_EQ(d.max_face_fraction, c.max_face_fraction);
    EXPECT_EQ(d.has_skin_region, c.has_skin_region);
    EXPECT_EQ(d.skin_closeup, c.skin_closeup);
    EXPECT_EQ(d.max_skin_fraction, c.max_skin_fraction);
    EXPECT_EQ(d.has_blood, c.has_blood);
    EXPECT_EQ(d.max_blood_fraction, c.max_blood_fraction);
  }

  // Audio analyses (speech flags, margins, MFCC bits).
  ASSERT_EQ(parallel.shot_audio.size(), serial.shot_audio.size());
  for (size_t i = 0; i < serial.shot_audio.size(); ++i) {
    const audio::ShotAudioAnalysis& a = serial.shot_audio[i];
    const audio::ShotAudioAnalysis& b = parallel.shot_audio[i];
    EXPECT_EQ(b.analyzable, a.analyzable);
    EXPECT_EQ(b.has_speech, a.has_speech);
    EXPECT_EQ(b.speech_margin, a.speech_margin);
    ASSERT_EQ(b.mfcc.rows(), a.mfcc.rows());
    ASSERT_EQ(b.mfcc.cols(), a.mfcc.cols());
    for (size_t r = 0; r < a.mfcc.rows(); ++r) {
      for (size_t c = 0; c < a.mfcc.cols(); ++c) {
        ASSERT_EQ(b.mfcc.at(r, c), a.mfcc.at(r, c));
      }
    }
  }

  // Event labels.
  ASSERT_EQ(parallel.events.size(), serial.events.size());
  for (size_t i = 0; i < serial.events.size(); ++i) {
    EXPECT_EQ(parallel.events[i].scene_index, serial.events[i].scene_index);
    EXPECT_EQ(parallel.events[i].type, serial.events[i].type);
  }
}

TEST(ParallelPipelineTest, MineVideoDeterministicAcrossSchedulesAndThreads) {
  for (const uint64_t seed : {91u, 92u}) {
    const synth::GeneratedVideo g = synth::GenerateVideo(
        synth::QuickScript(seed));

    core::MiningOptions serial_opts;
    serial_opts.thread_count = 1;
    const util::StatusOr<core::MiningResult> serial =
        core::MineVideo(g.video, g.audio, serial_opts);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    for (const int threads : {2, 8}) {
      core::MiningOptions parallel_opts;
      parallel_opts.thread_count = threads;
      const util::StatusOr<core::MiningResult> parallel =
          core::MineVideo(g.video, g.audio, parallel_opts);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      ExpectResultsIdentical(*serial, *parallel);
    }
  }
}

TEST(ParallelPipelineTest, MineCmvFileFastDeterministicAcrossThreadCounts) {
  const synth::GeneratedVideo g =
      synth::GenerateVideo(synth::QuickScript(93));
  const codec::CmvFile file = core::PackGeneratedVideo(g);

  core::MiningOptions serial_opts;
  serial_opts.thread_count = 1;
  util::StatusOr<core::MiningResult> serial =
      core::MineCmvFileFast(file, serial_opts);
  ASSERT_TRUE(serial.ok());

  core::MiningOptions parallel_opts;
  parallel_opts.thread_count = 4;
  util::StatusOr<core::MiningResult> parallel =
      core::MineCmvFileFast(file, parallel_opts);
  ASSERT_TRUE(parallel.ok());
  ExpectResultsIdentical(*serial, *parallel);
}

TEST(ParallelPipelineTest, MetricsRecordEveryStage) {
  const synth::GeneratedVideo g =
      synth::GenerateVideo(synth::QuickScript(94));
  core::MiningOptions options;
  options.thread_count = 2;
  const util::StatusOr<core::MiningResult> mined =
      core::MineVideo(g.video, g.audio, options);
  ASSERT_TRUE(mined.ok());
  const core::MiningResult& result = *mined;

  for (const char* stage :
       {"shot", "audio", "group", "scene", "cluster", "cues", "events"}) {
    const util::StageMetrics* m = result.metrics.Find(stage);
    ASSERT_NE(m, nullptr) << "missing stage " << stage;
    EXPECT_GE(m->wall_ms, 0.0);
    EXPECT_EQ(m->threads, 2);
  }
  EXPECT_GT(result.metrics.TotalMs(), 0.0);
  EXPECT_FALSE(result.metrics.ToString().empty());
  // The registry reports stages in execution order.
  EXPECT_EQ(result.metrics.stages.front().name, "shot");
  EXPECT_EQ(result.metrics.stages.back().name, "events");
}

}  // namespace
}  // namespace classminer
