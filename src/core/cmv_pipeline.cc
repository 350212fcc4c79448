#include "core/cmv_pipeline.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/gop_reader.h"
#include "core/pipeline_dag.h"
#include "shot/rep_frame.h"
#include "util/arena.h"
#include "util/threadpool.h"

namespace classminer::core {
namespace {

// The container's PCM track; empty when there is none or the run mines no
// audio (MiningOptions::structure_only).
audio::AudioBuffer AudioFromFile(const codec::CmvFile& file,
                                 const MiningOptions& options) {
  if (options.structure_only || file.audio_sample_rate <= 0) {
    return audio::AudioBuffer();
  }
  return audio::AudioBuffer(file.audio_sample_rate, file.audio_pcm);
}

}  // namespace

codec::CmvFile PackGeneratedVideo(const synth::GeneratedVideo& generated,
                                  const codec::EncoderOptions& options) {
  codec::CmvFile file = codec::EncodeVideo(generated.video, options);
  file.audio_sample_rate = generated.audio.sample_rate();
  file.audio_pcm = generated.audio.samples();
  return file;
}

codec::CmvFile PackGeneratedVideo(const synth::GeneratedVideo& generated) {
  return PackGeneratedVideo(generated, codec::EncoderOptions());
}

util::StatusOr<MiningResult> MineCmvFile(const codec::CmvFile& file,
                                         const MiningOptions& options) {
  // One pool per mine: the GOP-parallel decode and then every mining stage
  // run on it.
  const std::unique_ptr<util::ThreadPool> pool =
      internal::MakePipelinePool(options.thread_count);
  util::StatusSink sink;
  const util::ExecutionContext ctx(pool.get(), nullptr, options.cancel,
                                   &sink);
  MiningResult result;
  util::StatusOr<media::Video> video = [&] {
    // Decode leads the stage table so the CLI/bench see the whole cost.
    util::StageTimer timer(&result.metrics, "decode", ctx.thread_count());
    auto decoded = codec::DecodeVideo(file, ctx);
    timer.set_items(file.frame_count());
    return decoded;
  }();
  if (!video.ok()) return video.status();
  CLASSMINER_RETURN_IF_ERROR(
      MineVideoInto(*video, AudioFromFile(file, options), options, ctx,
                    &result));
  return result;
}

util::StatusOr<MiningResult> MineCmvFile(const codec::CmvFile& file) {
  return MineCmvFile(file, MiningOptions());
}

util::StatusOr<MiningResult> MineCmvFileFast(const codec::CmvFile& file,
                                             const MiningOptions& options) {
  MiningResult result;
  const bool degraded_mode =
      options.failure_policy == FailurePolicy::kDegraded;
  const std::unique_ptr<util::ThreadPool> pool =
      internal::MakePipelinePool(options.thread_count);
  util::StatusSink sink;
  // Per-run bump arena, threaded through the context like the pool: stages
  // draw transient scratch from it and everything they keep is copied into
  // `result`, so the arena dies with this call.
  util::Arena run_arena;
  const util::ExecutionContext ctx =
      util::ExecutionContext(pool.get(), &result.metrics, options.cancel,
                             &sink)
          .WithArena(&run_arena);

  const audio::AudioBuffer track = AudioFromFile(file, options);

  // Fast-path stage graph: shot spans come from the compressed domain (DC
  // images, no pixel decode). Once they exist, the frames the run needs are
  // known — one representative frame per shot (paper Sec. 3) — so decode
  // plans one batch: each GOP holding a representative frame decodes once,
  // only up to its last needed frame. repframe and cues then read the
  // decoded images directly, and events joins everything:
  //
  //   shot ──> decode ──> repframe ─┬─> audio ─────┐
  //                                 ├─> structure ─┼─> events
  //                                 └─> cues ──────┘
  //
  // A structure-only run stops at structure (no audio, cues or events).
  //
  // Resident decoded frames are one image per shot. Fallible stages record
  // their status into the sink and dependent stages are skipped.
  codec::FrameBatch rep_batch;
  // Shot i's representative image in rep_batch, or null when it has none.
  std::vector<const media::Image*> rep_images;
  internal::OptionalStageStatus optional;
  StageDag dag;
  util::Status build;
  build = dag.Add("shot", {}, [&](util::StageMetrics* row) {
    // Essential: no shots, nothing to index. Degraded runs use the salvage
    // decode, which substitutes the previous DC image for frames in corrupt
    // GOPs (keeping indices aligned) and fails only when nothing decodes.
    util::StatusOr<std::vector<media::GrayImage>> dc =
        degraded_mode
            ? codec::DecodeDcImagesSalvage(file, &result.salvage,
                                           ctx.cancellation())
            : codec::DecodeDcImages(file, ctx.cancellation());
    if (!dc.ok()) {
      ctx.RecordStatus(dc.status());
      return;
    }
    result.structure.shots =
        shot::DetectShotsFromDc(*dc, options.shot, &result.shot_trace);
    row->items = static_cast<int64_t>(dc->size());
  });
  if (!build.ok()) return build;
  build = dag.Add("decode", {"shot"}, [&](util::StageMetrics* row) {
    std::vector<shot::Shot>& shots = result.structure.shots;
    shot::AssignRepresentativeFrames(file.frame_count(), &shots);
    std::vector<int> needed;
    needed.reserve(shots.size());
    for (const shot::Shot& s : shots) {
      if (s.rep_frame >= 0 && s.rep_frame < file.frame_count()) {
        needed.push_back(s.rep_frame);
      }
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    util::StatusOr<codec::FrameBatch> batch =
        codec::DecodeFrames(file, needed, ctx);
    if (!batch.ok()) {
      ctx.RecordStatus(batch.status());
      return;
    }
    rep_batch = std::move(batch).value();
    row->items = rep_batch.frames_decoded;
    row->counters = {{"gops", rep_batch.gops}};
    if (rep_batch.failed_gops > 0) {
      row->counters.emplace_back("failed_gops", rep_batch.failed_gops);
      // Essential stage, but in a degraded run a GOP that fails to decode
      // costs only the shots whose representative frame it holds: they
      // keep default features and cues.
      if (!degraded_mode) {
        ctx.RecordStatus(rep_batch.FirstError());
        return;
      }
      result.salvage.gops_skipped += rep_batch.failed_gops;
    }
    rep_images.assign(shots.size(), nullptr);
    int lost_shots = 0;
    for (size_t i = 0; i < shots.size(); ++i) {
      const auto it = std::lower_bound(needed.begin(), needed.end(),
                                       shots[i].rep_frame);
      if (it == needed.end() || *it != shots[i].rep_frame) continue;
      const codec::DecodedFrame& frame =
          rep_batch.frames[static_cast<size_t>(it - needed.begin())];
      if (frame.status.ok()) {
        rep_images[i] = &frame.image;
      } else {
        ++lost_shots;
      }
    }
    if (rep_batch.failed_gops > 0) {
      result.salvage.AddNote(
          "decode: " + std::to_string(rep_batch.failed_gops) +
          " GOP(s) failed; " + std::to_string(lost_shots) +
          " shot(s) kept default features and cues");
    }
  });
  if (!build.ok()) return build;
  build = dag.Add("repframe", {"decode"}, [&](util::StageMetrics* row) {
    shot::PopulateRepresentativeFrames(rep_images, &result.structure.shots,
                                       ctx);
    row->items = static_cast<int64_t>(result.structure.shots.size());
  });
  if (!build.ok()) return build;
  const bool full = !options.structure_only;
  if (full) {
    build = dag.Add("audio", {"repframe"}, [&](util::StageMetrics* row) {
      const std::vector<shot::Shot>& shots = result.structure.shots;
      result.shot_audio.assign(shots.size(), audio::ShotAudioAnalysis{});
      row->items = static_cast<int64_t>(shots.size());
      internal::RunOptionalStage(
          options, ctx, "core.stage.audio", row, &optional.audio,
          [&](const util::ExecutionContext& sctx) {
            const audio::SpeakerSegmenter segmenter(options.events.segmenter);
            util::ParallelFor(sctx, static_cast<int>(shots.size()), [&](int i) {
              const shot::Shot& s = shots[static_cast<size_t>(i)];
              result.shot_audio[static_cast<size_t>(i)] = segmenter.AnalyzeShot(
                  track, s.StartSeconds(file.fps), s.EndSeconds(file.fps),
                  s.index, sctx);
            });
            return util::Status::Ok();
          });
    });
    if (!build.ok()) return build;
  }
  build = dag.Add("structure", {"repframe"}, [&](util::StageMetrics* row) {
    result.structure.groups = structure::DetectGroups(
        result.structure.shots, options.structure.group);
    structure::ClassifyGroups(result.structure.shots,
                              &result.structure.groups,
                              options.structure.classify);
    result.structure.scenes =
        structure::DetectScenes(result.structure.shots,
                                result.structure.groups,
                                options.structure.scene, nullptr, ctx);
    result.structure.clustered_scenes = structure::ClusterScenes(
        result.structure.shots, result.structure.groups,
        result.structure.scenes, options.structure.cluster, nullptr, ctx);
    row->items = static_cast<int64_t>(result.structure.scenes.size());
  });
  if (!build.ok()) return build;
  if (full) {
    build = dag.Add("cues", {"repframe"}, [&](util::StageMetrics* row) {
      result.shot_cues.assign(result.structure.shots.size(),
                              cues::FrameCues{});
      row->items = static_cast<int64_t>(result.shot_cues.size());
      internal::RunOptionalStage(
          options, ctx, "core.stage.cues", row, &optional.cues,
          [&](const util::ExecutionContext& sctx) {
            result.shot_cues =
                cues::ExtractShotCues(rep_images, options.cues, sctx);
            return util::Status::Ok();
          });
    });
    if (!build.ok()) return build;
    build = dag.Add(
        "events", {"structure", "cues", "audio"}, [&](util::StageMetrics* row) {
          internal::RunOptionalStage(
              options, ctx, "core.stage.events", row, &optional.events,
              [&](const util::ExecutionContext&) {
                const size_t shots = result.structure.shots.size();
                if (result.shot_cues.size() != shots ||
                    result.shot_audio.size() != shots) {
                  return util::Status::FailedPrecondition(
                      "event mining needs per-shot cues and audio");
                }
                const events::EventMiner miner(&result.structure,
                                               &result.shot_cues,
                                               &result.shot_audio,
                                               options.events);
                result.events = miner.MineAllScenes();
                row->items = static_cast<int64_t>(result.events.size());
                return util::Status::Ok();
              });
        });
    if (!build.ok()) return build;
  }

  const int exceptions_before = ctx.pool_exception_count();
  util::Status status = options.scheduling == StageScheduling::kDag
                            ? dag.Run(ctx)
                            : dag.RunSequential(ctx);
  const int escaped = ctx.pool_exception_count() - exceptions_before;
  result.metrics.pool_exceptions = escaped;
  if (status.ok() && escaped > 0) {
    status = util::Status::Internal(
        std::to_string(escaped) +
        " pool task(s) escaped with an exception during mining");
  }
  if (!status.ok()) return status;

  internal::CollectOptionalFailures(optional, &result);
  result.metrics.suppressed_errors = sink.suppressed_count();
  return result;
}

}  // namespace classminer::core
