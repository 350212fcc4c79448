#include "core/cmv_pipeline.h"

#include <memory>
#include <string>
#include <utility>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/frame_source.h"
#include "core/pipeline_dag.h"
#include "shot/rep_frame.h"
#include "util/arena.h"
#include "util/threadpool.h"

namespace classminer::core {
namespace {

audio::AudioBuffer AudioFromFile(const codec::CmvFile& file) {
  if (file.audio_sample_rate <= 0) return audio::AudioBuffer();
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
      MineVideoInto(*video, AudioFromFile(file), options, ctx, &result));
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

  const audio::AudioBuffer track = AudioFromFile(file);

  // Selective-decode frame supplier shared by repframe and cues: decodes
  // only the GOPs containing frames that are actually requested, behind a
  // capacity-bounded LRU cache (paper Sec. 3: the point of working on the
  // compressed domain is not paying full-decompression cost). Degraded runs
  // put it in salvage mode so a corrupt GOP fails only the frames it holds.
  codec::FrameSource::Options source_options;
  source_options.cache_capacity_gops = options.gop_cache_capacity;
  source_options.cache_capacity_max_gops = options.gop_cache_capacity_max;
  source_options.cancel = options.cancel;
  source_options.salvage = degraded_mode;
  util::StatusOr<std::unique_ptr<codec::FrameSource>> source =
      codec::FrameSource::Create(&file, source_options);
  if (!source.ok()) return source.status();

  // Fast-path stage graph: shot spans come from the compressed domain (DC
  // images, no pixel decode); repframe then decodes only the GOPs holding
  // representative frames through the FrameSource, after which audio /
  // structure / cues fan out and events joins everything:
  //
  //   shot ──> repframe ─┬─> audio ─────┐
  //                      ├─> structure ─┼─> events
  //                      └─> cues ──────┘
  //
  // With ~1 rep frame per shot, decode cost is O(shots * gop_size) frames
  // instead of O(frames); cues re-reads the same rep frames, so it mostly
  // hits the cache. Fallible stages record their status into the sink and
  // dependent stages are skipped.
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
  build = dag.Add("repframe", {"shot"}, [&](util::StageMetrics* row) {
    // Essential stage, but in a degraded run a shot whose representative
    // frame sits in a corrupt GOP keeps default features instead of
    // failing the pipeline.
    if (degraded_mode) {
      int failed_shots = 0;
      ctx.RecordStatus(shot::PopulateRepresentativeFramesSalvage(
          source->get(), &result.structure.shots, ctx, &failed_shots));
      if (failed_shots > 0) {
        result.salvage.AddNote(
            "repframe: " + std::to_string(failed_shots) +
            " shot(s) kept default features (corrupt GOP)");
      }
    } else {
      ctx.RecordStatus(shot::PopulateRepresentativeFrames(
          source->get(), &result.structure.shots, ctx));
    }
    row->items = static_cast<int64_t>(result.structure.shots.size());
  });
  if (!build.ok()) return build;
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
  build = dag.Add("cues", {"repframe"}, [&](util::StageMetrics* row) {
    result.shot_cues.assign(result.structure.shots.size(),
                            cues::FrameCues{});
    row->items = static_cast<int64_t>(result.shot_cues.size());
    internal::RunOptionalStage(
        options, ctx, "core.stage.cues", row, &optional.cues,
        [&](const util::ExecutionContext& sctx) {
          util::StatusOr<std::vector<cues::FrameCues>> shot_cues =
              cues::ExtractShotCues(source->get(), result.structure.shots,
                                    options.cues, sctx);
          if (!shot_cues.ok()) return shot_cues.status();
          result.shot_cues = std::move(shot_cues).value();
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

  // Synthetic "decode" row from the FrameSource, leading the stage table
  // like the full path's decode stage: items counts frames actually
  // decoded (strictly fewer than file.frame_count() whenever some GOP
  // contains no requested frame), with GOP and cache-hit counters.
  const codec::FrameSource::Stats decode_stats = (*source)->stats();
  util::StageMetrics decode_row;
  decode_row.name = "decode";
  decode_row.wall_ms = decode_stats.decode_ms;
  decode_row.items = decode_stats.decoded_frames;
  decode_row.threads = ctx.thread_count();
  decode_row.counters = {{"gops", decode_stats.decoded_gops},
                         {"cache_hits", decode_stats.cache_hits}};
  if (decode_stats.failed_gops > 0) {
    decode_row.counters.emplace_back("failed_gops", decode_stats.failed_gops);
    result.salvage.gops_skipped += static_cast<int>(decode_stats.failed_gops);
    result.salvage.AddNote("decode: " +
                           std::to_string(decode_stats.failed_gops) +
                           " GOP(s) failed selective decode");
  }
  result.metrics.stages.insert(result.metrics.stages.begin(),
                               std::move(decode_row));
  internal::CollectOptionalFailures(optional, &result);
  result.metrics.suppressed_errors = sink.suppressed_count();
  return result;
}

}  // namespace classminer::core
