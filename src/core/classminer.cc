#include "core/classminer.h"

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline_dag.h"
#include "shot/rep_frame.h"
#include "util/arena.h"
#include "util/failpoint.h"
#include "util/threadpool.h"

namespace classminer::core {
namespace {

// Failure slots for the optional stages. Each slot is written by exactly
// one stage (fixed slot, no mutex) and read only after the DAG drains, so
// the collected failure list is deterministic regardless of completion
// order on the pool.
struct OptionalStageStatus {
  util::Status audio;
  util::Status cues;
  util::Status events;
};

// Runs one optional stage body under the failure policy. Strict runs keep
// the historical contract: a fail-point hit (site "core.stage.<name>") or
// body failure lands in the run's sink and fails the whole pipeline.
// Degraded runs hand the body a stage-local sink so its errors — returned,
// recorded by nested loops, or thrown — stay confined to the stage; the
// outcome lands in *slot and on the stage's metrics row, and the run
// continues on the stage's default outputs.
void RunOptionalStage(
    const MiningOptions& options, const util::ExecutionContext& ctx,
    const char* site, util::StageMetrics* row, util::Status* slot,
    const std::function<util::Status(const util::ExecutionContext&)>& body) {
  if (options.failure_policy == FailurePolicy::kStrict) {
    util::Status status = util::FailPoint::Check(site);
    // Body exceptions propagate to ExecuteStage's catch, as before.
    if (status.ok()) status = body(ctx);
    if (!status.ok()) ctx.RecordStatus(status);
    return;
  }
  util::StatusSink stage_sink;
  const util::ExecutionContext stage_ctx = ctx.WithSink(&stage_sink);
  util::Status status = util::FailPoint::Check(site);
  if (status.ok()) {
    try {
      status = body(stage_ctx);
    } catch (const std::exception& e) {
      status = util::Status::Internal(
          std::string("optional stage threw: ") + e.what());
    } catch (...) {
      status = util::Status::Internal("optional stage threw a non-std value");
    }
    if (status.ok()) status = stage_sink.Get();
  }
  *slot = status;
  row->status = status;
}

// Folds the optional-stage outcomes into the result: failures append to
// stage_failures in declaration order and flag the result degraded (as does
// a non-empty salvage report).
void CollectOptionalFailures(const OptionalStageStatus& optional,
                             MiningResult* result) {
  const auto collect = [result](const char* stage, const util::Status& s) {
    if (s.ok()) return;
    result->degraded = true;
    result->stage_failures.push_back(StageFailure{stage, s});
  };
  collect("audio", optional.audio);
  collect("cues", optional.cues);
  collect("events", optional.events);
  if (result->salvage.salvaged) result->degraded = true;
}

// Declares the tail every mining path shares (see internal::MineWithHead)
// after the head's last stage `head_last`. Dependencies mirror the data
// flow exactly — each stage reads only fields written by its declared
// deps — which is what makes DAG execution bit-identical to declaration
// order.
util::Status DeclareTail(const std::string& head_last,
                         const std::vector<const media::Image*>& rep_images,
                         const audio::AudioBuffer& audio, double fps,
                         const MiningOptions& options,
                         const util::ExecutionContext& ctx,
                         MiningResult* result, OptionalStageStatus* optional,
                         StageDag* dag) {
  const bool full = !options.structure_only;
  if (full) {
    // Per-shot audio analysis (representative clip + MFCC). Shots are
    // independent; the loop fans across shots and AnalyzeShot's inner loops
    // nest on the same pool via the context.
    CLASSMINER_RETURN_IF_ERROR(dag->Add(
        "audio", {head_last},
        [&audio, fps, &options, &ctx, result,
         optional](util::StageMetrics* row) {
          const std::vector<shot::Shot>& shots = result->structure.shots;
          // Default (silent) entries first, so a degraded failure still
          // leaves dependents correctly-sized per-shot inputs.
          result->shot_audio.assign(shots.size(), audio::ShotAudioAnalysis{});
          row->items = static_cast<int64_t>(shots.size());
          RunOptionalStage(
              options, ctx, "core.stage.audio", row, &optional->audio,
              [&](const util::ExecutionContext& sctx) {
                const audio::SpeakerSegmenter segmenter(
                    options.events.segmenter);
                util::ParallelFor(
                    sctx, static_cast<int>(shots.size()), [&](int i) {
                      const shot::Shot& s = shots[static_cast<size_t>(i)];
                      result->shot_audio[static_cast<size_t>(i)] =
                          segmenter.AnalyzeShot(audio, s.StartSeconds(fps),
                                                s.EndSeconds(fps), s.index,
                                                sctx);
                    });
                return util::Status::Ok();
              });
        }));
  }
  CLASSMINER_RETURN_IF_ERROR(dag->Add(
      "group", {head_last}, [&options, result](util::StageMetrics* row) {
        result->structure.groups = structure::DetectGroups(
            result->structure.shots, options.structure.group);
        structure::ClassifyGroups(result->structure.shots,
                                  &result->structure.groups,
                                  options.structure.classify);
        row->items = static_cast<int64_t>(result->structure.groups.size());
      }));
  CLASSMINER_RETURN_IF_ERROR(dag->Add(
      "scene", {"group"}, [&options, &ctx, result](util::StageMetrics* row) {
        result->structure.scenes = structure::DetectScenes(
            result->structure.shots, result->structure.groups,
            options.structure.scene, nullptr, ctx);
        row->items = static_cast<int64_t>(result->structure.scenes.size());
      }));
  CLASSMINER_RETURN_IF_ERROR(dag->Add(
      "cluster", {"scene"}, [&options, &ctx, result](util::StageMetrics* row) {
        result->structure.clustered_scenes = structure::ClusterScenes(
            result->structure.shots, result->structure.groups,
            result->structure.scenes, options.structure.cluster, nullptr,
            ctx);
        row->items =
            static_cast<int64_t>(result->structure.clustered_scenes.size());
      }));
  if (full) {
    // Visual cues on representative frames — needs shots only, so it runs
    // alongside the whole structure chain.
    CLASSMINER_RETURN_IF_ERROR(dag->Add(
        "cues", {head_last},
        [&rep_images, &options, &ctx, result,
         optional](util::StageMetrics* row) {
          result->shot_cues.assign(result->structure.shots.size(),
                                   cues::FrameCues{});
          row->items = static_cast<int64_t>(result->shot_cues.size());
          RunOptionalStage(
              options, ctx, "core.stage.cues", row, &optional->cues,
              [&](const util::ExecutionContext& sctx) {
                // The head stored each representative frame's colour
                // histogram in its shot's features; the special-frame
                // statistics read it from there.
                std::vector<const features::ColorHistogram*> histograms;
                histograms.reserve(result->structure.shots.size());
                for (const shot::Shot& s : result->structure.shots) {
                  histograms.push_back(&s.features.histogram);
                }
                result->shot_cues = cues::ExtractShotCues(
                    rep_images, histograms, options.cues, sctx);
                return util::Status::Ok();
              });
        }));
    CLASSMINER_RETURN_IF_ERROR(dag->Add(
        "events", {"cluster", "cues", "audio"},
        [&options, &ctx, result, optional](util::StageMetrics* row) {
          RunOptionalStage(
              options, ctx, "core.stage.events", row, &optional->events,
              [&](const util::ExecutionContext&) {
                const size_t shots = result->structure.shots.size();
                if (result->shot_cues.size() != shots ||
                    result->shot_audio.size() != shots) {
                  // Upstream defaults guarantee sized inputs; a mismatch
                  // means a dependency was skipped entirely.
                  return util::Status::FailedPrecondition(
                      "event mining needs per-shot cues and audio");
                }
                const events::EventMiner miner(&result->structure,
                                               &result->shot_cues,
                                               &result->shot_audio,
                                               options.events);
                result->events = miner.MineAllScenes();
                row->items = static_cast<int64_t>(result->events.size());
                return util::Status::Ok();
              });
        }));
  }
  return util::Status();
}

}  // namespace

namespace internal {

std::unique_ptr<util::ThreadPool> MakePipelinePool(int thread_count) {
  if (thread_count <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(thread_count);
}

util::Status MineWithHead(const std::string& head_last,
                          const DeclareHead& head,
                          const audio::AudioBuffer& audio, double fps,
                          const MiningOptions& options,
                          const util::ExecutionContext& ctx,
                          MiningResult* result) {
  util::StatusSink local_sink;
  const util::ExecutionContext base =
      ctx.status_sink() != nullptr ? ctx : ctx.WithSink(&local_sink);
  // Per-run bump arena for transient scratch (frame planes, feature
  // tables). Stage results always escape by copy into the MiningResult, so
  // nothing arena-backed survives this function.
  util::Arena run_arena;
  const util::ExecutionContext run_ctx =
      base.WithMetrics(&result->metrics).WithArena(&run_arena);

  // Shot i's representative image, filled by the head.
  std::vector<const media::Image*> rep_images;
  OptionalStageStatus optional;
  StageDag dag;
  CLASSMINER_RETURN_IF_ERROR(head(run_ctx, &rep_images, &dag));
  CLASSMINER_RETURN_IF_ERROR(DeclareTail(head_last, rep_images, audio, fps,
                                         options, run_ctx, result, &optional,
                                         &dag));

  const util::Status status = dag.Run(run_ctx);
  CollectOptionalFailures(optional, result);
  result->metrics.suppressed_errors = base.status_sink()->suppressed_count();
  return status;
}

DeclareHead PixelHead(const media::Video& video, const MiningOptions& options,
                      MiningResult* result) {
  return [&video, &options, result](
             const util::ExecutionContext& run_ctx,
             std::vector<const media::Image*>* rep_images, StageDag* dag) {
    return dag->Add(
        "shot", {},
        [&video, &options, &run_ctx, result,
         rep_images](util::StageMetrics* row) {
          result->structure.shots = shot::DetectShots(
              video, options.shot, &result->shot_trace, run_ctx);
          *rep_images =
              shot::RepresentativeImages(video, result->structure.shots);
          row->items = video.frame_count();
        });
  };
}

}  // namespace internal

util::StatusOr<MiningResult> MineVideo(const media::Video& video,
                                       const audio::AudioBuffer& audio,
                                       const MiningOptions& options,
                                       const ExecutionContext& ctx) {
  MiningResult result;
  CLASSMINER_RETURN_IF_ERROR(internal::MineWithHead(
      "shot", internal::PixelHead(video, options, &result), audio,
      video.fps(), options, ctx, &result));
  return result;
}

util::StatusOr<MiningResult> MineVideo(const media::Video& video,
                                       const audio::AudioBuffer& audio,
                                       const MiningOptions& options) {
  const std::unique_ptr<util::ThreadPool> pool =
      internal::MakePipelinePool(options.thread_count);
  return MineVideo(video, audio, options, ExecutionContext(pool.get()));
}

util::StatusOr<MiningResult> MineVideo(const media::Video& video,
                                       const audio::AudioBuffer& audio) {
  return MineVideo(video, audio, MiningOptions());
}

}  // namespace classminer::core
