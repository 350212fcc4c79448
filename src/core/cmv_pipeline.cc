#include "core/cmv_pipeline.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "core/pipeline_dag.h"
#include "shot/rep_frame.h"
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
                                         const MiningOptions& options,
                                         const util::ExecutionContext& ctx) {
  // The GOP-parallel decode and then every mining stage run on ctx's pool,
  // and report into one sink.
  util::StatusSink local_sink;
  const util::ExecutionContext run_ctx =
      ctx.status_sink() != nullptr ? ctx : ctx.WithSink(&local_sink);
  MiningResult result;
  util::StatusOr<media::Video> video = [&] {
    // Decode leads the stage table so the CLI/bench see the whole cost.
    util::StageTimer timer(&result.metrics, "decode", run_ctx.thread_count());
    auto decoded = codec::DecodeVideo(file, run_ctx);
    timer.set_items(file.frame_count());
    return decoded;
  }();
  if (!video.ok()) return video.status();
  CLASSMINER_RETURN_IF_ERROR(internal::MineWithHead(
      "shot", internal::PixelHead(*video, options, &result),
      AudioFromFile(file, options), video->fps(), options, run_ctx, &result));
  return result;
}

util::StatusOr<MiningResult> MineCmvFile(const codec::CmvFile& file,
                                         const MiningOptions& options) {
  const std::unique_ptr<util::ThreadPool> pool =
      internal::MakePipelinePool(options.thread_count);
  return MineCmvFile(file, options, util::ExecutionContext(pool.get()));
}

util::StatusOr<MiningResult> MineCmvFile(const codec::CmvFile& file) {
  return MineCmvFile(file, MiningOptions());
}

util::StatusOr<MiningResult> MineCmvFileFast(
    const codec::CmvFile& file, const MiningOptions& options,
    const util::ExecutionContext& ctx) {
  MiningResult result;
  const bool degraded_mode =
      options.failure_policy == FailurePolicy::kDegraded;

  // The compressed-domain head: shot spans come from DC images (no pixel
  // decode). Once they exist, the frames the run needs are known — one
  // representative frame per shot (paper Sec. 3) — so decode plans one
  // batch: each GOP holding a representative frame decodes once, only up to
  // its last needed frame. repframe and the tail's cues read the decoded
  // images directly:
  //
  //   shot ──> decode ──> repframe ──> (shared tail)
  //
  // Resident decoded frames are one image per shot; `rep_batch` owns them
  // for the whole run. Fallible stages record their status into the sink
  // and dependent stages are skipped.
  codec::FrameBatch rep_batch;
  const internal::DeclareHead head =
      [&](const util::ExecutionContext& run_ctx,
          std::vector<const media::Image*>* rep_images, StageDag* dag) {
        CLASSMINER_RETURN_IF_ERROR(
            dag->Add("shot", {}, [&](util::StageMetrics* row) {
              // Essential: no shots, nothing to index. Degraded runs
              // salvage the DC decode, which holds the last good DC image
              // over frames in corrupt GOPs (keeping indices aligned) and
              // fails only when nothing decodes.
              util::StatusOr<std::vector<media::GrayImage>> dc =
                  codec::DecodeDcImages(
                      file, run_ctx,
                      degraded_mode ? &result.salvage : nullptr);
              if (!dc.ok()) {
                run_ctx.RecordStatus(dc.status());
                return;
              }
              result.structure.shots = shot::DetectShotsFromDc(
                  *dc, options.shot, &result.shot_trace);
              row->items = static_cast<int64_t>(dc->size());
            }));
        CLASSMINER_RETURN_IF_ERROR(dag->Add(
            "decode", {"shot"}, [&, rep_images](util::StageMetrics* row) {
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
              needed.erase(std::unique(needed.begin(), needed.end()),
                           needed.end());
              util::StatusOr<codec::FrameBatch> batch =
                  codec::DecodeFrames(file, needed, run_ctx);
              if (!batch.ok()) {
                run_ctx.RecordStatus(batch.status());
                return;
              }
              rep_batch = std::move(batch).value();
              row->items = rep_batch.frames_decoded;
              row->counters = {{"gops", rep_batch.gops}};
              if (rep_batch.failed_gops > 0) {
                row->counters.emplace_back("failed_gops",
                                           rep_batch.failed_gops);
                // Essential stage, but in a degraded run a GOP that fails
                // to decode costs only the shots whose representative frame
                // it holds: they keep default features and cues.
                if (!degraded_mode) {
                  run_ctx.RecordStatus(rep_batch.FirstError());
                  return;
                }
                result.salvage.gops_skipped += rep_batch.failed_gops;
              }
              rep_images->assign(shots.size(), nullptr);
              int lost_shots = 0;
              for (size_t i = 0; i < shots.size(); ++i) {
                const auto it = std::lower_bound(
                    needed.begin(), needed.end(), shots[i].rep_frame);
                if (it == needed.end() || *it != shots[i].rep_frame) {
                  continue;
                }
                const codec::DecodedFrame& frame =
                    rep_batch.frames[static_cast<size_t>(it - needed.begin())];
                if (frame.status.ok()) {
                  (*rep_images)[i] = &frame.image;
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
            }));
        return dag->Add("repframe", {"decode"},
                        [&, rep_images](util::StageMetrics* row) {
                          shot::PopulateRepresentativeFrames(
                              *rep_images, &result.structure.shots, run_ctx);
                          row->items = static_cast<int64_t>(
                              result.structure.shots.size());
                        });
      };
  const audio::AudioBuffer track = AudioFromFile(file, options);
  CLASSMINER_RETURN_IF_ERROR(internal::MineWithHead(
      "repframe", head, track, file.fps, options, ctx, &result));
  return result;
}

util::StatusOr<MiningResult> MineCmvFileFast(const codec::CmvFile& file,
                                             const MiningOptions& options) {
  const std::unique_ptr<util::ThreadPool> pool =
      internal::MakePipelinePool(options.thread_count);
  return MineCmvFileFast(file, options, util::ExecutionContext(pool.get()));
}

}  // namespace classminer::core
