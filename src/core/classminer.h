#ifndef CLASSMINER_CORE_CLASSMINER_H_
#define CLASSMINER_CORE_CLASSMINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "audio/audio_buffer.h"
#include "audio/speaker_segmenter.h"
#include "core/metrics.h"
#include "cues/cue_extractor.h"
#include "events/event_miner.h"
#include "media/video.h"
#include "shot/detector.h"
#include "structure/content_structure.h"
#include "util/exec_context.h"
#include "util/pipeline_metrics.h"
#include "util/salvage.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace classminer::core {

class StageDag;  // core/pipeline_dag.h

// The execution environment threaded through every pipeline stage; defined
// in util (so lower layers can take it without depending on core), aliased
// here because the pipeline is where callers meet it.
using ExecutionContext = util::ExecutionContext;

// How the pipeline responds to a stage failure. The essential chain
// (shot -> group -> scene -> cluster, and the CMV fast path's decode /
// repframe stages) always fails the run — without shots there is nothing to
// index. Audio, cues and events are enrichments: losing them degrades the
// entry, it does not void it. A GOP the fast path cannot decode is not a
// stage failure in a degraded run: only the shots whose representative
// frame it holds lose their features and cues.
enum class FailurePolicy {
  // Any stage failure fails the whole run; a partial result is never
  // returned as OK.
  kStrict,
  // An optional stage (audio, cues, events) that fails is recorded on the
  // result — degraded=true, its Status in stage_failures and on its metrics
  // row — and the run continues with that stage's default outputs (sized to
  // the shots, so dependents still see consistent inputs).
  kDegraded,
};

// Options for the full ClassMiner pipeline (paper Fig. 3).
struct MiningOptions {
  shot::ShotDetectorOptions shot{};
  structure::StructureOptions structure{};
  cues::CueExtractorOptions cues{};
  events::EventMinerOptions events{};
  // Size of the pool the `(..., options)` entry points build for one mine
  // (stage DAG + intra-stage hot paths: feature extraction, the scene
  // similarity matrix / PCS clustering, per-shot audio and cue analysis).
  // The context forms ignore it and run on the caller's pool. Parallel
  // runs are bit-identical to a serial one: all loops use fixed per-index
  // partitioning and serial reductions, and stage dependencies mirror the
  // true data flow. <= 1 runs serially.
  int thread_count = util::ThreadPool::DefaultThreads();
  // What a failed optional stage does to the run (see FailurePolicy).
  FailurePolicy failure_policy = FailurePolicy::kStrict;
  // Mine only the content structure (paper Sec. 4), for callers that read
  // nothing else — the scalable skim of Sec. 5 is built from it alone. The
  // stage graph then drops the audio, cues and events stages: the pixel
  // path runs shot -> group -> scene -> cluster, the `--fast` path
  // shot -> decode -> repframe -> group -> scene -> cluster, and the
  // container's PCM is never wrapped in an AudioBuffer. The structure chain
  // is unchanged, so `structure` and `shot_trace` are bit-identical to a
  // full run.
  bool structure_only = false;
};

// One optional stage that failed under FailurePolicy::kDegraded.
struct StageFailure {
  std::string stage;    // stage name as declared in the DAG
  util::Status status;  // why it failed
};

// Everything the pipeline mines from one video. Under
// MiningOptions::structure_only the audio, cues and events stages never
// run: `shot_audio`, `shot_cues` and `events` stay empty, and those stages
// leave no metrics rows and no stage_failures.
struct MiningResult {
  structure::ContentStructure structure;
  std::vector<cues::FrameCues> shot_cues;             // per shot
  std::vector<audio::ShotAudioAnalysis> shot_audio;   // per shot
  std::vector<events::EventRecord> events;            // per active scene
  shot::ShotDetectionTrace shot_trace;                // Fig. 5 diagnostics
  util::PipelineMetrics metrics;                      // per-stage wall time

  // True when the run completed under FailurePolicy::kDegraded with at
  // least one optional stage lost, or when the source container needed
  // salvage. The structure fields are trustworthy; the failed stages'
  // outputs are defaults.
  bool degraded = false;
  std::vector<StageFailure> stage_failures;  // in stage declaration order
  // What salvage recovered/dropped from the source container (fast path and
  // salvage loaders fill it; pristine inputs leave it empty).
  util::SalvageReport salvage;
};

// Runs shot detection, content-structure mining, visual/audio cue
// extraction and event mining end to end on `ctx`: every stage and loop
// runs on its pool (null = serial), which other mines may share; its
// cancellation token is checked at stage boundaries, at the head of
// parallel loops and inside the codec decode loops; failures land in its
// status sink when it has one. Metrics land in the result, not in the
// context's registry. `audio` may be empty (event rules then see every
// shot as speech-free). Fails with kCancelled when the token fires, or
// kInternal when a stage throws (including an exception a stage's parallel
// loop rethrows on it) — a partial result is never returned as OK.
util::StatusOr<MiningResult> MineVideo(const media::Video& video,
                                       const audio::AudioBuffer& audio,
                                       const MiningOptions& options,
                                       const ExecutionContext& ctx);
// The same mine on a pool of options.thread_count built for this call.
util::StatusOr<MiningResult> MineVideo(const media::Video& video,
                                       const audio::AudioBuffer& audio,
                                       const MiningOptions& options);
util::StatusOr<MiningResult> MineVideo(const media::Video& video,
                                       const audio::AudioBuffer& audio);

namespace internal {

// The pool an `(..., options)` entry point builds for its one mine, shared
// across the stage DAG, every intra-stage loop and (on the CMV paths) the
// decode; null for serial runs (thread_count <= 1).
std::unique_ptr<util::ThreadPool> MakePipelinePool(int thread_count);

// A mining path's front end ("head"): declares on `dag` the stages that
// find the shots, with bodies that run on `ctx`, the run's context. When
// the head's last stage completes, result->structure.shots holds every
// shot with its features, and *rep_images holds one representative image
// per shot (null = default cues). The images are borrowed and must outlive
// the run.
using DeclareHead = std::function<util::Status(
    const util::ExecutionContext& ctx,
    std::vector<const media::Image*>* rep_images, StageDag* dag)>;

// The pixel path's head: one `shot` stage that finds the shots from
// decoded-frame differences in `video`, each shot's representative image
// its frame there. Writes the shots and the trace into *result.
DeclareHead PixelHead(const media::Video& video, const MiningOptions& options,
                      MiningResult* result);

// Mines one video into *result on `ctx`: `head` declares the path's front
// end, ending with the stage `head_last`, and the tail every path shares
// (paper Fig. 3) follows it:
//
//   <head_last> ──┬─> audio ───────────────────┐
//                 ├─> group -> scene -> cluster ──> events
//                 └─> cues ────────────────────┘
//
// A structure-only run declares the middle row alone. Audio analysis reads
// `audio` at `fps`. Returns the run's status (see MineVideo); optional-stage
// failures and salvage land on *result.
util::Status MineWithHead(const std::string& head_last,
                          const DeclareHead& head,
                          const audio::AudioBuffer& audio, double fps,
                          const MiningOptions& options,
                          const util::ExecutionContext& ctx,
                          MiningResult* result);

}  // namespace internal
}  // namespace classminer::core

#endif  // CLASSMINER_CORE_CLASSMINER_H_
