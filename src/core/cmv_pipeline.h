#ifndef CLASSMINER_CORE_CMV_PIPELINE_H_
#define CLASSMINER_CORE_CMV_PIPELINE_H_

#include "codec/container.h"
#include "codec/encoder.h"
#include "core/classminer.h"
#include "synth/video_generator.h"
#include "util/status.h"

namespace classminer::core {

// Compressed-media entry points: the database at rest stores CMV bitstreams
// (the stand-in for the paper's MPEG-I files); these helpers close the loop
// between the codec substrate and the mining pipeline.

// Encodes a generated video (frames + PCM audio track) into one container.
codec::CmvFile PackGeneratedVideo(const synth::GeneratedVideo& generated,
                                  const codec::EncoderOptions& options);
codec::CmvFile PackGeneratedVideo(const synth::GeneratedVideo& generated);

// Decodes a CMV file and runs the full mining pipeline on it, using the
// embedded audio track when present (a structure_only run reads no audio).
// ctx's pool serves both: the GOP-parallel decode, then every mining stage
// (see MineVideo for what the context carries). The stage table leads with
// a `decode` row whose `threads` is the pool size.
util::StatusOr<MiningResult> MineCmvFile(const codec::CmvFile& file,
                                         const MiningOptions& options,
                                         const util::ExecutionContext& ctx);
// The same mine on a pool of options.thread_count built for this call.
util::StatusOr<MiningResult> MineCmvFile(const codec::CmvFile& file,
                                         const MiningOptions& options);
util::StatusOr<MiningResult> MineCmvFile(const codec::CmvFile& file);

// Compressed-domain fast path: shot spans come from DC-image differences
// without a full decode. A `decode` stage then plans one codec::DecodeFrames
// batch: each GOP holding a shot's representative frame decodes once, only
// up to its last needed frame, and repframe, cue and event mining read the
// decoded images directly. In a degraded run a GOP that fails to decode
// costs only the shots whose representative frame it holds (default
// features and cues). Returns the same MiningResult shape; runs on ctx as
// MineCmvFile does.
util::StatusOr<MiningResult> MineCmvFileFast(
    const codec::CmvFile& file, const MiningOptions& options,
    const util::ExecutionContext& ctx);
// The same mine on a pool of options.thread_count built for this call.
util::StatusOr<MiningResult> MineCmvFileFast(const codec::CmvFile& file,
                                             const MiningOptions& options);

}  // namespace classminer::core

#endif  // CLASSMINER_CORE_CMV_PIPELINE_H_
