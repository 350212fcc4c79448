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
// embedded audio track when present. One pool of options.thread_count
// serves both: the GOP-parallel decode, then every mining stage. The
// stage table leads with a `decode` row whose `threads` is the pool size.
util::StatusOr<MiningResult> MineCmvFile(const codec::CmvFile& file,
                                         const MiningOptions& options);
util::StatusOr<MiningResult> MineCmvFile(const codec::CmvFile& file);

// Compressed-domain fast path: shot spans come from DC-image differences
// without a full decode. A codec::FrameSource then decodes selectively:
// only the GOPs holding each shot's representative frame, behind a bounded
// GOP cache that the cue stage re-reads, before structure/cue/event mining.
// Returns the same MiningResult shape.
util::StatusOr<MiningResult> MineCmvFileFast(const codec::CmvFile& file,
                                             const MiningOptions& options);

}  // namespace classminer::core

#endif  // CLASSMINER_CORE_CMV_PIPELINE_H_
