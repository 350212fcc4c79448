#ifndef CLASSMINER_CODEC_GOP_READER_H_
#define CLASSMINER_CODEC_GOP_READER_H_

#include <cstdint>
#include <vector>

#include "codec/container.h"
#include "media/image.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace classminer::codec {

// Random-access GOP decoder over a CMV container. Each GOP opens with an
// I-frame, so decoding it needs no state from earlier GOPs: the reader
// seeks straight to the GOP's frame records and runs the shared per-GOP
// decode loop (internal::DecodeGopFrames) over them. Output is therefore
// bit-identical to the corresponding slice of a full DecodeVideo pass.
//
// The reader borrows the file; it must outlive the reader. The reader
// itself is immutable after Create and safe to share across threads.
class GopReader {
 public:
  // Validates dimensions and the GOP index (using the file's stored index,
  // or deriving one when the file carries none).
  static util::StatusOr<GopReader> Create(const CmvFile* file);

  int gop_count() const { return static_cast<int>(index_.size()); }
  int frame_count() const { return file_->frame_count(); }
  const GopIndexEntry& gop(int g) const {
    return index_[static_cast<size_t>(g)];
  }
  // Index of the GOP containing `frame_index`, or -1 when out of range.
  int GopOfFrame(int frame_index) const;

  // Decodes the first `frames` frames of GOP `g` (every frame when
  // `frames` is negative) in stream order, starting at its I-frame.
  // P-frames reference only earlier frames, so a prefix is bit-identical to
  // the same frames of a whole-GOP decode. `cancel` (borrowed, may be null)
  // is checked between frames.
  util::StatusOr<std::vector<media::Image>> DecodeGop(
      int g, const util::CancellationToken* cancel = nullptr,
      int frames = -1) const;

 private:
  GopReader(const CmvFile* file, std::vector<GopIndexEntry> index)
      : file_(file), index_(std::move(index)) {}

  const CmvFile* file_;
  std::vector<GopIndexEntry> index_;
};

// One frame of a planned batch decode.
struct DecodedFrame {
  util::Status status;  // the decode status of the frame's GOP
  media::Image image;   // the frame; empty unless status is OK
};

// The result of DecodeFrames: the requested frames plus decode counters.
struct FrameBatch {
  std::vector<DecodedFrame> frames;  // one per requested index, same order
  int gops = 0;                      // GOP decodes run
  int failed_gops = 0;               // of those, decodes that failed
  int64_t frames_decoded = 0;        // frames the successful decodes made

  // Status of the lowest-index failing GOP, OK when every GOP decoded: the
  // rule DecodeVideo applies, for callers that cannot salvage.
  util::Status FirstError() const;
};

// Planned selective decode: the frames at `frame_indices` (strictly
// increasing container indices) and nothing the plan does not need. The
// indices are grouped by GOP, and each needed GOP decodes once, only up to
// its last needed frame, on the context's pool (a null or 1-thread pool
// runs the same loop inline). Frames are bit-identical to the same indices
// of DecodeVideo at every pool size.
//
// The file is validated through GopReader::Create; an index outside the
// file or out of order fails with kOutOfRange, and a cancelled context
// with kCancelled. Any other GOP failure is not fatal here: each frame
// carries its GOP's status, so a salvaging caller keeps every frame outside
// the failed GOP and a strict one surfaces FirstError().
util::StatusOr<FrameBatch> DecodeFrames(const CmvFile& file,
                                        const std::vector<int>& frame_indices,
                                        const util::ExecutionContext& ctx = {});

}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_GOP_READER_H_
