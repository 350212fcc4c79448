#ifndef CLASSMINER_CODEC_DECODER_H_
#define CLASSMINER_CODEC_DECODER_H_

#include <cstdint>
#include <vector>

#include "codec/container.h"
#include "codec/dct.h"
#include "media/image.h"
#include "media/video.h"
#include "util/exec_context.h"
#include "util/salvage.h"
#include "util/status.h"

namespace classminer::codec {

// Every decode below partitions the stream into GOPs from its frame records
// alone (DeriveGopIndex; Parse checks a stored index against it where the
// bytes enter). Each I-frame opens a GOP that runs to the next
// one; a leading run of P-frames has no I-frame to open it and decodes as
// one GOP that fails at its first frame. A GOP needs no state from earlier
// GOPs, so the GOPs decode in parallel on the context's pool (a null or
// 1-thread pool decodes them inline, in order). Output is bit-identical at
// every pool size. The context's cancellation token is checked between
// frames, so long decodes stop with kCancelled.

// Fully decodes a CMV file back into an in-memory video, the GOPs
// concatenated in stream order. On failure the status of the lowest-index
// failing GOP is returned, which is where a serial walk would stop.
util::StatusOr<media::Video> DecodeVideo(
    const CmvFile& file, const util::ExecutionContext& ctx = {});

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
// increasing container indices) and nothing the plan does not need. Each
// GOP holding a requested frame decodes once, only up to its last
// requested frame; P-frames reference only earlier frames, so the frames
// are bit-identical to the same indices of DecodeVideo.
//
// Empty dimensions fail with kInvalidArgument, a stream that does not open
// with an I-frame with kDataLoss, an index outside the file or out of order
// with kOutOfRange, and a cancelled context with kCancelled. Any other GOP
// failure is not fatal here: each frame carries its GOP's status, so a
// salvaging caller keeps every frame outside the failed GOP and a strict
// one surfaces FirstError().
util::StatusOr<FrameBatch> DecodeFrames(const CmvFile& file,
                                        const std::vector<int>& frame_indices,
                                        const util::ExecutionContext& ctx = {});

// Compressed-domain fast path: the sequence of DC images (one luma mean per
// 8x8 block, i.e. a width/8 x height/8 thumbnail per frame), without
// inverse-transforming AC coefficients. I-frames use their coded DC terms
// directly; P-frames apply motion-vector shifts to the previous DC image
// plus the residual DC (Yeo & Liu-style DC sequence extraction). This is
// what the MPEG-domain shot detector consumes.
//
// A strict decode (null `salvage`) fails with the lowest failing GOP's
// status. A salvaging decode survives damaged payloads (bit flips survive
// the structural parse and only surface here): a failing GOP keeps the
// images before its first failing frame, and every frame from there to the
// next I-frame holds the last good image (mid-grey before the first), so
// frame indices stay aligned with the container. Each lost run adds one
// `decode: frame i: ...` note and one gops_skipped to `salvage`, plus its
// frames to items_dropped; the decoded frames go to items_recovered. It
// still fails when no frame decodes, and a cancelled decode is never
// salvaged.
util::StatusOr<std::vector<media::GrayImage>> DecodeDcImages(
    const CmvFile& file, const util::ExecutionContext& ctx = {},
    util::SalvageReport* salvage = nullptr);

// PSNR (dB) between two equally-sized images; +inf for identical content.
double Psnr(const media::Image& a, const media::Image& b);

namespace internal {

// Decodes one frame record into a full pixel reconstruction. For kIntra
// frames `ref` is ignored; for kPredicted frames `ref` must hold the
// previous reconstruction at the same dimensions. This is the per-frame
// core of the pixel decodes.
//
// `scratch` (may be null → heap) backs the returned picture's planes; a
// P-frame is motion-compensated straight into them. An arena-backed
// picture is only valid until the arena resets; the per-GOP loop
// double-buffers two arenas so the previous reconstruction stays live
// while the next frame decodes.
util::StatusOr<Picture> DecodePicture(const FrameRecord& rec, int width,
                                      int height, int quality,
                                      const Picture* ref,
                                      std::pmr::memory_resource* scratch =
                                          nullptr);

}  // namespace internal
}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_DECODER_H_
