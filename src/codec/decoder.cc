#include "codec/decoder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codec/bitstream.h"
#include "codec/motion.h"
#include "codec/quant.h"
#include "util/arena.h"
#include "util/failpoint.h"
#include "util/threadpool.h"

namespace classminer::codec {
namespace {

int BlocksAcross(int extent) { return (extent + kBlockSize - 1) / kBlockSize; }

// Decodes an intra plane. When `dc_only` is set, AC coefficients are parsed
// but not inverse-transformed, and only the per-block mean (DC/8 + 128) is
// stored into `dc_out`.
util::Status DecodeIntraPlane(BitReader* reader, int quality, bool chroma,
                              Plane* plane, bool dc_only,
                              std::vector<double>* dc_out) {
  const int bw = BlocksAcross(plane->width);
  const int bh = BlocksAcross(plane->height);
  const QuantSteps steps = MakeQuantSteps(quality, chroma);
  int32_t dc_pred = 0;
  QuantizedBlock q;
  for (int by = 0; by < bh; ++by) {
    for (int bx = 0; bx < bw; ++bx) {
      util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, dc_pred);
      if (!dc.ok()) return dc.status();
      dc_pred = *dc;
      if (dc_only) {
        if (dc_out != nullptr) {
          dc_out->push_back(q[0] * steps.step[0] / kBlockSize + 128.0);
        }
        continue;
      }
      PutBlock(plane, bx, by, InverseDct(Dequantize(q, steps)),
               /*center=*/true);
    }
  }
  return util::Status::Ok();
}

// Adds a P-frame block's residual to the motion-compensated samples already
// in `plane`, in place. An all-zero block (most of them) would add +0.0 to
// every sample, which only clamps it to [0, 255], so it skips the
// transform.
void AddResidual(Plane* plane, int bx, int by, const QuantizedBlock& q,
                 const QuantSteps& steps) {
  int32_t any = 0;
  for (const int32_t c : q) any |= c;
  if (any != 0) {
    PutResidualBlock(plane, bx, by, *plane, InverseDct(Dequantize(q, steps)));
    return;
  }
  const int x_end = std::min(plane->width, (bx + 1) * kBlockSize);
  const int y_end = std::min(plane->height, (by + 1) * kBlockSize);
  for (int y = by * kBlockSize; y < y_end; ++y) {
    int16_t* row = &plane->samples[static_cast<size_t>(y) * plane->width];
    for (int x = bx * kBlockSize; x < x_end; ++x) {
      row[x] = std::clamp<int16_t>(row[x], 0, 255);
    }
  }
}

struct PFrameSink {
  // Full decode targets (null in DC-only mode).
  Picture* recon = nullptr;
  const Picture* ref = nullptr;
  // DC-only targets.
  media::GrayImage* dc_image = nullptr;
  const media::GrayImage* prev_dc = nullptr;
};

// Walks a P-frame payload. In full mode reconstructs the picture: each
// macroblock is motion-compensated straight into `recon`, then its blocks
// add their residuals in place. In DC mode updates the DC thumbnail with
// motion-shifted previous DC + residual DC means. Layout must mirror
// EncodePredicted.
util::Status DecodePredictedFrame(BitReader* reader, int width, int height,
                                  int quality, PFrameSink* sink) {
  const int mbw = (width + kMacroblockSize - 1) / kMacroblockSize;
  const int mbh = (height + kMacroblockSize - 1) / kMacroblockSize;
  const int cbw = ((width + 1) / 2);
  const int cbh = ((height + 1) / 2);

  const bool full = sink->recon != nullptr;
  const QuantSteps luma_steps = MakeQuantSteps(quality, /*chroma=*/false);
  const QuantSteps chroma_steps = MakeQuantSteps(quality, /*chroma=*/true);

  QuantizedBlock q;
  for (int my = 0; my < mbh; ++my) {
    for (int mx = 0; mx < mbw; ++mx) {
      MotionVector mv;
      if (!reader->ReadSE(&mv.dx) || !reader->ReadSE(&mv.dy)) {
        return reader->status();
      }

      const int px = mx * kMacroblockSize;
      const int py = my * kMacroblockSize;
      if (full) {
        MotionCompensate(sink->ref->y, &sink->recon->y, px, py, mv,
                         kMacroblockSize);
        const MotionVector cmv{mv.dx / 2, mv.dy / 2};
        MotionCompensate(sink->ref->cb, &sink->recon->cb, px / 2, py / 2, cmv,
                         kBlockSize);
        MotionCompensate(sink->ref->cr, &sink->recon->cr, px / 2, py / 2, cmv,
                         kBlockSize);
      }

      for (int sub = 0; sub < 4; ++sub) {
        const int bx = 2 * mx + (sub % 2);
        const int by = 2 * my + (sub / 2);
        if (bx * kBlockSize >= width || by * kBlockSize >= height) continue;
        util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, 0);
        if (!dc.ok()) return dc.status();
        if (full) {
          AddResidual(&sink->recon->y, bx, by, q, luma_steps);
        } else if (sink->dc_image != nullptr) {
          // DC-resolution motion compensation: sample the previous DC image
          // at the vector-shifted position (rounded to DC grid).
          const media::GrayImage& prev = *sink->prev_dc;
          const int sx = std::clamp(
              bx + static_cast<int>(std::lround(mv.dx / 8.0)), 0,
              prev.width() - 1);
          const int sy = std::clamp(
              by + static_cast<int>(std::lround(mv.dy / 8.0)), 0,
              prev.height() - 1);
          const double base = prev.at(sx, sy);
          const double mean = base + q[0] * luma_steps.step[0] / kBlockSize;
          if (bx < sink->dc_image->width() && by < sink->dc_image->height()) {
            sink->dc_image->set(bx, by,
                                static_cast<uint8_t>(RoundToSample(mean)));
          }
        }
      }
      if (mx * kBlockSize < cbw && my * kBlockSize < cbh) {
        for (int c = 0; c < 2; ++c) {
          util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, 0);
          if (!dc.ok()) return dc.status();
          if (full) {
            AddResidual(c == 0 ? &sink->recon->cb : &sink->recon->cr, mx, my,
                        q, chroma_steps);
          }
        }
      }
    }
  }
  return util::Status::Ok();
}

// The GOPs of `file`, from its frame records alone (only start_frame and
// frame_count are set). Each I-frame opens a GOP that runs to the next one;
// a leading run of P-frames forms a GOP of its own, which fails at its
// first frame.
std::vector<GopIndexEntry> DeriveGops(const CmvFile& file) {
  std::vector<GopIndexEntry> gops;
  for (size_t i = 0; i < file.frames.size(); ++i) {
    if (gops.empty() || file.frames[i].type == FrameType::kIntra) {
      gops.push_back({static_cast<int>(i), 0});
    }
    ++gops.back().frame_count;
  }
  return gops;
}

util::Status StreamStartsWithPFrame() {
  return util::Status::DataLoss("stream starts with P-frame");
}

// Decodes the frames of `gop` in stream order, appending them to *frames.
// Double-buffered bump arenas: frame i decodes into arena i % 2 while the
// previous reconstruction (the P-frame reference) stays live in the other
// one. Resetting an arena only discards the frame from two steps back,
// which nothing references any more. The decoded pixels escape as
// heap-backed Images, never as arena memory.
util::Status DecodeGopFrames(const CmvFile& file, const GopIndexEntry& gop,
                             const util::CancellationToken* cancel,
                             std::vector<media::Image>* frames) {
  frames->reserve(static_cast<size_t>(gop.frame_count));
  util::Arena arenas[2];
  std::optional<Picture> slots[2];
  const Picture* recon = nullptr;
  for (int i = 0; i < gop.frame_count; ++i) {
    if (cancel != nullptr && cancel->cancelled()) {
      return util::Status::Cancelled("GOP decode cancelled");
    }
    const FrameRecord& rec =
        file.frames[static_cast<size_t>(gop.start_frame + i)];
    if (i == 0 && rec.type != FrameType::kIntra) {
      return StreamStartsWithPFrame();
    }
    util::Arena& frame_arena = arenas[i % 2];
    slots[i % 2].reset();
    frame_arena.Reset();
    util::StatusOr<Picture> next =
        internal::DecodePicture(rec, file.width, file.height, file.quality,
                                recon, &frame_arena);
    CLASSMINER_RETURN_IF_ERROR(next.status());
    recon = &slots[i % 2].emplace(std::move(*next));
    frames->push_back(ToImage(*recon, file.width, file.height));
  }
  return util::Status::Ok();
}

// Decodes the DC images of `gop` in stream order, appending them to *dcs;
// each P-frame predicts from the image before it. On failure *dcs keeps the
// images before the failing frame.
util::Status DecodeGopDc(const CmvFile& file, const GopIndexEntry& gop,
                         const util::CancellationToken* cancel,
                         std::vector<media::GrayImage>* dcs) {
  const int dcw = BlocksAcross(file.width);
  const int dch = BlocksAcross(file.height);
  dcs->reserve(static_cast<size_t>(gop.frame_count));
  std::vector<double> means;
  for (int i = 0; i < gop.frame_count; ++i) {
    if (cancel != nullptr && cancel->cancelled()) {
      return util::Status::Cancelled("DC image extraction cancelled");
    }
    const FrameRecord& rec =
        file.frames[static_cast<size_t>(gop.start_frame + i)];
    BitReader reader(rec.payload);
    media::GrayImage dc(dcw, dch);
    if (rec.type == FrameType::kIntra) {
      // Dims-only plane: the DC-only intra walk never touches samples, so
      // skip the width*height allocation entirely. Chroma planes still
      // occupy the bitstream, but the luma-only DC series need not parse
      // them (payloads are length-delimited per frame).
      Plane y_dims;
      y_dims.width = file.width;
      y_dims.height = file.height;
      means.clear();
      CLASSMINER_RETURN_IF_ERROR(DecodeIntraPlane(
          &reader, file.quality, false, &y_dims, /*dc_only=*/true, &means));
      for (int by = 0; by < dch; ++by) {
        for (int bx = 0; bx < dcw; ++bx) {
          dc.set(bx, by, static_cast<uint8_t>(RoundToSample(
                             means[static_cast<size_t>(by) * dcw + bx])));
        }
      }
    } else if (i == 0) {
      return StreamStartsWithPFrame();
    } else {
      PFrameSink sink;
      sink.dc_image = &dc;
      sink.prev_dc = &dcs->back();
      CLASSMINER_RETURN_IF_ERROR(DecodePredictedFrame(
          &reader, file.width, file.height, file.quality, &sink));
    }
    dcs->push_back(std::move(dc));
  }
  return util::Status::Ok();
}

// One GOP decode's result. The status starts kInternal ("did not
// complete"), so a GOP whose task died on a pool worker never passes for a
// decoded one. A failing GOP keeps the frames it decoded before failing.
template <typename Frame>
struct GopSlot {
  util::Status status = util::Status::Internal("GOP decode did not complete");
  std::vector<Frame> frames;
};

// The one GOP loop behind every decode: `decode(g, &frames)` runs once for
// each of `count` GOPs on the context's pool (a null or 1-thread pool runs
// them inline, in order), each writing only its own slot.
template <typename Frame, typename Decode>
std::vector<GopSlot<Frame>> DecodeGops(size_t count,
                                       const util::ExecutionContext& ctx,
                                       const Decode& decode) {
  std::vector<GopSlot<Frame>> slots(count);
  util::ParallelFor(ctx.pool(), static_cast<int>(count), [&](int g) {
    GopSlot<Frame>& slot = slots[static_cast<size_t>(g)];
    slot.status = decode(static_cast<size_t>(g), &slot.frames);
  });
  return slots;
}

}  // namespace

namespace internal {

util::StatusOr<Picture> DecodePicture(const FrameRecord& rec, int width,
                                      int height, int quality,
                                      const Picture* ref,
                                      std::pmr::memory_resource* scratch) {
  const int cw = (width + 1) / 2;
  const int ch = (height + 1) / 2;
  BitReader reader(rec.payload);
  // Planes are constructed on `scratch` and the picture returned by move,
  // which preserves the resource (assignment through an existing Picture
  // would not — see Plane).
  Picture out{Plane::Make(width, height, 0, scratch),
              Plane::Make(cw, ch, 0, scratch),
              Plane::Make(cw, ch, 0, scratch)};
  if (rec.type == FrameType::kIntra) {
    CLASSMINER_RETURN_IF_ERROR(
        DecodeIntraPlane(&reader, quality, false, &out.y, false, nullptr));
    CLASSMINER_RETURN_IF_ERROR(
        DecodeIntraPlane(&reader, quality, true, &out.cb, false, nullptr));
    CLASSMINER_RETURN_IF_ERROR(
        DecodeIntraPlane(&reader, quality, true, &out.cr, false, nullptr));
    return out;
  }
  if (ref == nullptr) {
    return util::Status::DataLoss("P-frame without a reference picture");
  }
  PFrameSink sink;
  sink.recon = &out;
  sink.ref = ref;
  CLASSMINER_RETURN_IF_ERROR(
      DecodePredictedFrame(&reader, width, height, quality, &sink));
  return out;
}

}  // namespace internal

util::StatusOr<media::Video> DecodeVideo(const CmvFile& file,
                                         const util::ExecutionContext& ctx) {
  CLASSMINER_RETURN_IF_ERROR(util::FailPoint::Check("codec.decode_video"));
  if (file.width <= 0 || file.height <= 0) {
    return util::Status::InvalidArgument("CMV file has empty dimensions");
  }
  const std::vector<GopIndexEntry> gops = DeriveGops(file);
  std::vector<GopSlot<media::Image>> slots = DecodeGops<media::Image>(
      gops.size(), ctx, [&](size_t g, std::vector<media::Image>* frames) {
        return DecodeGopFrames(file, gops[g], ctx.cancellation(), frames);
      });
  media::Video video(file.name, file.fps);
  video.Reserve(file.frames.size());
  for (GopSlot<media::Image>& slot : slots) {
    CLASSMINER_RETURN_IF_ERROR(slot.status);
    for (media::Image& frame : slot.frames) video.AppendFrame(std::move(frame));
  }
  return video;
}

util::Status FrameBatch::FirstError() const {
  for (const DecodedFrame& frame : frames) {
    CLASSMINER_RETURN_IF_ERROR(frame.status);
  }
  return util::Status::Ok();
}

util::StatusOr<FrameBatch> DecodeFrames(const CmvFile& file,
                                        const std::vector<int>& frame_indices,
                                        const util::ExecutionContext& ctx) {
  if (file.width <= 0 || file.height <= 0) {
    return util::Status::InvalidArgument("CMV file has empty dimensions");
  }
  if (!file.frames.empty() && file.frames[0].type != FrameType::kIntra) {
    return StreamStartsWithPFrame();
  }
  // The plan, in one merge walk of the sorted indices against the GOPs: one
  // run per needed GOP, decoding its prefix up to the last frame requested
  // of it, and serving requests [first[r], first[r + 1]).
  const std::vector<GopIndexEntry> gops = DeriveGops(file);
  std::vector<GopIndexEntry> runs;
  std::vector<size_t> first;
  size_t g = 0;
  for (size_t i = 0; i < frame_indices.size(); ++i) {
    const int f = frame_indices[i];
    if (f < 0 || f >= file.frame_count()) {
      return util::Status::OutOfRange(
          "frame " + std::to_string(f) + " outside [0, " +
          std::to_string(file.frame_count()) + ")");
    }
    if (i > 0 && f <= frame_indices[i - 1]) {
      return util::Status::OutOfRange(
          "frame indices must be strictly increasing (" +
          std::to_string(frame_indices[i - 1]) + " then " +
          std::to_string(f) + ")");
    }
    while (g + 1 < gops.size() && gops[g + 1].start_frame <= f) ++g;
    if (runs.empty() || runs.back().start_frame != gops[g].start_frame) {
      runs.push_back({gops[g].start_frame, 0});
      first.push_back(i);
    }
    runs.back().frame_count = f - gops[g].start_frame + 1;
  }
  first.push_back(frame_indices.size());

  // Each run keeps only the frames asked of it, so no more than one GOP
  // prefix per worker is resident at a time.
  std::vector<GopSlot<media::Image>> slots = DecodeGops<media::Image>(
      runs.size(), ctx, [&](size_t r, std::vector<media::Image>* kept) {
        CLASSMINER_RETURN_IF_ERROR(
            util::FailPoint::Check("codec.gop_reader.decode_gop"));
        std::vector<media::Image> prefix;
        CLASSMINER_RETURN_IF_ERROR(
            DecodeGopFrames(file, runs[r], ctx.cancellation(), &prefix));
        for (size_t i = first[r]; i < first[r + 1]; ++i) {
          kept->push_back(std::move(prefix[static_cast<size_t>(
              frame_indices[i] - runs[r].start_frame)]));
        }
        return util::Status::Ok();
      });

  FrameBatch batch;
  batch.frames.resize(frame_indices.size());
  batch.gops = static_cast<int>(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    const util::Status& status = slots[r].status;
    if (status.code() == util::StatusCode::kCancelled) return status;
    if (status.ok()) {
      batch.frames_decoded += runs[r].frame_count;
    } else {
      ++batch.failed_gops;
    }
    for (size_t i = first[r]; i < first[r + 1]; ++i) {
      batch.frames[i].status = status;
      if (status.ok()) {
        batch.frames[i].image = std::move(slots[r].frames[i - first[r]]);
      }
    }
  }
  return batch;
}

util::StatusOr<std::vector<media::GrayImage>> DecodeDcImages(
    const CmvFile& file, const util::ExecutionContext& ctx,
    util::SalvageReport* salvage) {
  if (file.width <= 0 || file.height <= 0) {
    return util::Status::InvalidArgument("CMV file has empty dimensions");
  }
  const std::vector<GopIndexEntry> gops = DeriveGops(file);
  std::vector<GopSlot<media::GrayImage>> slots =
      DecodeGops<media::GrayImage>(
          gops.size(), ctx,
          [&](size_t g, std::vector<media::GrayImage>* dcs) {
            return DecodeGopDc(file, gops[g], ctx.cancellation(), dcs);
          });
  if (salvage != nullptr) {
    for (const GopSlot<media::GrayImage>& slot : slots) {
      if (slot.status.code() == util::StatusCode::kCancelled) {
        return slot.status;
      }
    }
  }

  // One serial pass in stream order. A strict decode stops at the lowest
  // failing GOP; a salvaging one fills each lost run with the last good
  // image until the next I-frame resynchronises the stream.
  const media::GrayImage mid_grey(BlocksAcross(file.width),
                                  BlocksAcross(file.height), 128);
  std::vector<media::GrayImage> out;
  out.reserve(file.frames.size());
  size_t dropped = 0;
  for (size_t g = 0; g < slots.size(); ++g) {
    GopSlot<media::GrayImage>& slot = slots[g];
    if (!slot.status.ok() && salvage == nullptr) return slot.status;
    for (media::GrayImage& dc : slot.frames) out.push_back(std::move(dc));
    if (slot.status.ok()) continue;
    const size_t lost =
        static_cast<size_t>(gops[g].frame_count) - slot.frames.size();
    salvage->gops_skipped += 1;
    salvage->AddNote("decode: frame " +
                     std::to_string(gops[g].start_frame + slot.frames.size()) +
                     ": " + slot.status.message());
    salvage->items_dropped += static_cast<int>(lost);
    for (size_t i = 0; i < lost; ++i) {
      out.push_back(out.empty() ? mid_grey : out.back());
    }
    dropped += lost;
  }
  if (salvage != nullptr) {
    if (dropped > 0 && dropped == out.size()) {
      return util::Status::DataLoss("no frame in the stream decodes");
    }
    salvage->items_recovered += static_cast<int>(out.size() - dropped);
  }
  return out;
}

double Psnr(const media::Image& a, const media::Image& b) {
  const int w = std::min(a.width(), b.width());
  const int h = std::min(a.height(), b.height());
  if (w == 0 || h == 0) return 0.0;
  double mse = 0.0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const media::Rgb pa = a.at(x, y);
      const media::Rgb pb = b.at(x, y);
      const double dr = static_cast<double>(pa.r) - pb.r;
      const double dg = static_cast<double>(pa.g) - pb.g;
      const double db = static_cast<double>(pa.b) - pb.b;
      mse += (dr * dr + dg * dg + db * db) / 3.0;
    }
  }
  mse /= static_cast<double>(w) * h;
  if (mse <= 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace classminer::codec
